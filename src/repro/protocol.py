"""Wire-protocol message types exchanged between middleware, geo-agents and data sources.

Centralising the message-type strings avoids typo bugs and documents, in one
place, the vocabulary of the simulated system.  The groups mirror the paper's
architecture (Figure 3): XA verbs spoken to data sources, geo-agent control
messages, key-value verbs used by the ScalarDB baseline, and failure-injection
controls used by the recovery tests.
"""

# --- XA protocol verbs (middleware / geo-agent -> data source) --------------
MSG_EXECUTE = "execute"                      # ``auto_start`` opens the branch
#: Only perf_ledger/micro.py (``storage.xa_roundtrip_us``) sends this verb.
MSG_XA_START = "xa_start"
MSG_XA_END = "xa_end"
MSG_XA_PREPARE = "xa_prepare"
MSG_XA_COMMIT = "xa_commit"
MSG_XA_ROLLBACK = "xa_rollback"
MSG_COMMIT_ONE_PHASE = "commit_one_phase"
MSG_LIST_PREPARED = "list_prepared"

# --- Geo-agent control (middleware -> geo-agent, geo-agent -> geo-agent) ----
MSG_AGENT_EXECUTE = "agent_execute"          # forward statements; may carry last-statement flag
MSG_AGENT_PREPARE = "agent_prepare"          # explicit prepare for participants without a last statement
MSG_AGENT_PREPARE_RESULT = "agent_prepare_result"  # async vote back to the middleware
MSG_PEER_ROLLBACK = "peer_rollback"          # early-abort notification between geo-agents

# --- Key-value verbs for the ScalarDB-style baseline -------------------------
MSG_KV_GET = "kv_get"
MSG_KV_PUT = "kv_put"
MSG_KV_PUT_IF_VERSION = "kv_put_if_version"

# --- Failure injection / recovery --------------------------------------------
MSG_CRASH = "crash"
MSG_RESTART = "restart"
MSG_PING = "ping"

# --- Participant states reported during decentralized prepare (Alg. 1) -------
STATE_IDLE = "IDLE"              # centralized transaction: no prepare needed
STATE_PREPARED = "PREPARED"
STATE_FAILURE = "FAILURE"
STATE_ROLLBACK_ONLY = "ROLLBACK_ONLY"
STATE_ROLLBACKED = "ROLLBACKED"
