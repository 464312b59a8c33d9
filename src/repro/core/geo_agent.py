"""The geo-agent: GeoTP's per-data-source coordination proxy (§III-B, §IV-A).

A geo-agent runs next to its data source (LAN round trip of well under a
millisecond) and gives GeoTP two abilities the plain middleware lacks:

* **Decentralized prepare** — after the data source executes the statement
  batch annotated as the transaction's last one, the agent immediately drives
  the XA END / XA PREPARE sequence over the LAN and reports the vote to the
  middleware asynchronously, removing the prepare phase's WAN round trip from
  the critical path (Algorithm 1's ``AsyncPrepare``).
* **Early abort** — when a subtransaction fails, the agent proactively tells
  the peer agents to roll back their branches, without waiting for the
  middleware (Algorithm 1's ``AsyncRollback``), halving the abort latency.

The agent also transparently forwards ordinary XA verbs to its data source so
that commit, rollback and recovery traffic flow through it unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Deque, Dict, Optional, Set

from repro.common import AbortReason, SubtxnResult, Vote
from repro import protocol
from repro.sim import Environment, Event
from repro.sim.network import Message, Network, NetworkInterface


@dataclass
class GeoAgentConfig:
    """Static configuration of one geo-agent."""

    name: str
    datasource: str
    #: Extra processing cost per forwarded message (encode/decode, Fig. 6c "Others").
    forward_overhead_ms: float = 0.1
    enable_early_abort: bool = True
    #: How many global-txn-id -> branch-xid mappings (and poisoned ids) the
    #: agent remembers.  The mappings only matter while a transaction is in
    #: flight — a peer rollback for an id nobody remembers is simply re-poisoned
    #: — so the cap just needs to exceed the maximum concurrent transactions
    #: through one agent.  Without it the agent's bookkeeping grows by two
    #: strings per distributed transaction forever, which open-system runs at
    #: 10⁶+ transactions turn into hundreds of megabytes.
    xid_retention: Optional[int] = 4_096


#: Verbs forwarded verbatim to the co-located data source.
_FORWARDED_VERBS = (
    protocol.MSG_EXECUTE,
    protocol.MSG_XA_START,
    protocol.MSG_XA_END,
    protocol.MSG_XA_PREPARE,
    protocol.MSG_XA_COMMIT,
    protocol.MSG_XA_ROLLBACK,
    protocol.MSG_COMMIT_ONE_PHASE,
    protocol.MSG_LIST_PREPARED,
    protocol.MSG_TXN_STATE,
    protocol.MSG_PING,
    protocol.MSG_KV_GET,
    protocol.MSG_KV_PUT,
    protocol.MSG_KV_PUT_IF_VERSION,
)


class GeoAgentStats:
    """Counters describing what the agent did (used in tests and reports)."""

    __slots__ = ("executes", "decentralized_prepares",
                 "early_abort_notifications", "peer_rollbacks_handled",
                 "forwarded")

    def __init__(self) -> None:
        self.executes = 0
        self.decentralized_prepares = 0
        self.early_abort_notifications = 0
        self.peer_rollbacks_handled = 0
        self.forwarded = 0


class GeoAgent:
    """The per-data-source agent process."""

    def __init__(self, env: Environment, network: Network, config: GeoAgentConfig):
        self.env = env
        self.config = config
        self.name = config.name
        self.datasource = config.datasource
        self.net: NetworkInterface = network.interface(config.name)
        self.stats = GeoAgentStats()
        #: Maps global transaction ids to the local branch xid seen on this node.
        self._local_xids: Dict[str, str] = {}
        #: Global transaction ids aborted by a peer before we even saw them.
        self._poisoned: Set[str] = set()
        # FIFO of ids in insertion order, shared by both structures above:
        # once the retention cap is exceeded the oldest ids — long finished —
        # are forgotten, keeping agent bookkeeping O(1) with run length.
        self._xid_order: Deque[str] = deque()
        # Verb dispatch table, built once: ``_dispatch`` consults it per message.
        self._handlers = {protocol.MSG_AGENT_EXECUTE: self._on_agent_execute,
                          protocol.MSG_AGENT_PREPARE: self._on_agent_prepare,
                          protocol.MSG_PEER_ROLLBACK: self._on_peer_rollback}
        for verb in _FORWARDED_VERBS:
            self._handlers[verb] = self._forward
        # Direct-consumer inbox: see DataSource — one handler spawn per
        # message, no server loop or get-event round trip.
        self.net.inbox.set_consumer(self._dispatch)

    def close(self) -> None:
        """Drop the verb table: its bound methods hold this agent in a cycle."""
        self._handlers.clear()

    # ------------------------------------------------------------------ server
    def _dispatch(self, message: Message) -> None:
        # Generator verbs are spawned; start/finish pairs schedule their own
        # timer and return None (the same rule as ``DataSource._dispatch``).
        handler = self._handlers.get(message.msg_type) or self._on_unknown
        generator = handler(message)
        if generator is not None:
            self.env.process(generator, name=message.msg_type, daemon=True)

    def _on_unknown(self, message: Message) -> None:
        if message.reply_event is not None:
            self.net.reply(message, {"status": "error",
                                     "error": f"unknown verb {message.msg_type}"})

    def _forward(self, message: Message) -> None:
        """Transparently forward a verb to the data source and relay the reply."""
        self.stats.forwarded += 1
        self.env.call_at(self.config.forward_overhead_ms, self._forward_send, message)

    def _forward_send(self, message: Message) -> None:
        reply = self.net.request(self.datasource, message.msg_type, message.payload)
        if message.reply_event is not None:
            reply.callbacks.append(partial(self._relay, message))

    def _relay(self, message: Message, reply: Event) -> None:
        self.net.reply(message, reply.value)

    # ----------------------------------------------------------- GeoTP execute
    def _on_agent_execute(self, message: Message):
        payload = message.payload or {}
        xid = payload["xid"]
        global_txn_id = payload.get("global_txn_id", xid)
        coordinator = payload.get("coordinator", message.sender)
        peers = payload.get("peers", ())
        is_last = bool(payload.get("is_last", False))
        decentralized = bool(payload.get("decentralized_prepare", False))
        self.stats.executes += 1
        self._remember_xid(global_txn_id, xid)

        yield self.config.forward_overhead_ms

        if global_txn_id in self._poisoned:
            # A peer already aborted this transaction: do not waste execution.
            result = SubtxnResult(xid=xid, datasource=self.datasource, success=False,
                                  error="aborted by peer before execution",
                                  abort_reason=AbortReason.PEER_ABORT)
            if message.reply_event is not None:
                self.net.reply(message, result)
            self._send_state(coordinator, global_txn_id, protocol.STATE_ROLLBACKED)
            return

        # The data source reads its own keys (xid, operations, auto_start,
        # ...) and ignores the agent's: forward the payload as it came.
        result = yield self.net.request(self.datasource, protocol.MSG_EXECUTE,
                                        payload)

        if isinstance(result, SubtxnResult) and not result.success:
            # Execution failed (typically a lock timeout): early abort.
            if message.reply_event is not None:
                self.net.reply(message, result)
            yield from self._async_rollback(global_txn_id, xid, peers, coordinator,
                                            already_aborted=True)
            return

        if message.reply_event is not None:
            self.net.reply(message, result)

        if is_last and decentralized:
            yield from self._async_prepare(global_txn_id, xid, peers, coordinator)

    def _on_agent_prepare(self, message: Message):
        """Explicit prepare request for participants without a last statement."""
        payload = message.payload or {}
        xid = payload["xid"]
        global_txn_id = payload.get("global_txn_id", xid)
        coordinator = payload.get("coordinator", message.sender)
        peers = payload.get("peers", ())
        if global_txn_id not in self._local_xids:
            self._remember_xid(global_txn_id, xid)
        yield self.config.forward_overhead_ms
        if message.reply_event is not None:
            self.net.reply(message, {"status": "ok"})
        yield from self._async_prepare(global_txn_id, xid, peers, coordinator)

    # ------------------------------------------------- Algorithm 1: AsyncPrepare
    def _async_prepare(self, global_txn_id: str, xid: str, peers, coordinator: str):
        if not peers:
            # Centralized transaction: nothing to prepare, report IDLE (Alg. 1 l.7-9).
            self._send_state(coordinator, global_txn_id, protocol.STATE_IDLE)
            return

        end_reply = yield self.net.request(self.datasource, protocol.MSG_XA_END,
                                           {"xid": xid})
        if not (isinstance(end_reply, dict) and end_reply.get("status") == "ok"):
            self._send_state(coordinator, global_txn_id, protocol.STATE_ROLLBACK_ONLY)
            yield from self._async_rollback(global_txn_id, xid, peers, coordinator)
            return

        prepare_reply = yield self.net.request(self.datasource, protocol.MSG_XA_PREPARE,
                                               {"xid": xid})
        vote = prepare_reply.get("vote") if isinstance(prepare_reply, dict) else None
        if vote is Vote.YES:
            self.stats.decentralized_prepares += 1
            self._send_state(coordinator, global_txn_id, protocol.STATE_PREPARED)
        else:
            self._send_state(coordinator, global_txn_id, protocol.STATE_FAILURE)
            yield from self._async_rollback(global_txn_id, xid, peers, coordinator)

    # ------------------------------------------------ Algorithm 1: AsyncRollback
    def _async_rollback(self, global_txn_id: str, xid: str, peers, coordinator: str,
                        already_aborted: bool = False):
        if self.config.enable_early_abort:
            for peer in peers:
                if peer == self.name:
                    continue
                self.stats.early_abort_notifications += 1
                self.net.send(peer, protocol.MSG_PEER_ROLLBACK,
                              {"global_txn_id": global_txn_id,
                               "coordinator": coordinator})
        if not already_aborted:
            yield self.net.request(self.datasource, protocol.MSG_XA_ROLLBACK,
                                   {"xid": xid})
        else:
            yield self.env.timeout(0)
        self._send_state(coordinator, global_txn_id, protocol.STATE_ROLLBACKED)

    def _on_peer_rollback(self, message: Message):
        """A peer agent told us to abort our branch of a failing transaction."""
        payload = message.payload or {}
        global_txn_id = payload["global_txn_id"]
        coordinator = payload.get("coordinator")
        self.stats.peer_rollbacks_handled += 1
        xid = self._local_xids.get(global_txn_id)
        if xid is None:
            # We have not executed anything yet; poison the id so a late
            # execute is rejected immediately instead of doing useless work.
            self._poison(global_txn_id)
            yield self.env.timeout(0)
            return
        yield self.net.request(self.datasource, protocol.MSG_XA_ROLLBACK, {"xid": xid})
        if coordinator:
            self._send_state(coordinator, global_txn_id, protocol.STATE_ROLLBACKED)

    # ------------------------------------------------------------------ helpers
    def _remember_xid(self, global_txn_id: str, xid: str) -> None:
        """Record the local branch xid for a global transaction (bounded)."""
        if global_txn_id not in self._local_xids:
            self._track(global_txn_id)
        self._local_xids[global_txn_id] = xid

    def _poison(self, global_txn_id: str) -> None:
        """Mark a never-seen transaction as aborted-by-peer (bounded)."""
        if global_txn_id not in self._poisoned:
            self._track(global_txn_id)
            self._poisoned.add(global_txn_id)

    def _track(self, global_txn_id: str) -> None:
        """Enter an id into the retention FIFO, forgetting the oldest ids.

        Retention only needs to outlast a transaction's in-flight window (the
        client pool bounds concurrency far below the default cap of 4096), so
        forgetting the oldest ids never touches a live transaction.  A stale
        peer rollback for a forgotten id takes the poison path, exactly as if
        the rollback had arrived before the execute.
        """
        retention = self.config.xid_retention
        if retention is None:
            return
        order = self._xid_order
        order.append(global_txn_id)
        while len(order) > retention:
            old = order.popleft()
            self._local_xids.pop(old, None)
            self._poisoned.discard(old)

    def _send_state(self, coordinator: Optional[str], global_txn_id: str,
                    state: str) -> None:
        if not coordinator:
            return
        self.net.send(coordinator, protocol.MSG_AGENT_PREPARE_RESULT,
                      {"global_txn_id": global_txn_id,
                       "datasource": self.datasource,
                       "agent": self.name,
                       "state": state})
