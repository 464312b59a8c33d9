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

The agent also transparently forwards the XA verbs that reach it — the
decision, a one-phase commit, recovery's prepared-branch listing and latency
probes — to its data source, so that traffic flows through it unchanged.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Optional, Set

from repro.common import COSTS, AbortReason, SubtxnResult, Vote
from repro import protocol
from repro.sim import Environment, Event
from repro.sim.network import Message, Network, NetworkInterface


#: Verbs forwarded verbatim to the co-located data source: the ones a
#: coordinator, recovery or a latency probe sends to an agent.  A statement
#: batch arrives as ``agent_execute`` and the agent itself sends XA END and
#: XA PREPARE, so a plain ``execute`` or a kv verb is answered as unknown.
_FORWARDED_VERBS = (
    protocol.MSG_XA_COMMIT,
    protocol.MSG_XA_ROLLBACK,
    protocol.MSG_COMMIT_ONE_PHASE,
    protocol.MSG_LIST_PREPARED,
    protocol.MSG_PING,
)


class GeoAgentStats:
    """Counters describing what the agent did (used in tests and reports)."""

    __slots__ = ("decentralized_prepares", "early_abort_notifications",
                 "peer_rollbacks_handled", "forwarded")

    def __init__(self) -> None:
        self.decentralized_prepares = 0
        self.early_abort_notifications = 0
        self.peer_rollbacks_handled = 0
        self.forwarded = 0


class GeoAgent:
    """The per-data-source agent ``name``, co-located with ``datasource``."""

    #: How many transaction ids (seen branches and poisoned ids) the agent
    #: remembers.  An id only matters while its transaction is in flight — a
    #: peer rollback for an id nobody remembers is simply re-poisoned — so the
    #: cap just needs to exceed the maximum concurrent transactions through
    #: one agent.  Without it the agent's bookkeeping grows by one id per
    #: distributed transaction forever, which open-system runs at 10⁶+
    #: transactions turn into hundreds of megabytes.
    XID_RETENTION = 4_096

    def __init__(self, env: Environment, network: Network, name: str,
                 datasource: str):
        self.env = env
        self.name = name
        self.datasource = datasource
        self.net: NetworkInterface = network.interface(name)
        self.stats = GeoAgentStats()
        #: Xids of the branches this agent was asked to execute or prepare.  A
        #: branch's xid is its global transaction id, so a peer rollback names
        #: the branch to roll back directly.
        self._seen: Set[str] = set()
        #: Xids a peer aborted: an execute still to come (or still paying its
        #: forwarding cost) is refused.
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
        self.net.inbox.set_consumer(self._dispatch)

    def close(self) -> None:
        """Drop the verb table: its bound methods hold this agent in a cycle."""
        self._handlers.clear()

    # ------------------------------------------------------------------ server
    def _dispatch(self, message: Message) -> None:
        # One handler protocol, as in ``DataSource._dispatch``: no verb here
        # can wait on a lock, so every one is a start function plus
        # ``call_at`` timers and reply callbacks, one small method per step.
        (self._handlers.get(message.msg_type) or self._on_unknown)(message)

    def _on_unknown(self, message: Message) -> None:
        if message.reply_event is not None:
            self.net.reply(message, {"status": "error",
                                     "error": f"unknown verb {message.msg_type}"})

    def _forward(self, message: Message) -> None:
        """Transparently forward a verb to the data source and relay the reply."""
        self.stats.forwarded += 1
        self.env.call_at(COSTS.agent_forward_ms, self._forward_send, message)

    def _forward_send(self, message: Message) -> None:
        reply = self.net.request(self.datasource, message.msg_type, message.payload)
        if message.reply_event is not None:
            reply.callbacks.append(partial(self._relay, message))

    def _relay(self, message: Message, reply: Event) -> None:
        self.net.reply(message, reply.value)

    def _request(self, verb: str, xid: str, then, *args) -> None:
        """Send ``verb`` for branch ``xid``; ``then(*args, reply)`` gets the answer."""
        reply = self.net.request(self.datasource, verb, {"xid": xid})
        reply.callbacks.append(partial(then, *args))

    # ----------------------------------------------------------- GeoTP execute
    def _on_agent_execute(self, message: Message) -> None:
        self._remember(message.payload["xid"])
        self.env.call_at(COSTS.agent_forward_ms, self._execute, message)

    def _execute(self, message: Message) -> None:
        """The forwarding cost is paid: run the batch unless a peer aborted."""
        payload = message.payload
        xid = payload["xid"]
        if xid in self._poisoned:
            # A peer already aborted this transaction: do not waste execution.
            if message.reply_event is not None:
                self.net.reply(message, SubtxnResult(
                    datasource=self.datasource, success=False,
                    abort_reason=AbortReason.PEER_ABORT))
            self._send_state(_coordinator(message), xid,
                             protocol.STATE_ROLLBACKED)
            return
        # The data source reads its own keys (xid, operations, auto_start,
        # ...) and ignores the agent's: forward the payload as it came.
        reply = self.net.request(self.datasource, protocol.MSG_EXECUTE, payload)
        reply.callbacks.append(partial(self._executed, message))

    def _executed(self, message: Message, reply: Event) -> None:
        result = reply.value
        if message.reply_event is not None:
            self.net.reply(message, result)
        payload = message.payload
        if isinstance(result, SubtxnResult) and not result.success:
            # Execution failed (typically a lock timeout): early abort.
            self._async_rollback(payload["xid"], payload.get("peers", ()),
                                 _coordinator(message), already_aborted=True)
        elif payload.get("is_last"):
            self._async_prepare(payload["xid"], payload.get("peers", ()),
                                _coordinator(message))

    def _on_agent_prepare(self, message: Message) -> None:
        """Explicit prepare request for participants without a last statement."""
        self._remember(message.payload["xid"])
        self.env.call_at(COSTS.agent_forward_ms, self._start_prepare, message)

    def _start_prepare(self, message: Message) -> None:
        if message.reply_event is not None:
            self.net.reply(message, {"status": "ok"})
        payload = message.payload
        self._async_prepare(payload["xid"], payload.get("peers", ()),
                            _coordinator(message))

    # ------------------------------------------------- Algorithm 1: AsyncPrepare
    def _async_prepare(self, xid: str, peers, coordinator: str) -> None:
        if not peers:
            # Centralized transaction: nothing to prepare, report IDLE (Alg. 1 l.7-9).
            self._send_state(coordinator, xid, protocol.STATE_IDLE)
            return
        self._request(protocol.MSG_XA_END, xid, self._ended, xid, peers,
                      coordinator)

    def _ended(self, xid: str, peers, coordinator: str, reply: Event) -> None:
        end_reply = reply.value
        if not (isinstance(end_reply, dict) and end_reply.get("status") == "ok"):
            self._send_state(coordinator, xid, protocol.STATE_ROLLBACK_ONLY)
            self._async_rollback(xid, peers, coordinator)
            return
        self._request(protocol.MSG_XA_PREPARE, xid, self._voted, xid, peers,
                      coordinator)

    def _voted(self, xid: str, peers, coordinator: str, reply: Event) -> None:
        prepare_reply = reply.value
        vote = prepare_reply.get("vote") if isinstance(prepare_reply, dict) else None
        if vote is Vote.YES:
            self.stats.decentralized_prepares += 1
            self._send_state(coordinator, xid, protocol.STATE_PREPARED)
        else:
            self._send_state(coordinator, xid, protocol.STATE_FAILURE)
            self._async_rollback(xid, peers, coordinator)

    # ------------------------------------------------ Algorithm 1: AsyncRollback
    def _async_rollback(self, xid: str, peers, coordinator: str,
                        already_aborted: bool = False) -> None:
        for peer in peers:
            if peer == self.name:
                continue
            self.stats.early_abort_notifications += 1
            self.net.send(peer, protocol.MSG_PEER_ROLLBACK,
                          {"xid": xid, "coordinator": coordinator})
        if already_aborted:
            self._send_state(coordinator, xid, protocol.STATE_ROLLBACKED)
        else:
            self._request(protocol.MSG_XA_ROLLBACK, xid, self._rolled_back,
                          coordinator, xid)

    def _rolled_back(self, coordinator: Optional[str], xid: str,
                     reply: Event) -> None:
        self._send_state(coordinator, xid, protocol.STATE_ROLLBACKED)

    def _on_peer_rollback(self, message: Message) -> None:
        """A peer agent told us to abort our branch of a failing transaction."""
        payload = message.payload or {}
        xid = payload["xid"]
        self.stats.peer_rollbacks_handled += 1
        # Poisoned even if an execute is here: one still paying its
        # forwarding cost would otherwise start a branch after this rollback.
        self._poison(xid)
        if xid in self._seen:
            self._request(protocol.MSG_XA_ROLLBACK, xid, self._rolled_back,
                          payload.get("coordinator"), xid)

    # ------------------------------------------------------------------ helpers
    def _remember(self, xid: str) -> None:
        """Record that this node holds (or was asked for) branch ``xid`` (bounded)."""
        if xid not in self._seen:
            self._track(xid)
            self._seen.add(xid)

    def _poison(self, xid: str) -> None:
        """Mark a transaction as aborted-by-peer (bounded)."""
        if xid not in self._poisoned:
            if xid not in self._seen:
                self._track(xid)
            self._poisoned.add(xid)

    def _track(self, xid: str) -> None:
        """Enter an id into the retention FIFO, forgetting the oldest ids.

        Retention only needs to outlast a transaction's in-flight window (the
        client pool bounds concurrency far below the cap of 4096), so
        forgetting the oldest ids never touches a live transaction.  A stale
        peer rollback for a forgotten id takes the poison path, exactly as if
        the rollback had arrived before the execute.
        """
        retention = self.XID_RETENTION
        order = self._xid_order
        order.append(xid)
        while len(order) > retention:
            old = order.popleft()
            self._seen.discard(old)
            self._poisoned.discard(old)

    def _send_state(self, coordinator: Optional[str], xid: str, state: str) -> None:
        if not coordinator:
            return
        self.net.send(coordinator, protocol.MSG_AGENT_PREPARE_RESULT,
                      {"xid": xid, "datasource": self.datasource, "state": state})


def _coordinator(message: Message) -> str:
    """Where a GeoTP request's state reports go: its coordinator, else its sender."""
    return message.payload.get("coordinator", message.sender)
