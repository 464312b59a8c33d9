"""Base middleware node: transaction intake, bookkeeping and statistics.

:class:`MiddlewareBase` owns everything that is common to every coordinator in
the reproduction — SSP, SSP(local), ScalarDB, QURO, Chiller and GeoTP — namely
the network endpoint, the rewriter/router, connection pools, transaction-id
assignment, per-phase accounting and the resource counters that substitute for
the paper's CPU/memory measurements (Figure 6).  Subclasses implement
``_run_transaction`` (the coordination protocol).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, Optional

from repro.common import AbortReason, TransactionResult, TxnOutcome
from repro.middleware.connection_pool import ConnectionPoolSet
from repro.middleware.context import TransactionContext, TransactionPhase
from repro.middleware.rewriter import Rewriter
from repro.middleware.router import Partitioner
from repro.middleware.statements import TransactionSpec
from repro.sim import Environment, Interrupt, Process
from repro.sim.network import Message, Network, NetworkInterface
from repro.storage.dialects import Dialect, MySQLDialect
from repro.storage.wal import WriteAheadLog


@dataclass(slots=True)
class ParticipantHandle:
    """How the middleware reaches one data source.

    ``endpoint`` is the network node the coordinator actually talks to: the
    data source itself for kernel-direct systems (SSP and friends), or the
    co-located geo-agent for GeoTP.
    """

    name: str
    endpoint: str
    dialect: Dialect = field(default_factory=MySQLDialect)
    #: Name of the raw data source node (== name); kept explicit for clarity
    #: when the endpoint is a geo-agent.
    datasource_node: Optional[str] = None

    def __post_init__(self) -> None:
        if self.datasource_node is None:
            self.datasource_node = self.name


@dataclass
class MiddlewareConfig:
    """Static configuration of a middleware node."""

    name: str = "dm"
    #: Cost of parsing/routing one transaction (the "Analysis" slice of Fig. 6c).
    analysis_cost_ms: float = 0.5
    #: Cost of flushing the commit/abort decision log (FlushLog in Alg. 1).
    log_flush_cost_ms: float = 1.0
    #: Per-message encode/decode overhead on the middleware.
    request_overhead_ms: float = 0.2
    connection_pool_capacity: int = 256


class MiddlewareStats:
    """Throughput/abort counters plus resource-accounting proxies.

    ``work_units`` counts coordination actions (messages sent plus statements
    routed); it stands in for CPU utilisation in the Figure 6a reproduction.
    ``metadata_bytes`` approximates the extra memory a middleware keeps
    (GeoTP's hotspot footprint reports into it).
    """

    __slots__ = ("submitted", "committed", "aborted", "work_units",
                 "metadata_bytes", "wan_messages", "aborts_by_reason")

    def __init__(self) -> None:
        self.submitted = 0
        self.committed = 0
        self.aborted = 0
        self.work_units = 0
        self.metadata_bytes = 0
        self.wan_messages = 0
        self.aborts_by_reason: Dict[str, int] = {}

    def record_outcome(self, result: TransactionResult) -> None:
        if result.committed:
            self.committed += 1
        else:
            self.aborted += 1
            if result.abort_reason is not None:
                key = result.abort_reason.value
                self.aborts_by_reason[key] = self.aborts_by_reason.get(key, 0) + 1


class MiddlewareBase:
    """Common machinery shared by every coordinator implementation."""

    #: Human-readable system name ("SSP", "GeoTP", ...), set by subclasses.
    system_name = "base"

    def __init__(self, env: Environment, network: Network, config: MiddlewareConfig,
                 participants: Dict[str, ParticipantHandle], partitioner: Partitioner):
        self.env = env
        self.network = network
        self.config = config
        self.name = config.name
        self.participants = dict(participants)
        self.partitioner = partitioner
        self.rewriter = Rewriter(partitioner)
        self.pools = ConnectionPoolSet(env, capacity=config.connection_pool_capacity)
        self.net: NetworkInterface = network.interface(config.name)
        self.wal = WriteAheadLog(flush_cost_ms=config.log_flush_cost_ms)
        self.stats = MiddlewareStats()
        self.active_contexts: Dict[str, TransactionContext] = {}
        #: Live coordinator processes by transaction id; the fault injector
        #: interrupts these when it crashes the middleware.
        self.active_processes: Dict[str, Process] = {}
        self._txn_counter = count(1)
        self.crashed = False
        # Direct-consumer inbox: asynchronous messages (decentralized prepare
        # votes, early-abort notices) are routed at delivery dispatch instead
        # of through a server loop's get-event round trip.
        self.net.inbox.set_consumer(self._dispatch_message)

    # ----------------------------------------------------------------- intake
    def submit(self, spec: TransactionSpec) -> Process:
        """Start processing a client transaction.

        Returns the coordinator process; its value is a
        :class:`~repro.common.TransactionResult`.  While the middleware is
        crashed the submission is refused after a connection-attempt delay
        (an aborted result with :attr:`~repro.common.AbortReason.UNAVAILABLE`)
        instead of being coordinated.
        """
        self.stats.submitted += 1
        txn_id = f"{self.name}-t{next(self._txn_counter)}"
        if self.crashed:
            return self.env.process(self._refuse(txn_id, spec))
        ctx = TransactionContext(txn_id=txn_id, spec=spec, submitted_at=self.env.now)
        self.active_contexts[txn_id] = ctx
        process = self.env.process(self._coordinate(ctx))
        if process.is_alive:
            self.active_processes[txn_id] = process
        return process

    def _refuse(self, txn_id: str, spec: TransactionSpec):
        """Fail a submission against a crashed middleware (connection refused)."""
        submitted_at = self.env.now
        yield self.config.request_overhead_ms
        result = TransactionResult(
            txn_id=txn_id, outcome=TxnOutcome.ABORTED,
            start_time=submitted_at, end_time=self.env.now,
            is_distributed=False, abort_reason=AbortReason.UNAVAILABLE,
            rejected=True)
        self.stats.record_outcome(result)
        return result

    def _coordinate(self, ctx: TransactionContext):
        try:
            outcome, reason = yield from self._run_transaction(ctx)
        except Interrupt:
            # The middleware crashed under this transaction: the coordinator
            # is gone, in-doubt branches are left for the recovery protocol,
            # and the client sees the connection drop.
            outcome, reason = TxnOutcome.ABORTED, AbortReason.UNAVAILABLE
        finally:
            self.active_contexts.pop(ctx.txn_id, None)
            self.active_processes.pop(ctx.txn_id, None)
        self.on_transaction_finished(ctx, outcome, reason)
        ctx.enter_phase(TransactionPhase.DONE, self.env.now)
        result = TransactionResult(
            txn_id=ctx.txn_id,
            outcome=outcome,
            start_time=ctx.submitted_at,
            end_time=self.env.now,
            is_distributed=ctx.is_distributed,
            abort_reason=reason,
            phase_breakdown=ctx.phase_durations,  # handed over: ctx is finished
            participant_count=max(len(ctx.participants), 1),
        )
        self.stats.record_outcome(result)
        return result

    def _run_transaction(self, ctx: TransactionContext):
        """Coordinate one transaction; yield events, return (outcome, abort_reason)."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for subclass symmetry

    def on_transaction_finished(self, ctx: TransactionContext, outcome: TxnOutcome,
                                reason: Optional[AbortReason]) -> None:
        """Hook invoked once per transaction just before the result is built.

        GeoTP uses it to settle its hotspot statistics; the base does nothing.
        """

    def record_network_rtt(self, participant: str, rtt_ms: float) -> None:
        """Hook fed with lightweight round-trip observations (commit acks).

        GeoTP's latency monitor overrides this; the base ignores the samples.
        """

    # ------------------------------------------------------------- networking
    def request_participant(self, handle: ParticipantHandle, msg_type: str, payload: Dict):
        """RPC to a participant endpoint, counting the coordination work."""
        self.stats.work_units += 1
        self.stats.wan_messages += 1
        return self.net.request(handle.endpoint, msg_type, payload)

    def timed_request_participant(self, handle: ParticipantHandle, msg_type: str,
                                  payload: Dict):
        """RPC whose round trip is reported to :meth:`record_network_rtt`.

        Only used for verbs with negligible server-side processing (prepare
        votes, commit acks) so the sample approximates the pure network RTT.
        """
        sent_at = self.env.now
        event = self.request_participant(handle, msg_type, payload)
        participant = handle.name

        def observe(_event) -> None:
            self.record_network_rtt(participant, self.env.now - sent_at)

        if event.callbacks is None:
            # The reply was already processed (an immediate local response):
            # the callback list is gone, so record the observation now instead
            # of silently dropping the sample.
            observe(event)
        else:
            event.callbacks.append(observe)
        return event

    def send_participant(self, handle: ParticipantHandle, msg_type: str, payload: Dict) -> None:
        """One-way message to a participant endpoint."""
        self.stats.work_units += 1
        self.stats.wan_messages += 1
        self.net.send(handle.endpoint, msg_type, payload)

    def participant_rtt(self, name: str) -> float:
        """Nominal network RTT from this middleware to participant ``name``."""
        handle = self.participants[name]
        return self.network.rtt(self.name, handle.endpoint)

    # ---------------------------------------------------------------- inbox
    def _dispatch_message(self, message: Message) -> None:
        """Route asynchronous messages (e.g. decentralized prepare votes)."""
        if not self.crashed:
            self._on_message(message)

    def _on_message(self, message: Message) -> None:
        """Handle an asynchronous message; the base coordinator expects none."""
        # Messages for transactions that already finished are ignored.
        return None
