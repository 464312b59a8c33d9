"""Base middleware node: transaction intake, bookkeeping and statistics.

:class:`MiddlewareBase` owns everything that is common to every coordinator in
the reproduction — SSP, SSP(local), ScalarDB, QURO, Chiller and GeoTP — namely
the network endpoint, the rewriter/router, transaction-id assignment, the
decision log, per-phase accounting and the resource counters that substitute
for the paper's CPU/memory measurements (Figure 6).  It charges every
transaction's analysis, runs the subclass's ``_run_transaction`` (the
coordination protocol) and settles the transaction.  A system changes three
decisions through one hook each: ``admit`` (may it run), ``postponements``
(when each round's batches leave) and ``on_transaction_finished`` (what it
leaves behind, on every exit).  :class:`Replies` is the one way a
coordinator waits for N replies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.common import COSTS, AbortReason, TransactionResult, TxnOutcome
from repro.middleware.context import TransactionContext, TransactionPhase
from repro.middleware.rewriter import Rewriter
from repro.middleware.router import Partitioner
from repro.middleware.statements import TransactionSpec
from repro.sim import Environment, Event, Interrupt, Process
from repro.sim.network import Message, Network, NetworkInterface
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # annotation only: repro.core imports this module
    from repro.core.config import GeoTPConfig


@dataclass(slots=True)
class ParticipantHandle:
    """How the middleware reaches one data source.

    ``endpoint`` is the network node the coordinator actually talks to: the
    data source itself for kernel-direct systems (SSP and friends), or the
    co-located geo-agent for GeoTP.
    """

    name: str
    endpoint: str


class Replies:
    """``n`` reply slots and one ``done`` event that fires, once every slot is
    filled, with the values in slot order: every N-way wait of a coordinator
    round (execute fan-out, prepare votes, decision acks, key-value reads and
    conditional writes) gathers through one of these."""

    __slots__ = ("values", "missing", "done")

    def __init__(self, env: Environment, n: int):
        self.values: List[Any] = [None] * n
        self.missing = n
        self.done = Event(env)
        if not n:
            self.done.succeed(self.values)

    def put(self, index: int, value: Any) -> None:
        """Fill slot ``index``; the last slot filled fires ``done``."""
        self.values[index] = value
        self.missing -= 1
        if not self.missing:
            self.done.succeed(self.values)

    def watch(self, index: int, reply: Event) -> None:
        """Fill slot ``index`` with ``reply``'s value once it is processed
        (at once if it already is, e.g. a lock's shared granted event)."""
        if reply.callbacks is None:
            self.put(index, reply.value)
        else:
            reply.callbacks.append(partial(self._collect, index))

    def _collect(self, index: int, reply: Event) -> None:
        self.put(index, reply.value)


class MiddlewareStats:
    """Throughput/abort counters plus resource-accounting proxies.

    ``work_units`` counts coordination actions (messages sent plus statements
    routed); it stands in for CPU utilisation in the Figure 6a reproduction.
    ``metadata_bytes`` approximates the extra memory a middleware keeps
    (GeoTP's hotspot footprint reports into it).
    """

    __slots__ = ("submitted", "committed", "aborted", "work_units",
                 "metadata_bytes", "wan_messages")

    def __init__(self) -> None:
        self.submitted = 0
        self.committed = 0
        self.aborted = 0
        self.work_units = 0
        self.metadata_bytes = 0
        self.wan_messages = 0

    def record_outcome(self, result: TransactionResult) -> None:
        if result.committed:
            self.committed += 1
        else:
            self.aborted += 1


class MiddlewareBase:
    """Common machinery shared by every coordinator implementation."""

    #: Human-readable system name ("SSP", "GeoTP", ...), set by subclasses.
    system_name = "base"

    def __init__(self, env: Environment, network: Network, name: str,
                 participants: Dict[str, ParticipantHandle], partitioner: Partitioner,
                 *, geotp_config: Optional[GeoTPConfig] = None, seed: int = 0):
        # ``geotp_config`` and ``seed`` are read by the latency-aware
        # coordinators only; taking them here gives every system one
        # constructor.
        self.env = env
        self.network = network
        self.name = name
        self.participants = dict(participants)
        self.partitioner = partitioner
        self.rewriter = Rewriter(partitioner)
        self.net: NetworkInterface = network.interface(name)
        self.wal = WriteAheadLog()
        self.stats = MiddlewareStats()
        self.active_contexts: Dict[str, TransactionContext] = {}
        #: Live coordinator processes by transaction id; the fault injector
        #: interrupts these when it crashes the middleware.
        self.active_processes: Dict[str, Process] = {}
        self._txn_counter = count(1)
        self.crashed = False
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
        yield COSTS.middleware_request_ms
        result = TransactionResult(
            txn_id=txn_id, outcome=TxnOutcome.ABORTED,
            start_time=submitted_at, end_time=self.env.now,
            is_distributed=False, abort_reason=AbortReason.UNAVAILABLE,
            rejected=True)
        self.stats.record_outcome(result)
        return result

    def _coordinate(self, ctx: TransactionContext):
        try:
            # Analysis: parse and route the statements.
            yield COSTS.analysis_ms
            self.stats.work_units += ctx.spec.statement_count
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
        )
        self.stats.record_outcome(result)
        return result

    def _run_transaction(self, ctx: TransactionContext):
        """Coordinate one analysed transaction; yield events, return
        (outcome, abort_reason).  It calls :meth:`admit` where the protocol
        admits."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for subclass symmetry

    # ------------------------------------------------------------------ hooks
    def admit(self, ctx: TransactionContext):
        """Admission control (GeoTP's O3 late transaction scheduling).

        A generator returning whether ``ctx`` may run; a refused transaction
        aborts with ``ADMISSION_BLOCKED``.  The base admits every transaction.
        """
        return True
        yield  # pragma: no cover - makes this a generator

    def postponements(self, records_by_participant: Dict[str, List]) -> Dict[str, float]:
        """Dispatch postponement in ms of each participant's batch of one
        round (GeoTP's O2/O3), given the record ids per participant; a
        participant left out is not postponed.  The base postpones none."""
        return {}

    def on_transaction_finished(self, ctx: TransactionContext, outcome: TxnOutcome,
                                reason: Optional[AbortReason]) -> None:
        """Hook invoked once per transaction just before the result is built.

        The one end-of-transaction hook: it runs on every exit, a crash's
        ``Interrupt`` included.  The latency-aware coordinators settle their
        hotspot statistics here; the base does nothing.
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
