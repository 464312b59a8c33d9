"""The GeoTP coordinator: latency-aware geo-distributed transaction processing.

This is the paper's contribution assembled from its three techniques:

* **O1 — decentralized prepare & early abort** (§IV-A): the coordinator talks to
  geo-agents instead of raw data sources; the final round's statement batches
  carry the last-statement flag that triggers the prepare phase at the agent,
  and the coordinator merely waits for the asynchronous votes before the
  commit round trip.  On execution failure the agents abort each other directly.
* **O2 — latency-aware scheduling** (§IV-B): per interaction round, dispatch of
  each participant's batch is postponed by ``max_s tau_s - tau_j`` so that fast
  links stop holding locks while waiting for slow links.
* **O3 — high-contention optimizations** (§IV-C): the hotspot footprint and the
  local-execution-latency forecaster refine the postponement with predicted
  data-source-side latencies, and the late transaction scheduler blocks or
  sheds transactions that are very likely to abort on hot records.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.common import AbortReason, SubtxnResult, TxnOutcome
from repro import protocol
from repro.core.admission import LateTransactionScheduler
from repro.core.config import GeoTPConfig
from repro.core.forecasting import LocalExecutionForecaster
from repro.core.hotspot import HotspotFootprint
from repro.core.latency_monitor import NetworkLatencyMonitor
from repro.core.scheduler import GeoScheduler
from repro.middleware.context import TransactionContext
from repro.middleware.coordinator import TwoPhaseCommitCoordinator
from repro.middleware.middleware import ParticipantHandle, Replies
from repro.middleware.rewriter import SubtransactionPlan
from repro.middleware.router import Partitioner
from repro.plugins import SystemPlugin, register_system
from repro.sim import Environment, Event
from repro.sim.network import Message, Network
from repro.sim.rng import SeededRNG

#: Vote states that allow the transaction to commit.
_COMMITTABLE_STATES = {protocol.STATE_PREPARED, protocol.STATE_IDLE}
#: Vote states that terminate the prepare wait one way or the other.
_TERMINAL_STATES = {protocol.STATE_PREPARED, protocol.STATE_IDLE,
                    protocol.STATE_FAILURE, protocol.STATE_ROLLBACK_ONLY,
                    protocol.STATE_ROLLBACKED}
#: The one state that ends a wait for rollback confirmations.
_ROLLED_BACK = {protocol.STATE_ROLLBACKED}


class _VoteBox:
    """Collects asynchronous per-participant state reports for one transaction.

    The coordinator waits on at most one set of participants at a time (the
    prepare votes, then the rollback confirmations); each waited participant's
    first report in the awaited states fills its slot of one :class:`Replies`.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._history: Dict[str, List[str]] = {}
        self._replies: Optional[Replies] = None
        self._awaited: Set[str] = set()
        #: Waited participant -> its slot, until it reports an awaited state.
        self._slots: Dict[str, int] = {}

    def deliver(self, participant: str, state: str) -> None:
        """Record a state report and fill the participant's slot if awaited."""
        self._history.setdefault(participant, []).append(state)
        if state in self._awaited and participant in self._slots:
            self._replies.put(self._slots.pop(participant), state)

    def expect(self, participants: List[str], states: Set[str]) -> Event:
        """Event firing, with one state per participant in order, once each of
        ``participants`` has reported any state in ``states``."""
        replies = self._replies = Replies(self.env, len(participants))
        self._awaited = states
        self._slots = {}
        for index, participant in enumerate(participants):
            reported = next((state for state in self._history.get(participant, ())
                             if state in states), None)
            if reported is None:
                self._slots[participant] = index
            else:
                replies.put(index, reported)
        return replies.done


class LatencyAwareMixin:
    """O2/O3 on a coordinator: GeoTP's, and ScalarDB+'s reuse of it (§VII-A1).

    Builds the latency monitor, hotspot footprint, forecaster, geo-scheduler
    and late transaction scheduler from one :class:`GeoTPConfig` and owns
    three decisions: it admits transactions through the late transaction
    scheduler (whose random draws come from ``seed``), postpones each round's
    batches through the geo-scheduler, and settles the footprint when a
    transaction finishes.  It feeds the monitor with passive RTT samples.
    List it before the coordinator base class.
    """

    def __init__(self, env: Environment, network: Network, name: str,
                 participants: Dict[str, ParticipantHandle], partitioner: Partitioner,
                 *, geotp_config: Optional[GeoTPConfig] = None, seed: int = 0):
        super().__init__(env, network, name, participants, partitioner)
        self.geotp = geotp_config or GeoTPConfig()
        self.rng = SeededRNG(seed)
        self.latency_monitor = NetworkLatencyMonitor(env, alpha=self.geotp.ewma_alpha)
        self.footprint = HotspotFootprint(capacity=self.geotp.hotspot_capacity)
        self.forecaster = LocalExecutionForecaster(self.footprint,
                                                   scale=self.geotp.forecast_scale,
                                                   cap_ms=self.geotp.forecast_cap_ms)
        self.scheduler = GeoScheduler(
            self.latency_monitor, self.forecaster,
            use_forecast=self.geotp.enable_high_contention_optimization)
        self.admission = LateTransactionScheduler(
            self.footprint, self.rng,
            max_retries=self.geotp.admission_max_retries,
            threshold=self.geotp.admission_threshold)
        # Prime latency estimates with the nominal topology RTTs so the first
        # transactions are scheduled sensibly before any measurement exists.
        for name, handle in self.participants.items():
            self.latency_monitor.prime(name, self.network.rtt(self.name, handle.endpoint))

    def record_network_rtt(self, participant: str, rtt_ms: float) -> None:
        self.latency_monitor.record(participant, rtt_ms)

    def admit(self, ctx: TransactionContext):
        """O3 late transaction scheduling: block or shed a transaction likely
        to abort on hot records; an admitted one starts its accesses."""
        records = ctx.spec.record_ids()
        if self.geotp.enable_high_contention_optimization:
            decision = yield from self.admission.admit(self.env, records)
            if not decision.admitted:
                return False
        self.footprint.on_access_start(records)
        return True

    def postponements(self, records_by_participant: Dict[str, List]) -> Dict[str, float]:
        """O2/O3: postpone dispatch on low-latency participants (Eq. 3 / Eq. 8)."""
        if (not self.geotp.enable_latency_aware_scheduling
                or len(records_by_participant) < 2):
            return {}
        return self.scheduler.schedule(records_by_participant).delays

    def settled_latency_ms(self, ctx: TransactionContext) -> float:
        """Latency sample folded into the records' ``w_lat`` when ``ctx``
        settles (0: none).  GeoTP samples each round's latency instead."""
        return 0.0

    def on_transaction_finished(self, ctx: TransactionContext, outcome: TxnOutcome,
                                reason: Optional[AbortReason]) -> None:
        """O3's settlement, on every exit: end the accesses (``a_cnt``),
        fold in the latency sample, then record the metadata bytes."""
        records = ctx.spec.record_ids()
        self.footprint.on_access_end(records, committed=outcome is TxnOutcome.COMMITTED)
        latency_ms = self.settled_latency_ms(ctx)
        if latency_ms > 0:
            self.footprint.update_latency(records, latency_ms)
        self.stats.metadata_bytes = (self.footprint.memory_bytes()
                                     + self.latency_monitor.memory_bytes())


class GeoTPCoordinator(LatencyAwareMixin, TwoPhaseCommitCoordinator):
    """GeoTP middleware coordinator: O1 always, O2 and O3 individually switchable."""

    system_name = "GeoTP"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._vote_boxes: Dict[str, _VoteBox] = {}
        self._endpoints = {name: handle.endpoint
                           for name, handle in self.participants.items()}

    # ------------------------------------------------------------------ wiring
    def start_probing(self) -> None:
        """Start the active latency probe loop (optional, Figure 11b)."""
        self.latency_monitor.start_probing(self.net, self._endpoints)

    def _vote_box(self, ctx: TransactionContext) -> _VoteBox:
        box = self._vote_boxes.get(ctx.txn_id)
        if box is None:
            box = _VoteBox(self.env)
            self._vote_boxes[ctx.txn_id] = box
        return box

    def _on_message(self, message: Message) -> None:
        if message.msg_type != protocol.MSG_AGENT_PREPARE_RESULT:
            return
        payload = message.payload or {}
        txn_id = payload.get("xid")
        participant = payload.get("datasource")
        state = payload.get("state")
        if txn_id is None or participant is None or state is None:
            return
        box = self._vote_boxes.get(txn_id)
        if box is not None:
            box.deliver(participant, state)

    # -------------------------------------------------------------------- hooks
    def execute_payload(self, ctx: TransactionContext, plan: SubtransactionPlan,
                        is_final_round: bool) -> Dict:
        # The agent forwards this payload to its data source as it is (the
        # data source reads only the base keys), so it is built exactly once.
        payload = super().execute_payload(ctx, plan, is_final_round)
        payload["coordinator"] = self.name
        payload["peers"] = self._peers(ctx, plan.datasource)
        # The final interaction round plays the role of the paper's annotated
        # last statement: the client submitted the whole spec, so the
        # middleware knows which round is final.
        payload["is_last"] = is_final_round
        return payload

    def _peers(self, ctx: TransactionContext, participant: str) -> List[str]:
        """Agent endpoints of the transaction's other participants."""
        endpoints = self._endpoints
        return [endpoints[name] for name in ctx.participants if name != participant]

    def on_round_complete(self, ctx: TransactionContext,
                          results: List[SubtxnResult]) -> None:
        """Feed observed local execution latencies into the hotspot statistics."""
        for result in results:
            if result.records:
                self.footprint.update_latency(result.records,
                                              result.local_execution_ms)

    def on_transaction_finished(self, ctx: TransactionContext, outcome: TxnOutcome,
                                reason: Optional[AbortReason]) -> None:
        self._vote_boxes.pop(ctx.txn_id, None)
        super().on_transaction_finished(ctx, outcome, reason)

    # -------------------------------------------------------------- subtxn send
    def _fan_out(self, ctx: TransactionContext, plans: List[SubtransactionPlan],
                 delays: Dict[str, float], is_final_round: bool,
                 verb: str = protocol.MSG_EXECUTE) -> Event:
        """Under O1 a round travels through the geo-agents (``agent_execute``)."""
        self._vote_box(ctx)  # the box must exist before any vote can arrive
        if is_final_round:
            self._notify_unplanned_participants(
                ctx, {plan.datasource for plan in plans})
        return super()._fan_out(ctx, plans, delays, is_final_round,
                                protocol.MSG_AGENT_EXECUTE)

    def _notify_unplanned_participants(self, ctx: TransactionContext,
                                       planned: Set[str]) -> None:
        """Tell participants with no statement in the final round to prepare now."""
        for name in ctx.participants:
            if name in planned:
                continue
            self.send_participant(self.participants[name], protocol.MSG_AGENT_PREPARE, {
                "xid": ctx.txn_id,
                "coordinator": self.name,
                "peers": self._peers(ctx, name),
            })

    # ------------------------------------------------------------------- commit
    def _prepare_round(self, ctx: TransactionContext, names: List[str]):
        """O1: no prepare round trip — wait for the decentralized votes."""
        votes = yield self._vote_box(ctx).expect(names, _TERMINAL_STATES)
        return all(vote in _COMMITTABLE_STATES for vote in votes)

    def _dispatch_decision(self, ctx: TransactionContext, verb: str):
        """Early abort (O1): the agents already rolled a distributed
        transaction's branches back, so only await their confirmations."""
        if verb == protocol.MSG_XA_ROLLBACK and ctx.is_distributed:
            return (yield from self._await_rollbacks(ctx))
        return (yield from super()._dispatch_decision(ctx, verb))

    def _await_rollbacks(self, ctx: TransactionContext):
        """Wait for every participant to confirm its branch rolled back."""
        yield self._vote_box(ctx).expect(ctx.participants, _ROLLED_BACK)


# ------------------------------------------------------------------- plugin
register_system(SystemPlugin(
    name="geotp",
    description="GeoTP: decentralized prepare + latency-aware scheduling "
                "+ high-contention optimizations (the paper's system)",
    coordinator=GeoTPCoordinator,
    needs_agents=True,
))
