"""The GeoTP coordinator: latency-aware geo-distributed transaction processing.

This is the paper's contribution assembled from its three techniques:

* **O1 — decentralized prepare & early abort** (§IV-A): the coordinator talks to
  geo-agents instead of raw data sources; statement batches carrying the
  last-statement annotation trigger the prepare phase at the agent, and the
  coordinator merely waits for the asynchronous votes before the commit round
  trip.  On execution failure the agents abort each other directly.
* **O2 — latency-aware scheduling** (§IV-B): per interaction round, dispatch of
  each participant's batch is postponed by ``max_s tau_s - tau_j`` so that fast
  links stop holding locks while waiting for slow links.
* **O3 — high-contention optimizations** (§IV-C): the hotspot footprint and the
  local-execution-latency forecaster refine the postponement with predicted
  data-source-side latencies, and the late transaction scheduler blocks or
  sheds transactions that are very likely to abort on hot records.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.common import AbortReason, SubtxnResult, TxnOutcome
from repro import protocol
from repro.core.admission import LateTransactionScheduler
from repro.core.config import GeoTPConfig
from repro.core.forecasting import LocalExecutionForecaster
from repro.core.hotspot import HotspotFootprint
from repro.core.latency_monitor import NetworkLatencyMonitor
from repro.core.scheduler import GeoScheduler
from repro.middleware.context import TransactionContext, TransactionPhase
from repro.middleware.coordinator import TwoPhaseCommitCoordinator
from repro.middleware.middleware import MiddlewareConfig, ParticipantHandle
from repro.middleware.rewriter import SubtransactionPlan
from repro.middleware.router import Partitioner
from repro.plugins import BuildContext, SystemPlugin, register_system
from repro.sim import Environment, Event
from repro.sim.network import Message, Network
from repro.sim.rng import SeededRNG

#: Vote states that allow the transaction to commit.
_COMMITTABLE_STATES = {protocol.STATE_PREPARED, protocol.STATE_IDLE}
#: Vote states that terminate the prepare wait one way or the other.
_TERMINAL_STATES = {protocol.STATE_PREPARED, protocol.STATE_IDLE,
                    protocol.STATE_FAILURE, protocol.STATE_ROLLBACK_ONLY,
                    protocol.STATE_ROLLBACKED}


class _VoteBox:
    """Collects asynchronous per-participant state reports for one transaction."""

    def __init__(self, env: Environment):
        self.env = env
        self._history: Dict[str, List[str]] = {}
        self._waiters: List[Tuple[str, Set[str], Event]] = []

    def deliver(self, participant: str, state: str) -> None:
        """Record a state report and wake any matching waiters."""
        self._history.setdefault(participant, []).append(state)
        remaining = []
        for waited_participant, states, event in self._waiters:
            if waited_participant == participant and state in states and not event.triggered:
                event.succeed(state)
            else:
                remaining.append((waited_participant, states, event))
        self._waiters = remaining

    def states(self, participant: str) -> List[str]:
        """All states reported so far by ``participant``."""
        return list(self._history.get(participant, []))

    def wait_for(self, participant: str, states: Set[str]) -> Event:
        """Event firing once ``participant`` has reported any state in ``states``."""
        for state in self._history.get(participant, []):
            if state in states:
                event = Event(self.env)
                event.succeed(state)
                return event
        event = Event(self.env)
        self._waiters.append((participant, set(states), event))
        return event


class GeoTPCoordinator(TwoPhaseCommitCoordinator):
    """GeoTP middleware coordinator (O1 + O2 + O3, individually switchable)."""

    system_name = "GeoTP"

    def __init__(self, env: Environment, network: Network, config: MiddlewareConfig,
                 participants: Dict[str, ParticipantHandle], partitioner: Partitioner,
                 geotp_config: Optional[GeoTPConfig] = None,
                 rng: Optional[SeededRNG] = None):
        super().__init__(env, network, config, participants, partitioner)
        self.geotp = geotp_config or GeoTPConfig()
        self.rng = rng or SeededRNG(0)
        self.latency_monitor = NetworkLatencyMonitor(env, alpha=self.geotp.ewma_alpha)
        self.footprint = HotspotFootprint(capacity=self.geotp.hotspot_capacity,
                                          alpha=self.geotp.hotspot_alpha)
        self.forecaster = LocalExecutionForecaster(self.footprint,
                                                   scale=self.geotp.forecast_scale,
                                                   cap_ms=self.geotp.forecast_cap_ms)
        self.scheduler = GeoScheduler(
            self.latency_monitor, self.forecaster,
            use_forecast=self.geotp.enable_high_contention_optimization)
        self.admission = LateTransactionScheduler(
            self.footprint, self.rng,
            max_retries=self.geotp.admission_max_retries,
            backoff_ms=self.geotp.admission_backoff_ms,
            threshold=self.geotp.admission_threshold)
        self._vote_boxes: Dict[str, _VoteBox] = {}
        self._endpoints = {name: handle.endpoint
                           for name, handle in self.participants.items()}
        # Prime latency estimates with the nominal topology RTTs so the first
        # transactions are scheduled sensibly before any measurement exists.
        for name, handle in self.participants.items():
            self.latency_monitor.prime(name, self.network.rtt(self.name, handle.endpoint))

    # ------------------------------------------------------------------ wiring
    def start_probing(self) -> None:
        """Start the active latency probe loop (optional, Figure 11b)."""
        self.latency_monitor.start_probing(self.net, self._endpoints,
                                           interval_ms=self.geotp.probe_interval_ms)

    def record_network_rtt(self, participant: str, rtt_ms: float) -> None:
        self.latency_monitor.record(participant, rtt_ms)

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
        txn_id = payload.get("global_txn_id")
        participant = payload.get("datasource")
        state = payload.get("state")
        if txn_id is None or participant is None or state is None:
            return
        box = self._vote_boxes.get(txn_id)
        if box is not None:
            box.deliver(participant, state)

    # -------------------------------------------------------------------- hooks
    def admit(self, ctx: TransactionContext):
        """O3 late transaction scheduling: block/shed likely-aborting transactions."""
        records = ctx.spec.record_ids()
        if not self.geotp.enable_high_contention_optimization:
            self.footprint.on_access_start(records)
            return (True, None)
        decision = yield from self.admission.admit(self.env, records)
        if not decision.admitted:
            return (False, AbortReason.ADMISSION_BLOCKED)
        self.footprint.on_access_start(records)
        return (True, None)

    def schedule_round(self, ctx: TransactionContext,
                       plans: Dict[str, SubtransactionPlan],
                       is_final_round: bool) -> Dict[str, float]:
        """O2/O3: postpone dispatch on low-latency participants (Eq. 3 / Eq. 8)."""
        if not self.geotp.enable_latency_aware_scheduling or len(plans) < 2:
            return {name: 0.0 for name in plans}
        return self.scheduler.schedule(
            {name: plan.record_ids for name, plan in plans.items()}).delays

    def execute_payload(self, ctx: TransactionContext, plan: SubtransactionPlan,
                        is_final_round: bool) -> Dict:
        # The agent forwards this payload to its data source as it is (the
        # data source reads only the base keys), so it is built exactly once.
        payload = super().execute_payload(ctx, plan, is_final_round)
        payload["coordinator"] = self.name
        payload["peers"] = self._peers(ctx, plan.datasource)
        # The final interaction round plays the role of the annotated last
        # statement (the workloads annotate it explicitly; the middleware
        # also knows it is final because the client submitted the spec).
        payload["is_last"] = is_final_round
        payload["decentralized_prepare"] = self.geotp.enable_decentralized_prepare
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
        records = ctx.spec.record_ids()
        self.footprint.on_access_end(records, committed=outcome is TxnOutcome.COMMITTED)
        self._vote_boxes.pop(ctx.txn_id, None)
        self.stats.metadata_bytes = (self.footprint.memory_bytes()
                                     + self.latency_monitor.memory_bytes())

    # -------------------------------------------------------------- subtxn send
    def _fan_out(self, ctx: TransactionContext, plans: List[SubtransactionPlan],
                 delays: Dict[str, float], is_final_round: bool,
                 verb: str = protocol.MSG_EXECUTE) -> Event:
        """Under O1 a round travels through the geo-agents (``agent_execute``)."""
        if self.geotp.enable_decentralized_prepare:
            verb = protocol.MSG_AGENT_EXECUTE
            self._vote_box(ctx)  # the box must exist before any vote can arrive
            if is_final_round:
                self._notify_unplanned_participants(
                    ctx, {plan.datasource for plan in plans})
        return super()._fan_out(ctx, plans, delays, is_final_round, verb)

    def _notify_unplanned_participants(self, ctx: TransactionContext,
                                       planned: Set[str]) -> None:
        """Tell participants with no statement in the final round to prepare now."""
        for name in ctx.participants:
            if name in planned:
                continue
            self.send_participant(self.participants[name], protocol.MSG_AGENT_PREPARE, {
                "xid": ctx.branch_xid(name),
                "global_txn_id": ctx.txn_id,
                "coordinator": self.name,
                "peers": self._peers(ctx, name),
            })

    # ------------------------------------------------------------------- commit
    def _commit_distributed(self, ctx: TransactionContext):
        """O1: wait for the decentralized prepare votes, then one commit round trip."""
        if not self.geotp.enable_decentralized_prepare:
            return (yield from super()._commit_distributed(ctx))

        box = self._vote_box(ctx)
        waits = [box.wait_for(name, _TERMINAL_STATES) for name in ctx.participants]
        condition = yield self.env.all_of(waits)
        states = {name: condition[event] for name, event in zip(ctx.participants, waits)}
        ready = all(state in _COMMITTABLE_STATES for state in states.values())

        yield from self._flush_decision_log(ctx, commit=ready)
        ctx.enter_phase(TransactionPhase.COMMIT, self.env.now)
        if ready:
            yield from self._dispatch_decision(ctx, protocol.MSG_XA_COMMIT)
            return TxnOutcome.COMMITTED, None
        yield from self._await_rollbacks(ctx)
        return TxnOutcome.ABORTED, AbortReason.PREPARE_FAILED

    def _abort_all(self, ctx: TransactionContext):
        """Early abort (O1): the agents already aborted each other; await confirmation."""
        early_abort_active = (self.geotp.enable_decentralized_prepare
                              and self.geotp.enable_early_abort
                              and len(ctx.participants) > 1)
        if not early_abort_active:
            return (yield from super()._abort_all(ctx))
        ctx.enter_phase(TransactionPhase.COMMIT, self.env.now)
        yield from self._flush_decision_log(ctx, commit=False)
        yield from self._await_rollbacks(ctx)

    def _await_rollbacks(self, ctx: TransactionContext):
        """Wait for every participant to confirm its branch rolled back."""
        box = self._vote_box(ctx)
        waits = [box.wait_for(name, {protocol.STATE_ROLLBACKED})
                 for name in ctx.participants]
        yield self.env.all_of(waits)


# ------------------------------------------------------------------- plugin
def _build(ctx: BuildContext) -> GeoTPCoordinator:
    return GeoTPCoordinator(ctx.env, ctx.network, ctx.middleware_config,
                            ctx.participants, ctx.partitioner,
                            geotp_config=ctx.geotp_config,
                            rng=SeededRNG(ctx.seed))


register_system(SystemPlugin(
    name="geotp",
    description="GeoTP: decentralized prepare + latency-aware scheduling "
                "+ high-contention optimizations (the paper's system)",
    builder=_build,
    needs_agents=True,
    supports_active_probing=True,
    ablations={
        "o1": lambda: GeoTPConfig().ablation_o1(),
        "o1_o2": lambda: GeoTPConfig().ablation_o1_o2(),
        "o1_o3": lambda: GeoTPConfig().ablation_o1_o3(),
    },
))
