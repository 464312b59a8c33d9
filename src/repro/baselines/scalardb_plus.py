"""ScalarDB+: ScalarDB extended with GeoTP's scheduling and heuristics (§VII-A1).

The paper builds this variant to show that the proposed techniques generalise
beyond ShardingSphere: the latency-aware scheduler postpones the per-data-source
read batches so their round trips finish together (shrinking the window in
which optimistic conflicts can occur), and the late transaction scheduler
blocks transactions that are very likely to fail validation on hot records.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.scalardb import ScalarDBConfig, ScalarDBCoordinator
from repro.common import AbortReason
from repro.core.admission import LateTransactionScheduler
from repro.core.config import GeoTPConfig
from repro.core.forecasting import LocalExecutionForecaster
from repro.core.hotspot import HotspotFootprint
from repro.core.latency_monitor import NetworkLatencyMonitor
from repro.core.scheduler import GeoScheduler
from repro.middleware.context import TransactionContext
from repro.middleware.middleware import MiddlewareConfig, ParticipantHandle
from repro.middleware.router import Partitioner
from repro.sim import Environment
from repro.sim.network import Network
from repro.sim.rng import SeededRNG
from repro.plugins import BuildContext, SystemPlugin, register_system


class ScalarDBPlusCoordinator(ScalarDBCoordinator):
    """ScalarDB with latency-aware scheduling and admission control."""

    system_name = "ScalarDB+"

    def __init__(self, env: Environment, network: Network, config: MiddlewareConfig,
                 participants: Dict[str, ParticipantHandle], partitioner: Partitioner,
                 scalardb_config: Optional[ScalarDBConfig] = None,
                 geotp_config: Optional[GeoTPConfig] = None,
                 rng: Optional[SeededRNG] = None):
        super().__init__(env, network, config, participants, partitioner,
                         scalardb_config=scalardb_config)
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
        for name, handle in self.participants.items():
            self.latency_monitor.prime(name, self.network.rtt(self.name, handle.endpoint))

    def record_network_rtt(self, participant: str, rtt_ms: float) -> None:
        self.latency_monitor.record(participant, rtt_ms)

    def schedule_execution_delays(self, ctx: TransactionContext,
                                  records_by_participant: Dict[str, List]) -> Dict[str, float]:
        if (not self.geotp.enable_latency_aware_scheduling
                or len(records_by_participant) < 2):
            return {name: 0.0 for name in records_by_participant}
        return self.scheduler.schedule(records_by_participant).delays

    def _execute_round_ops(self, ctx: TransactionContext, statements):
        """Latency-aware execution: per-participant batches, postponed per Eq. (3).

        ScalarDB+ replaces the one-operation-at-a-time storage access of plain
        ScalarDB with per-data-source batches whose dispatch is postponed so
        that all batches finish together — the same scheduling idea GeoTP uses,
        which both shortens the transaction and narrows the window in which
        optimistic validation conflicts accumulate.
        """
        by_participant: Dict[str, List] = {}
        for stmt in statements:
            participant = self.partitioner.locate(stmt.operation.table,
                                                  stmt.operation.key)
            by_participant.setdefault(participant, []).append(stmt.operation)
        records_by_participant = {
            name: [op.record_id for op in ops]
            for name, ops in by_participant.items()}
        delays = self.schedule_execution_delays(ctx, records_by_participant)
        processes = [self.env.process(
            self._read_batch(name, ops, delays.get(name, 0.0)),
            name=f"{ctx.txn_id}:scalardb+:{name}")
            for name, ops in by_participant.items()]
        condition = yield self.env.all_of(processes)
        versions = {}
        for process in processes:
            versions.update(condition[process])
        return versions

    def admit(self, ctx: TransactionContext):
        records = ctx.spec.record_ids()
        if not self.geotp.enable_high_contention_optimization:
            self.footprint.on_access_start(records)
            return (True, None)
        decision = yield from self.admission.admit(self.env, records)
        if not decision.admitted:
            return (False, AbortReason.ADMISSION_BLOCKED)
        self.footprint.on_access_start(records)
        return (True, None)

    def on_transaction_settled(self, ctx: TransactionContext, committed: bool) -> None:
        records = ctx.spec.record_ids()
        self.footprint.on_access_end(records, committed=committed)
        # Approximate per-record latency with the transaction's prepare-phase
        # duration (the window in which optimistic conflicts materialise).
        prepare_ms = ctx.phase_durations.get("prepare", 0.0)
        if records and prepare_ms > 0:
            self.footprint.update_latency(records, prepare_ms)
        self.stats.metadata_bytes = (self.footprint.memory_bytes()
                                     + self.latency_monitor.memory_bytes())


# ------------------------------------------------------------------- plugin
def _build(ctx: BuildContext) -> ScalarDBPlusCoordinator:
    return ScalarDBPlusCoordinator(ctx.env, ctx.network, ctx.middleware_config,
                                   ctx.participants, ctx.partitioner,
                                   scalardb_config=ctx.scalardb_config,
                                   geotp_config=ctx.geotp_config,
                                   rng=SeededRNG(ctx.seed))


register_system(SystemPlugin(
    name="scalardb_plus",
    description="ScalarDB extended with GeoTP's scheduling and admission control",
    aliases=("scalardb+", "scalardbplus"),
    builder=_build,
))
