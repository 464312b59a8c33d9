"""ScalarDB+: ScalarDB extended with GeoTP's scheduling and heuristics (§VII-A1).

The paper builds this variant to show that the proposed techniques generalise
beyond ShardingSphere: the latency-aware scheduler postpones the per-data-source
read batches so their round trips finish together (shrinking the window in
which optimistic conflicts can occur), and the late transaction scheduler
blocks transactions that are very likely to fail validation on hot records.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.scalardb import ScalarDBCoordinator
from repro.core.geotp import LatencyAwareMixin
from repro.middleware.context import TransactionContext
from repro.plugins import SystemPlugin, register_system


class ScalarDBPlusCoordinator(LatencyAwareMixin, ScalarDBCoordinator):
    """ScalarDB with latency-aware scheduling and admission control."""

    system_name = "ScalarDB+"

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
        delays = self._postponements(records_by_participant)
        processes = [self.env.process(
            self._read_batch(name, ops, delays.get(name, 0.0)),
            name=f"{ctx.txn_id}:scalardb+:{name}")
            for name, ops in by_participant.items()]
        condition = yield self.env.all_of(processes)
        versions = {}
        for process in processes:
            if condition[process] is None:
                return None
            versions.update(condition[process])
        return versions

    def on_transaction_settled(self, ctx: TransactionContext, committed: bool) -> None:
        records = ctx.spec.record_ids()
        self.footprint.on_access_end(records, committed=committed)
        # Approximate per-record latency with the transaction's prepare-phase
        # duration (the window in which optimistic conflicts materialise).
        prepare_ms = ctx.phase_durations.get("prepare", 0.0)
        if records and prepare_ms > 0:
            self.footprint.update_latency(records, prepare_ms)
        self._record_metadata_bytes()


# ------------------------------------------------------------------- plugin
register_system(SystemPlugin(
    name="scalardb_plus",
    description="ScalarDB extended with GeoTP's scheduling and admission control",
    aliases=("scalardb+", "scalardbplus"),
    coordinator=ScalarDBPlusCoordinator,
))
