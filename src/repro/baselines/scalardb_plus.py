"""ScalarDB+: ScalarDB extended with GeoTP's scheduling and heuristics (§VII-A1).

The paper builds this variant to show that the proposed techniques generalise
beyond ShardingSphere: the latency-aware scheduler postpones the per-data-source
read batches so their round trips finish together (shrinking the window in
which optimistic conflicts can occur), and the late transaction scheduler
blocks transactions that are very likely to fail validation on hot records.
"""

from __future__ import annotations

from typing import Dict, List

from repro import protocol
from repro.baselines.scalardb import ScalarDBCoordinator, _read_image
from repro.common import Operation
from repro.core.geotp import LatencyAwareMixin
from repro.middleware.context import TransactionContext
from repro.middleware.middleware import Replies
from repro.plugins import SystemPlugin, register_system


class ScalarDBPlusCoordinator(LatencyAwareMixin, ScalarDBCoordinator):
    """ScalarDB with latency-aware scheduling and admission control."""

    system_name = "ScalarDB+"

    def _execute_round_ops(self, ctx: TransactionContext, operations):
        """Latency-aware execution: per-participant batches, postponed per Eq. (3).

        ScalarDB+ replaces the one-operation-at-a-time storage access of plain
        ScalarDB with per-data-source batches whose dispatch is postponed so
        that all batches finish together — the same scheduling idea GeoTP uses,
        which both shortens the transaction and narrows the window in which
        optimistic validation conflicts accumulate.
        """
        by_participant: Dict[str, List[Operation]] = {}
        for operation in operations:
            participant = self.partitioner.locate(operation.table, operation.key)
            by_participant.setdefault(participant, []).append(operation)
        delays = self.postponements({
            name: [op.record_id for op in ops]
            for name, ops in by_participant.items()})
        reads = Replies(self.env, len(operations))
        in_slot_order: List[Operation] = []
        for name, ops in by_participant.items():
            delay_ms = delays.get(name, 0.0)
            if delay_ms > 0:
                self.env.call_at(delay_ms, self._send_reads, reads,
                                 len(in_slot_order), name, ops)
            else:
                self._send_reads(reads, len(in_slot_order), name, ops)
            in_slot_order.extend(ops)
        replies = yield reads.done
        images = {}
        for operation, reply in zip(in_slot_order, replies):
            image = _read_image(reply)
            if image is None:
                return None
            images[operation.record_id] = image
        return images

    def _send_reads(self, reads: Replies, first: int, participant: str,
                    operations: List[Operation]) -> None:
        """Send one participant's reads; they fill ``reads`` from slot ``first``."""
        handle = self.participants[participant]
        for index, operation in enumerate(operations, first):
            reads.watch(index, self.request_participant(
                handle, protocol.MSG_KV_GET,
                {"table": operation.table, "key": operation.key}))

    def settled_latency_ms(self, ctx: TransactionContext) -> float:
        # Approximate per-record latency with the transaction's prepare-phase
        # duration (the window in which optimistic conflicts materialise).
        return ctx.phase_durations.get("prepare", 0.0)


# ------------------------------------------------------------------- plugin
register_system(SystemPlugin(
    name="scalardb_plus",
    description="ScalarDB extended with GeoTP's scheduling and admission control",
    aliases=("scalardb+", "scalardbplus"),
    coordinator=ScalarDBPlusCoordinator,
))
