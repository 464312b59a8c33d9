"""ScalarDB+: ScalarDB extended with GeoTP's scheduling and heuristics (§VII-A1).

The paper builds this variant to show that the proposed techniques generalise
beyond ShardingSphere: the latency-aware scheduler postpones the per-data-source
read batches so their round trips finish together (shrinking the window in
which optimistic conflicts can occur), and the late transaction scheduler
blocks transactions that are very likely to fail validation on hot records.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict

from repro import protocol
from repro.baselines.scalardb import ScalarDBCoordinator, _read_image
from repro.core.geotp import LatencyAwareMixin
from repro.middleware.context import TransactionContext
from repro.middleware.middleware import Replies
from repro.middleware.rewriter import SubtransactionPlan
from repro.plugins import SystemPlugin, register_system


class ScalarDBPlusCoordinator(LatencyAwareMixin, ScalarDBCoordinator):
    """ScalarDB with latency-aware scheduling and admission control."""

    system_name = "ScalarDB+"

    def _execute_round_ops(self, ctx: TransactionContext, operations,
                           plans: Dict[str, SubtransactionPlan], homes):
        """Latency-aware execution: per-participant batches, postponed per Eq. (3).

        ScalarDB+ replaces the one-operation-at-a-time storage access of plain
        ScalarDB with per-data-source batches whose dispatch is postponed so
        that all batches finish together — the same scheduling idea GeoTP uses,
        which both shortens the transaction and narrows the window in which
        optimistic validation conflicts accumulate.
        """
        delays = self.postponements(
            {name: plan.record_ids for name, plan in plans.items()})
        reads = Replies(self.env, len(operations))
        first = 0
        for name, plan in plans.items():
            delay_ms = delays.get(name, 0.0)
            if delay_ms > 0:
                self.env.call_at(delay_ms, self._send_reads, ctx, reads, first,
                                 plan)
            else:
                self._send_reads(ctx, reads, first, plan)
            first += len(plan.operations)
        replies = yield reads.done
        in_slot_order = chain.from_iterable(
            plan.record_ids for plan in plans.values())
        images = {}
        for record_id, reply in zip(in_slot_order, replies):
            image = _read_image(reply)
            if image is None:
                return None
            images[record_id] = image
        return images

    def _send_reads(self, ctx: TransactionContext, reads: Replies, first: int,
                    plan: SubtransactionPlan) -> None:
        """Send one plan's reads; they fill ``reads`` from slot ``first``."""
        if ctx.txn_id not in self.active_contexts:
            # Fenced: the coordinator crashed while this batch waited out its
            # postponement (a crash clears ``active_contexts``).  Send nothing.
            return
        handle = self.participants[plan.datasource]
        for index, operation in enumerate(plan.operations, first):
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
