"""QURO: contention-aware operation reordering (Yan & Cheung, VLDB 2016).

QURO preprocesses the application's transaction code so that operations on
highly contended records — in practice, the exclusive-lock acquisitions of
writes — are issued as late as possible, shortening the time those locks are
held.  It has no notion of network latency, which is why the paper finds it
helps over SSP but falls behind latency-aware approaches in geo-distributed
settings.

The reordering is applied to each interaction round as it is executed: reads
are issued first and writes last (writes flagged as hot are pushed to the very
end), preserving the relative order within each class.  Coordination is
otherwise plain middleware XA, identical to SSP.
"""

from __future__ import annotations

from typing import List

from repro.common import Operation
from repro.middleware.context import TransactionContext
from repro.middleware.coordinator import TwoPhaseCommitCoordinator
from repro.plugins import SystemPlugin, register_system


def reorder_statements(operations: List[Operation]) -> List[Operation]:
    """Reads first, writes last, hot-hinted writes very last (stable order)."""
    reads = [op for op in operations if not op.is_write]
    cold_writes = [op for op in operations if op.is_write and not op.is_hot_hint]
    hot_writes = [op for op in operations if op.is_write and op.is_hot_hint]
    return reads + cold_writes + hot_writes


class QUROCoordinator(TwoPhaseCommitCoordinator):
    """SSP coordination over QURO-reordered rounds."""

    system_name = "QURO"

    def _execute_round(self, ctx: TransactionContext, operations: List[Operation],
                       is_final_round: bool):
        return super()._execute_round(ctx, reorder_statements(operations),
                                      is_final_round)


# ------------------------------------------------------------------- plugin
register_system(SystemPlugin(
    name="quro",
    description="QURO contention-aware operation reordering over middleware XA",
    coordinator=QUROCoordinator,
))
