"""QURO: contention-aware operation reordering (Yan & Cheung, VLDB 2016).

QURO preprocesses the application's transaction code so that operations on
highly contended records — in practice, the exclusive-lock acquisitions of
writes — are issued as late as possible, shortening the time those locks are
held.  It has no notion of network latency, which is why the paper finds it
helps over SSP but falls behind latency-aware approaches in geo-distributed
settings.

The reordering is applied to the submitted transaction spec: within each
interaction round reads are issued first and writes last (writes flagged as
hot are pushed to the very end), preserving the relative order within each
class.  Coordination afterwards is plain middleware XA, identical to SSP.
"""

from __future__ import annotations

from typing import List

from repro.middleware.coordinator import TwoPhaseCommitCoordinator
from repro.middleware.statements import Statement, TransactionSpec
from repro.sim import Process
from repro.plugins import BuildContext, SystemPlugin, register_system


def reorder_statements(statements: List[Statement]) -> List[Statement]:
    """Reads first, writes last, hot-hinted writes very last (stable order)."""
    reads = [s for s in statements if not s.operation.is_write]
    cold_writes = [s for s in statements
                   if s.operation.is_write and not s.operation.is_hot_hint]
    hot_writes = [s for s in statements
                  if s.operation.is_write and s.operation.is_hot_hint]
    return reads + cold_writes + hot_writes


def reorder_spec(spec: TransactionSpec) -> TransactionSpec:
    """A new spec with every round reordered the QURO way."""
    rounds = [reorder_statements(list(round_)) for round_ in spec.rounds]
    reordered = TransactionSpec(rounds=rounds, txn_type=spec.txn_type,
                                metadata=dict(spec.metadata))
    reordered.mark_last_statements()
    return reordered


class QUROCoordinator(TwoPhaseCommitCoordinator):
    """SSP coordination over QURO-preprocessed transactions."""

    system_name = "QURO"

    def submit(self, spec: TransactionSpec) -> Process:
        return super().submit(reorder_spec(spec))


# ------------------------------------------------------------------- plugin
def _build(ctx: BuildContext) -> QUROCoordinator:
    return QUROCoordinator(ctx.env, ctx.network, ctx.middleware_config,
                           ctx.participants, ctx.partitioner)


register_system(SystemPlugin(
    name="quro",
    description="QURO contention-aware operation reordering over middleware XA",
    builder=_build,
))
