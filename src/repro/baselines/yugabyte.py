"""A YugabyteDB-like geo-distributed database (the Figure 13 comparator).

YugabyteDB is not a middleware: the client connects to the nearest database
node, which acts as the query coordinator, and data is partitioned across the
nodes with transactional replication.  Two behaviours matter for the paper's
comparison and are modelled here:

* the coordinator is co-located with one of the data nodes (zero network cost
  to reach data stored there);
* single-shard transactions take a fast path — the final apply of provisional
  records happens asynchronously after the commit decision, so the client sees
  roughly one round trip.

Multi-shard transactions still pay a distributed commit (prepare + decision),
and there is no latency-aware scheduling, so under high contention remote lock
spans hurt it the same way they hurt SSP — which is where GeoTP wins in the
paper's Figure 13.
"""

from __future__ import annotations

from repro.common import AbortReason, TxnOutcome
from repro import protocol
from repro.middleware.context import TransactionContext, TransactionPhase
from repro.middleware.coordinator import TwoPhaseCommitCoordinator
from repro.plugins import SystemPlugin, register_system


class YugabyteCoordinator(TwoPhaseCommitCoordinator):
    """Distributed-database coordinator co-located with a data node."""

    system_name = "YugabyteDB"

    def _commit_centralized(self, ctx: TransactionContext):
        """Single-shard fast path: commit acknowledged after the decision is durable.

        The provisional-record apply is pushed to the data node asynchronously,
        so the client does not wait for the commit round trip.
        """
        name = ctx.participants[0]
        handle = self.participants[name]
        yield from self._flush_decision_log(ctx, commit=True)
        ctx.enter_phase(TransactionPhase.COMMIT, self.env.now)
        self.send_participant(handle, protocol.MSG_COMMIT_ONE_PHASE,
                              {"xid": ctx.txn_id})
        return TxnOutcome.COMMITTED, None

    def _commit_distributed(self, ctx: TransactionContext):
        """Multi-shard transactions: prepare round trip, then asynchronous decision."""
        ready = yield from self._prepare_round(ctx, ctx.participants)
        yield from self._flush_decision_log(ctx, commit=ready)
        if not ready:
            yield from self._dispatch_decision(ctx, protocol.MSG_XA_ROLLBACK)
            return TxnOutcome.ABORTED, AbortReason.PREPARE_FAILED
        ctx.enter_phase(TransactionPhase.COMMIT, self.env.now)
        for name in ctx.participants:
            handle = self.participants[name]
            self.send_participant(handle, protocol.MSG_XA_COMMIT,
                                  {"xid": ctx.txn_id})
        return TxnOutcome.COMMITTED, None


# ------------------------------------------------------------------- plugin
register_system(SystemPlugin(
    name="yugabyte",
    description="YugabyteDB-like kernel whose coordinator lives on a data node",
    aliases=("yugabytedb",),
    coordinator=YugabyteCoordinator,
    colocated_with_ds0=True,
))
