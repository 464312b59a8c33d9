"""Chiller: contention-centric execution ordering (Zamanian et al., SIGMOD 2020).

Chiller attacks lock contention in geo-distributed transactions with two ideas
the paper re-implements on its middleware platform for comparison:

* the prepare phase is merged into the execution phase (each participant
  prepares its branch as soon as it finishes executing, so commit needs only
  one further round trip);
* subtransactions on the *outer* regions (remote, high-latency) are executed
  first and the *inner* region (local, low-latency — where the hot records
  usually live) is executed last, so locks on hot records are held only
  briefly.

Unlike GeoTP this serialises the outer and inner parts (increasing transaction
latency) and uses a fixed region split rather than per-link latency
measurements, which is why GeoTP overtakes it under high contention.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common import SubtxnResult, TxnOutcome
from repro import protocol
from repro.middleware.context import TransactionContext, TransactionPhase
from repro.middleware.coordinator import TwoPhaseCommitCoordinator
from repro.middleware.rewriter import SubtransactionPlan
from repro.middleware.statements import Statement
from repro.plugins import BuildContext, SystemPlugin, register_system


class ChillerCoordinator(TwoPhaseCommitCoordinator):
    """Execute outer regions first, inner region last, with merged prepare."""

    system_name = "Chiller"

    def execute_payload(self, ctx: TransactionContext, plan: SubtransactionPlan,
                        is_final_round: bool) -> Dict:
        payload = super().execute_payload(ctx, plan, is_final_round)
        # Merge the prepare phase into execution for distributed transactions.
        payload["prepare_after"] = is_final_round and len(ctx.participants) > 1
        return payload

    def _split_inner_outer(self, plans: Dict[str, SubtransactionPlan]) -> Tuple[List[str], List[str]]:
        """The lowest-latency participant is the inner region; the rest are outer."""
        by_latency = sorted(plans, key=self.participant_rtt)
        inner = [by_latency[0]]
        outer = by_latency[1:]
        return inner, outer

    def _execute_round(self, ctx: TransactionContext, statements: List[Statement],
                       is_final_round: bool):
        plans = self.rewriter.plan_round(statements)
        for name in plans:
            ctx.branch_xid(name)
        if len(plans) < 2:
            return (yield from super()._execute_round(ctx, statements, is_final_round))

        inner, outer = self._split_inner_outer(plans)
        results: List[SubtxnResult] = []
        for group in (outer, inner):
            group_results = yield self._fan_out(
                ctx, [plans[name] for name in group], {}, is_final_round)
            results.extend(group_results)
            reason = self._absorb_results(ctx, group_results)
            if reason is not None:
                return False, reason

        self.on_round_complete(ctx, results)
        return True, None

    def _commit_distributed(self, ctx: TransactionContext):
        """Participants prepared during execution: only the commit round trip remains."""
        all_prepared = all(
            result.prepared for result in ctx.results.values()) and ctx.results
        if not all_prepared:
            # Fall back to classic 2PC if any participant did not merge-prepare
            # (e.g. it only appeared in a non-final round).
            missing = [name for name in ctx.participants
                       if not ctx.results.get(name) or not ctx.results[name].prepared]
            votes = []
            for name in missing:
                handle = self.participants[name]
                votes.append(self.timed_request_participant(
                    handle, protocol.MSG_XA_PREPARE, {"xid": ctx.branch_xid(name)}))
            if votes:
                yield self.env.all_of(votes)
        yield from self._flush_decision_log(ctx, commit=True)
        ctx.enter_phase(TransactionPhase.COMMIT, self.env.now)
        yield from self._dispatch_decision(ctx, protocol.MSG_XA_COMMIT)
        return TxnOutcome.COMMITTED, None


# ------------------------------------------------------------------- plugin
def _build(ctx: BuildContext) -> ChillerCoordinator:
    return ChillerCoordinator(ctx.env, ctx.network, ctx.middleware_config,
                              ctx.participants, ctx.partitioner)


register_system(SystemPlugin(
    name="chiller",
    description="Chiller contention-centric outer/inner execution ordering",
    builder=_build,
))
