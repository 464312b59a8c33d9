"""Chiller: contention-centric execution ordering (Zamanian et al., SIGMOD 2020).

Chiller attacks lock contention in geo-distributed transactions with two ideas
the paper re-implements on its middleware platform for comparison:

* the prepare phase is merged into the execution phase (each participant
  prepares its branch as soon as it finishes executing, so commit needs only
  one further round trip; a participant without a statement in the final
  round is prepared at commit as in SSP, and its NO vote aborts);
* subtransactions on the *outer* regions (remote, high-latency) are executed
  first and the *inner* region (local, low-latency — where the hot records
  usually live) is executed last, so locks on hot records are held only
  briefly.

Unlike GeoTP this serialises the outer and inner parts (increasing transaction
latency) and uses a fixed region split rather than per-link latency
measurements, which is why GeoTP overtakes it under high contention.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.middleware.context import TransactionContext
from repro.middleware.coordinator import TwoPhaseCommitCoordinator
from repro.middleware.rewriter import SubtransactionPlan
from repro.plugins import SystemPlugin, register_system


class ChillerCoordinator(TwoPhaseCommitCoordinator):
    """Execute outer regions first, inner region last, with merged prepare."""

    system_name = "Chiller"

    def execute_payload(self, ctx: TransactionContext, plan: SubtransactionPlan,
                        is_final_round: bool) -> Dict:
        payload = super().execute_payload(ctx, plan, is_final_round)
        # Merge the prepare phase into execution for distributed transactions.
        payload["prepare_after"] = is_final_round and len(ctx.participants) > 1
        return payload

    def dispatch_groups(self, plans: Dict[str, SubtransactionPlan]
                        ) -> Sequence[List[SubtransactionPlan]]:
        """The outer regions first, then the inner one: the lowest-latency
        participant."""
        if len(plans) < 2:
            return super().dispatch_groups(plans)
        inner, *outer = sorted(plans, key=self.participant_rtt)
        return [plans[name] for name in outer], [plans[inner]]


# ------------------------------------------------------------------- plugin
register_system(SystemPlugin(
    name="chiller",
    description="Chiller contention-centric outer/inner execution ordering",
    coordinator=ChillerCoordinator,
))
