"""SSP (local): ShardingSphere's non-atomic "local" transaction mode.

The paper uses this mode to show SSP's peak performance: it "employs a
decentralized commit protocol but allows transactions to be committed when data
sources return different votes".  Concretely the middleware skips the prepare
phase and asks every participant to commit its branch independently (one WAN
round trip), accepting that a participant may fail to commit after others
already did — atomicity is not guaranteed.
"""

from __future__ import annotations

from repro.common import AbortReason, TxnOutcome
from repro import protocol
from repro.middleware.context import TransactionContext, TransactionPhase
from repro.middleware.coordinator import TwoPhaseCommitCoordinator
from repro.plugins import SystemPlugin, register_system


class SSPLocalCoordinator(TwoPhaseCommitCoordinator):
    """SSP without the prepare phase (no atomicity guarantee)."""

    system_name = "SSP(local)"

    def _commit_distributed(self, ctx: TransactionContext):
        yield from self._flush_decision_log(ctx, commit=True)
        ctx.enter_phase(TransactionPhase.COMMIT, self.env.now)
        replies = yield from self._dispatch_decision(
            ctx, protocol.MSG_COMMIT_ONE_PHASE)
        if not any(isinstance(reply, dict) and reply.get("status") == "ok"
                   for reply in replies):
            # Every branch failed to commit: report an abort.  Partial commits
            # are reported as committed — that is precisely the atomicity gap
            # of this mode.
            return TxnOutcome.ABORTED, AbortReason.FAILURE
        return TxnOutcome.COMMITTED, None


# ------------------------------------------------------------------- plugin
register_system(SystemPlugin(
    name="ssp_local",
    description="ShardingSphere's non-atomic local transaction mode (no prepare)",
    aliases=("ssp(local)", "ssp_(local)", "ssplocal"),
    coordinator=SSPLocalCoordinator,
))
