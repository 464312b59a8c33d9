"""The baseline XA two-phase-commit coordinator (the paper's "SSP").

The flow per transaction is the classic one described in §II of the paper:

1. *analysis* — parse/route the statements;
2. *execution* — for each client interaction round, dispatch the per-data-source
   statement batches and wait for all results (one WAN round trip per round);
3. *prepare* — on the client's commit, send ``XA PREPARE`` to every participant
   not yet prepared and collect votes (a second WAN round trip);
4. *commit* — flush the decision log, then send the final decision (a third WAN
   round trip).  Centralized (single-participant) transactions skip the prepare
   and commit with a single one-phase round trip.

GeoTP and the other baselines subclass this coordinator and override one
step each: admission and postponement (the :class:`MiddlewareBase` hooks),
the execute payload, the order a round's batches are dispatched in, or a
commit phase.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common import (COSTS, AbortReason, Operation, SubtxnResult, TxnOutcome,
                          Vote)
from repro import protocol
from repro.middleware.context import TransactionContext, TransactionPhase
from repro.middleware.middleware import MiddlewareBase, Replies
from repro.middleware.rewriter import SubtransactionPlan
from repro.sim import Event
from repro.storage.wal import LogRecordType


class _FanOut(Replies):
    """One round's RPCs in flight: timers and callbacks, no process per batch."""

    __slots__ = ("owner", "ctx", "verb", "is_final_round")

    def __init__(self, owner: "TwoPhaseCommitCoordinator", ctx: TransactionContext,
                 verb: str, is_final_round: bool, count: int):
        super().__init__(owner.env, count)
        self.owner = owner
        self.ctx = ctx
        self.verb = verb
        self.is_final_round = is_final_round

    def dispatch(self, index: int, plan: SubtransactionPlan) -> None:
        """Pay the request overhead, then send the batch."""
        self.owner.env.call_at(COSTS.middleware_request_ms, self._send,
                               index, plan)

    def _send(self, index: int, plan: SubtransactionPlan) -> None:
        owner = self.owner
        if self.ctx.txn_id not in owner.active_contexts:
            # Fenced: the coordinator crashed while this batch waited (a crash
            # clears ``active_contexts``; ids never repeat).  Send nothing.
            return
        payload = owner.execute_payload(self.ctx, plan, self.is_final_round)
        self.watch(index, owner.request_participant(
            owner.participants[plan.datasource], self.verb, payload))


class TwoPhaseCommitCoordinator(MiddlewareBase):
    """Standard middleware XA coordination (ShardingSphere behaviour)."""

    system_name = "SSP"

    # ------------------------------------------------------------------ hooks
    def execute_payload(self, ctx: TransactionContext, plan: SubtransactionPlan,
                        is_final_round: bool) -> Dict:
        """Payload of the execute request sent to a participant."""
        return {
            "xid": ctx.txn_id,
            "operations": plan.operations,
            "auto_start": True,
        }

    def dispatch_groups(self, plans: Dict[str, SubtransactionPlan]
                        ) -> Sequence[List[SubtransactionPlan]]:
        """The waves one round's batches are sent in, each awaited before the
        next (Chiller's outer-then-inner order); base: all at once."""
        return (list(plans.values()),)

    def on_round_complete(self, ctx: TransactionContext,
                          results: List[SubtxnResult]) -> None:
        """Called after every successful round (GeoTP feeds its hotspot stats here)."""

    # ------------------------------------------------------------ transaction
    def _run_transaction(self, ctx: TransactionContext):
        if not (yield from self.admit(ctx)):
            return TxnOutcome.ABORTED, AbortReason.ADMISSION_BLOCKED

        ctx.enter_phase(TransactionPhase.EXECUTION, self.env.now)
        final_index = ctx.spec.round_count - 1
        for round_index, operations in enumerate(ctx.spec.rounds):
            reason = yield from self._execute_round(
                ctx, operations, is_final_round=(round_index == final_index))
            if reason is not None:
                yield from self._abort_all(ctx)
                return TxnOutcome.ABORTED, reason

        outcome, reason = yield from self._commit(ctx)
        return outcome, reason

    # --------------------------------------------------------------- execution
    def _execute_round(self, ctx: TransactionContext, operations: List[Operation],
                       is_final_round: bool):
        """Plan, postpone and dispatch one interaction round; returns the
        abort reason, or None once every batch succeeded."""
        plans = self.rewriter.plan_round(operations)
        delays = self.postponements(
            {name: plan.record_ids for name, plan in plans.items()})
        for name in plans:
            ctx.touch(name)
        results: List[SubtxnResult] = []
        for group in self.dispatch_groups(plans):
            group_results = yield self._fan_out(ctx, group, delays, is_final_round)
            reason = self._absorb_results(ctx, group_results)
            if reason is not None:
                return reason
            results += group_results
        self.on_round_complete(ctx, results)
        return None

    def _fan_out(self, ctx: TransactionContext, plans: List[SubtransactionPlan],
                 delays: Dict[str, float], is_final_round: bool,
                 verb: str = protocol.MSG_EXECUTE) -> Event:
        """Send each plan's statement batch to its participant, all at once.

        Every batch waits out its scheduler postponement (if any), pays the
        request overhead and sends ``verb``.  The returned event fires once,
        with the :class:`SubtxnResult` list in plan order.
        """
        fan = _FanOut(self, ctx, verb, is_final_round, len(plans))
        for index, plan in enumerate(plans):
            delay_ms = delays.get(plan.datasource, 0.0)
            if delay_ms > 0:
                self.env.call_at(delay_ms, fan.dispatch, index, plan)
            else:
                fan.dispatch(index, plan)
        return fan.done

    @staticmethod
    def _absorb_results(ctx: TransactionContext,
                        results: List[SubtxnResult]) -> Optional[AbortReason]:
        """Fold a fan-out's results into ``ctx``; the abort reason if any failed."""
        for result in results:
            ctx.results[result.datasource] = result
        for result in results:
            if not result.success:
                return result.abort_reason or AbortReason.FAILURE
        return None

    # ------------------------------------------------------------------ commit
    def _commit(self, ctx: TransactionContext):
        """Prepare and commit phases; returns (outcome, abort_reason)."""
        ctx.enter_phase(TransactionPhase.PREPARE, self.env.now)
        if not ctx.is_distributed:
            return (yield from self._commit_centralized(ctx))
        return (yield from self._commit_distributed(ctx))

    def _commit_centralized(self, ctx: TransactionContext):
        """Single-participant transactions: one-phase commit, one WAN round trip."""
        name = ctx.participants[0]
        handle = self.participants[name]
        ctx.enter_phase(TransactionPhase.COMMIT, self.env.now)
        reply = yield self.timed_request_participant(
            handle, protocol.MSG_COMMIT_ONE_PHASE, {"xid": ctx.txn_id})
        if isinstance(reply, dict) and reply.get("status") == "ok":
            return TxnOutcome.COMMITTED, None
        return TxnOutcome.ABORTED, AbortReason.FAILURE

    def _commit_distributed(self, ctx: TransactionContext):
        """Classic 2PC: prepare round trip, log flush, commit round trip."""
        # A branch that prepared with its last statement batch (Chiller's
        # merged prepare) is not asked again.
        unprepared = [name for name in ctx.participants
                      if not (name in ctx.results and ctx.results[name].prepared)]
        ready = yield from self._prepare_round(ctx, unprepared)
        yield from self._flush_decision_log(ctx, commit=ready)

        ctx.enter_phase(TransactionPhase.COMMIT, self.env.now)
        if ready:
            yield from self._dispatch_decision(ctx, protocol.MSG_XA_COMMIT)
            return TxnOutcome.COMMITTED, None
        yield from self._dispatch_decision(ctx, protocol.MSG_XA_ROLLBACK)
        return TxnOutcome.ABORTED, AbortReason.PREPARE_FAILED

    def _prepare_round(self, ctx: TransactionContext, names: List[str]):
        """Send ``XA PREPARE`` to ``names``; True only if every reply votes YES."""
        if not names:
            return True
        replies = yield from self._request_all(ctx, names, protocol.MSG_XA_PREPARE)
        return all(isinstance(reply, dict) and reply.get("vote") is Vote.YES
                   for reply in replies)

    def _flush_decision_log(self, ctx: TransactionContext, commit: bool):
        """Persist the global commit/abort decision before dispatching it."""
        yield COSTS.log_flush_ms
        record_type = LogRecordType.COMMIT if commit else LogRecordType.ABORT
        self.wal.append(record_type, ctx.txn_id, self.env.now)

    def _dispatch_decision(self, ctx: TransactionContext, verb: str):
        """Send the final decision to every participant; returns their replies."""
        return (yield from self._request_all(ctx, ctx.participants, verb))

    def _request_all(self, ctx: TransactionContext, names: List[str], verb: str):
        """One timed ``verb`` request per branch in ``names``; the replies in order."""
        replies = Replies(self.env, len(names))
        for index, name in enumerate(names):
            replies.watch(index, self.timed_request_participant(
                self.participants[name], verb, {"xid": ctx.txn_id}))
        return (yield replies.done)

    # ------------------------------------------------------------------- abort
    def _abort_all(self, ctx: TransactionContext):
        """Roll back every participant after an execution failure.

        In the baseline the middleware must learn about the failure (half a WAN
        round trip, already paid when the execute reply arrived) and then
        dispatch rollbacks and await the acks (a further full round trip).
        """
        ctx.enter_phase(TransactionPhase.COMMIT, self.env.now)
        yield from self._flush_decision_log(ctx, commit=False)
        if ctx.participants:
            yield from self._dispatch_decision(ctx, protocol.MSG_XA_ROLLBACK)
