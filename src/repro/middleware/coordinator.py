"""The baseline XA two-phase-commit coordinator (the paper's "SSP").

The flow per transaction is the classic one described in §II of the paper:

1. *analysis* — parse/route the statements;
2. *execution* — for each client interaction round, dispatch the per-data-source
   statement batches and wait for all results (one WAN round trip per round);
3. *prepare* — on the client's commit, send ``XA PREPARE`` to every participant
   and collect votes (a second WAN round trip);
4. *commit* — flush the decision log, then send the final decision (a third WAN
   round trip).  Centralized (single-participant) transactions skip the prepare
   and commit with a single one-phase round trip.

GeoTP and the other baselines subclass this coordinator and override the
scheduling / admission / commit hooks.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from repro.common import AbortReason, SubtxnResult, TxnOutcome, Vote
from repro import protocol
from repro.middleware.context import TransactionContext, TransactionPhase
from repro.middleware.middleware import MiddlewareBase
from repro.middleware.rewriter import SubtransactionPlan
from repro.middleware.statements import Statement
from repro.sim import Event
from repro.storage.wal import LogRecordType


class _FanOut:
    """One round's RPCs in flight: timers and callbacks, no process per batch."""

    __slots__ = ("owner", "ctx", "verb", "is_final_round", "results",
                 "missing", "done")

    def __init__(self, owner: "TwoPhaseCommitCoordinator", ctx: TransactionContext,
                 verb: str, is_final_round: bool, count: int):
        self.owner = owner
        self.ctx = ctx
        self.verb = verb
        self.is_final_round = is_final_round
        self.results: list = [None] * count
        self.missing = count
        self.done = Event(owner.env)

    def connect(self, index: int, plan: SubtransactionPlan) -> None:
        pool = self.owner.pools.pool(plan.datasource)
        connection = pool.acquire()
        if connection.callbacks is None:
            self._connected(index, plan, pool, connection)
        else:  # pool exhausted: continue when a connection is handed over
            connection.callbacks.append(partial(self._connected, index, plan, pool))

    def _connected(self, index, plan, pool, connection) -> None:
        owner = self.owner
        owner.env.call_at(owner.config.request_overhead_ms, self._send,
                          index, plan, pool, connection)

    def _send(self, index, plan, pool, connection) -> None:
        owner = self.owner
        payload = owner.execute_payload(self.ctx, plan, self.is_final_round)
        reply = owner.request_participant(owner.participants[plan.datasource],
                                          self.verb, payload)
        reply.callbacks.append(partial(self._collect, index, pool, connection))

    def _collect(self, index, pool, connection, reply: Event) -> None:
        pool.release(connection)
        self.results[index] = reply.value
        self.missing -= 1
        if not self.missing:
            self.done.succeed(self.results)


class TwoPhaseCommitCoordinator(MiddlewareBase):
    """Standard middleware XA coordination (ShardingSphere behaviour)."""

    system_name = "SSP"

    # ------------------------------------------------------------------ hooks
    def admit(self, ctx: TransactionContext):
        """Admission control hook (GeoTP's late transaction scheduling).

        Generator returning ``(admitted, abort_reason)``; the base admits all.
        """
        return (True, None)
        yield  # pragma: no cover

    def schedule_round(self, ctx: TransactionContext,
                       plans: Dict[str, SubtransactionPlan],
                       is_final_round: bool) -> Dict[str, float]:
        """Per-participant dispatch postponement in ms (GeoTP's O2/O3); base: none."""
        return {name: 0.0 for name in plans}

    def execute_payload(self, ctx: TransactionContext, plan: SubtransactionPlan,
                        is_final_round: bool) -> Dict:
        """Payload of the execute request sent to a participant."""
        return {
            "xid": ctx.branch_xid(plan.datasource),
            "global_txn_id": ctx.txn_id,
            "operations": plan.operations,
            "auto_start": True,
        }

    def on_round_complete(self, ctx: TransactionContext,
                          results: List[SubtxnResult]) -> None:
        """Called after every successful round (GeoTP feeds its hotspot stats here)."""

    # ------------------------------------------------------------ transaction
    def _run_transaction(self, ctx: TransactionContext):
        yield self.config.analysis_cost_ms
        self.stats.work_units += ctx.spec.statement_count

        admitted, admit_reason = yield from self.admit(ctx)
        if not admitted:
            return TxnOutcome.ABORTED, admit_reason or AbortReason.ADMISSION_BLOCKED

        ctx.enter_phase(TransactionPhase.EXECUTION, self.env.now)
        final_index = ctx.spec.round_count - 1
        for round_index, statements in enumerate(ctx.spec.rounds):
            ok, reason = yield from self._execute_round(
                ctx, statements, is_final_round=(round_index == final_index))
            if not ok:
                yield from self._abort_all(ctx)
                return TxnOutcome.ABORTED, reason

        outcome, reason = yield from self._commit(ctx)
        return outcome, reason

    # --------------------------------------------------------------- execution
    def _execute_round(self, ctx: TransactionContext, statements: List[Statement],
                       is_final_round: bool):
        """Dispatch one interaction round; returns (ok, abort_reason)."""
        plans = self.rewriter.plan_round(statements)
        delays = self.schedule_round(ctx, plans, is_final_round)
        for name in plans:
            ctx.branch_xid(name)  # register the participants in first-touch order
        results = yield self._fan_out(ctx, list(plans.values()), delays,
                                      is_final_round)
        reason = self._absorb_results(ctx, results)
        if reason is not None:
            return False, reason
        self.on_round_complete(ctx, results)
        return True, None

    def _fan_out(self, ctx: TransactionContext, plans: List[SubtransactionPlan],
                 delays: Dict[str, float], is_final_round: bool,
                 verb: str = protocol.MSG_EXECUTE) -> Event:
        """Send each plan's statement batch to its participant, all at once.

        Every batch waits out its scheduler postponement (if any), checks a
        pooled connection out, pays the request overhead and sends ``verb``;
        the reply callback returns the connection.  The returned event fires
        once, with the :class:`SubtxnResult` list in plan order.
        """
        fan = _FanOut(self, ctx, verb, is_final_round, len(plans))
        for index, plan in enumerate(plans):
            delay_ms = delays.get(plan.datasource, 0.0)
            if delay_ms > 0:
                self.env.call_at(delay_ms, fan.connect, index, plan)
            else:
                fan.connect(index, plan)
        if not plans:
            fan.done.succeed(fan.results)
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
            handle, protocol.MSG_COMMIT_ONE_PHASE, {"xid": ctx.branch_xid(name)})
        if isinstance(reply, dict) and reply.get("status") == "ok":
            return TxnOutcome.COMMITTED, None
        return TxnOutcome.ABORTED, AbortReason.FAILURE

    def _commit_distributed(self, ctx: TransactionContext):
        """Classic 2PC: prepare round trip, log flush, commit round trip."""
        vote_events = {}
        for name in ctx.participants:
            handle = self.participants[name]
            vote_events[name] = self.timed_request_participant(
                handle, protocol.MSG_XA_PREPARE, {"xid": ctx.branch_xid(name)})
        condition = yield self.env.all_of(list(vote_events.values()))
        for name, event in vote_events.items():
            reply = condition[event]
            vote = reply.get("vote", Vote.NO) if isinstance(reply, dict) else Vote.NO
            ctx.record_vote(name, vote)

        yield from self._flush_decision_log(ctx, commit=ctx.all_yes())

        ctx.enter_phase(TransactionPhase.COMMIT, self.env.now)
        if ctx.all_yes():
            yield from self._dispatch_decision(ctx, protocol.MSG_XA_COMMIT)
            return TxnOutcome.COMMITTED, None
        yield from self._dispatch_decision(ctx, protocol.MSG_XA_ROLLBACK)
        return TxnOutcome.ABORTED, AbortReason.PREPARE_FAILED

    def _flush_decision_log(self, ctx: TransactionContext, commit: bool):
        """Persist the global commit/abort decision before dispatching it."""
        yield self.config.log_flush_cost_ms
        record_type = LogRecordType.COMMIT if commit else LogRecordType.ABORT
        self.wal.append(record_type, ctx.txn_id, self.env.now,
                        payload={"participants": list(ctx.participants)})

    def _dispatch_decision(self, ctx: TransactionContext, verb: str):
        """Send the final decision to every participant and wait for the acks."""
        acks = []
        for name in ctx.participants:
            handle = self.participants[name]
            acks.append(self.timed_request_participant(
                handle, verb, {"xid": ctx.branch_xid(name)}))
        yield self.env.all_of(acks)

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
