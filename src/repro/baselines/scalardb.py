"""ScalarDB-style middleware: concurrency control above the data sources.

ScalarDB (Yamada et al., VLDB 2023) provides ACID transactions across
heterogeneous stores without using their transactional capabilities: the
middleware reads records (with version metadata), buffers writes, and commits
with an optimistic two-step protocol — conditionally writing a *prepared*
version of every record (the write succeeds only if the version is unchanged)
and then persisting the coordinator's commit decision, after which record
states are finalised asynchronously.

Consequences the paper highlights and this model reproduces:

* all concurrency control work is concentrated in the middleware node, whose
  bounded executor (``coordinator_slots``) caps scalability;
* conflicts are discovered only at prepare time, so skewed workloads abort a
  lot — and every retry still pays the WAN round trips;
* there is no latency awareness at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.common import AbortReason, Operation, TxnOutcome
from repro import protocol
from repro.middleware.context import TransactionContext, TransactionPhase
from repro.middleware.middleware import (
    MiddlewareBase,
    MiddlewareConfig,
    ParticipantHandle,
)
from repro.middleware.router import Partitioner
from repro.sim import Environment, Resource
from repro.sim.network import Network
from repro.plugins import BuildContext, SystemPlugin, register_system

RecordId = Tuple[str, Hashable]


@dataclass
class ScalarDBConfig:
    """Knobs of the ScalarDB-style coordinator."""

    #: Maximum transactions processed concurrently by the middleware executor.
    #: ScalarDB performs all concurrency-control work on the middleware node,
    #: which is what bounds its scalability in the paper's Figure 5.
    coordinator_slots: int = 24
    #: Cost of persisting the coordinator's commit-state record.
    coordinator_state_write_ms: float = 1.0


class ScalarDBCoordinator(MiddlewareBase):
    """Optimistic middleware-level transaction manager over plain key-value stores."""

    system_name = "ScalarDB"

    def __init__(self, env: Environment, network: Network, config: MiddlewareConfig,
                 participants: Dict[str, ParticipantHandle], partitioner: Partitioner,
                 scalardb_config: Optional[ScalarDBConfig] = None):
        super().__init__(env, network, config, participants, partitioner)
        self.scalardb = scalardb_config or ScalarDBConfig()
        self._executor = Resource(env, capacity=self.scalardb.coordinator_slots)

    # ------------------------------------------------------------------- hooks
    def schedule_execution_delays(self, ctx: TransactionContext,
                                  records_by_participant: Dict[str, List[RecordId]]
                                  ) -> Dict[str, float]:
        """Dispatch postponement per participant; the base ScalarDB uses none."""
        return {name: 0.0 for name in records_by_participant}

    def admit(self, ctx: TransactionContext):
        """Admission hook (ScalarDB+ overrides); base admits everything."""
        return (True, None)
        yield  # pragma: no cover

    def on_transaction_settled(self, ctx: TransactionContext, committed: bool) -> None:
        """Hook after the outcome is known (ScalarDB+ updates its statistics)."""

    # ------------------------------------------------------------- transaction
    def _run_transaction(self, ctx: TransactionContext):
        yield self.env.timeout(self.config.analysis_cost_ms)
        self.stats.work_units += ctx.spec.statement_count

        slot = self._executor.request()
        yield slot
        try:
            admitted, admit_reason = yield from self.admit(ctx)
            if not admitted:
                self.on_transaction_settled(ctx, committed=False)
                return TxnOutcome.ABORTED, admit_reason or AbortReason.ADMISSION_BLOCKED
            outcome, reason = yield from self._run_occ(ctx)
        finally:
            self._executor.release(slot)
        self.on_transaction_settled(ctx, committed=outcome is TxnOutcome.COMMITTED)
        return outcome, reason

    def _run_occ(self, ctx: TransactionContext):
        ctx.enter_phase(TransactionPhase.EXECUTION, self.env.now)
        read_versions: Dict[RecordId, int] = {}
        write_set: Dict[RecordId, Operation] = {}

        for statements in ctx.spec.rounds:
            for stmt in statements:
                target = self.partitioner.locate(stmt.operation.table, stmt.operation.key)
                ctx.branch_xid(target)
            versions = yield from self._execute_round_ops(ctx, statements)
            read_versions.update(versions)
            for stmt in statements:
                if stmt.operation.is_write:
                    write_set[stmt.operation.record_id] = stmt.operation

        # Prepare: conditional writes; any version conflict aborts the transaction.
        ctx.enter_phase(TransactionPhase.PREPARE, self.env.now)
        ok = yield from self._prepare_writes(ctx, write_set, read_versions)
        if not ok:
            return TxnOutcome.ABORTED, AbortReason.PREPARE_FAILED

        # Commit: persist the coordinator decision; record finalisation is async.
        yield self.env.timeout(self.scalardb.coordinator_state_write_ms)
        yield from self._flush_decision_log(ctx)
        ctx.enter_phase(TransactionPhase.COMMIT, self.env.now)
        self._finalize_async(ctx, write_set)
        return TxnOutcome.COMMITTED, None

    # ----------------------------------------------------------------- phases
    def _execute_round_ops(self, ctx: TransactionContext, statements):
        """Execute one round's operations.

        ScalarDB's client library issues storage operations one at a time —
        every read (and the version-establishing read of every write) is its
        own WAN round trip — which is the main reason the paper finds it slow
        and unscalable in geo-distributed deployments.
        """
        versions: Dict[RecordId, int] = {}
        for stmt in statements:
            operation = stmt.operation
            participant = self.partitioner.locate(operation.table, operation.key)
            handle = self.participants[participant]
            reply = yield self.request_participant(handle, protocol.MSG_KV_GET, {
                "table": operation.table, "key": operation.key})
            version = reply.get("version", 0) if isinstance(reply, dict) else 0
            versions[operation.record_id] = version if reply.get("found") else 0
        return versions

    def _read_batch(self, participant: str, operations: List[Operation],
                    delay_ms: float):
        """Read a batch of records on one participant in a single round trip.

        Not used by plain ScalarDB; ScalarDB+ dispatches per-participant
        batches with latency-aware postponement.
        """
        if delay_ms > 0:
            yield self.env.timeout(delay_ms)
        handle = self.participants[participant]
        requests = []
        for operation in operations:
            requests.append(self.request_participant(handle, protocol.MSG_KV_GET, {
                "table": operation.table, "key": operation.key}))
        condition = yield self.env.all_of(requests)
        versions: Dict[RecordId, int] = {}
        for operation, request in zip(operations, requests):
            reply = condition[request]
            version = reply.get("version", 0) if isinstance(reply, dict) else 0
            versions[operation.record_id] = version if reply.get("found") else 0
        return versions

    def _prepare_writes(self, ctx: TransactionContext,
                        write_set: Dict[RecordId, Operation],
                        read_versions: Dict[RecordId, int]):
        if not write_set:
            return True
        requests = []
        for record_id, operation in write_set.items():
            participant = self.partitioner.locate(operation.table, operation.key)
            handle = self.participants[participant]
            requests.append(self.request_participant(
                handle, protocol.MSG_KV_PUT_IF_VERSION, {
                    "table": operation.table,
                    "key": operation.key,
                    "value": operation.value,
                    "expected_version": read_versions.get(record_id, 0),
                    "writer": ctx.txn_id,
                }))
        condition = yield self.env.all_of(requests)
        replies = [condition[r] for r in requests]
        return all(isinstance(r, dict) and r.get("status") == "ok" for r in replies)

    def _flush_decision_log(self, ctx: TransactionContext):
        yield self.env.timeout(self.config.log_flush_cost_ms)

    def _finalize_async(self, ctx: TransactionContext,
                        write_set: Dict[RecordId, Operation]) -> None:
        """Record-state finalisation happens off the client's critical path."""
        for operation in write_set.values():
            participant = self.partitioner.locate(operation.table, operation.key)
            handle = self.participants[participant]
            self.send_participant(handle, protocol.MSG_KV_PUT, {
                "table": operation.table, "key": operation.key,
                "value": operation.value, "writer": ctx.txn_id})


# ------------------------------------------------------------------- plugin
def _build(ctx: BuildContext) -> ScalarDBCoordinator:
    return ScalarDBCoordinator(ctx.env, ctx.network, ctx.middleware_config,
                               ctx.participants, ctx.partitioner,
                               scalardb_config=ctx.scalardb_config)


register_system(SystemPlugin(
    name="scalardb",
    description="ScalarDB-style optimistic middleware transaction manager",
    builder=_build,
))
