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

from typing import Any, Dict, Hashable, Optional, Tuple

from repro.common import COSTS, AbortReason, Operation, TxnOutcome
from repro import protocol
from repro.middleware.context import TransactionContext, TransactionPhase
from repro.middleware.middleware import MiddlewareBase, Replies
from repro.sim import Resource
from repro.plugins import SystemPlugin, register_system

RecordId = Tuple[str, Hashable]


def _read_image(reply: Dict[str, Any]) -> Optional[Tuple[Any, int]]:
    """The ``(value, version)`` a key-value read saw (``(None, 0)``: no row);
    ``None`` when it was refused (an error reply carries no ``found``)."""
    return (reply.get("value"), reply.get("version", 0)) if "found" in reply else None


class ScalarDBCoordinator(MiddlewareBase):
    """Optimistic middleware-level transaction manager over plain key-value stores."""

    system_name = "ScalarDB"
    #: Maximum transactions processed concurrently by the middleware executor.
    #: ScalarDB performs all concurrency-control work on the middleware node,
    #: which is what bounds its scalability in the paper's Figure 5.
    coordinator_slots = 24

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._executor = Resource(self.env, capacity=self.coordinator_slots)

    # ------------------------------------------------------------- transaction
    def _run_transaction(self, ctx: TransactionContext):
        slot = self._executor.request()
        try:
            # Inside the try: a crash that interrupts the wait withdraws the
            # request, so the next release cannot grant it to a dead process.
            yield slot
            if not (yield from self.admit(ctx)):
                return TxnOutcome.ABORTED, AbortReason.ADMISSION_BLOCKED
            return (yield from self._run_occ(ctx))
        finally:
            self._executor.release(slot)

    def _run_occ(self, ctx: TransactionContext):
        ctx.enter_phase(TransactionPhase.EXECUTION, self.env.now)
        read_images: Dict[RecordId, Tuple[Any, int]] = {}
        write_set: Dict[RecordId, Operation] = {}

        for operations in ctx.spec.rounds:
            for operation in operations:
                ctx.touch(self.partitioner.locate(operation.table, operation.key))
            images = yield from self._execute_round_ops(ctx, operations)
            if images is None:
                return TxnOutcome.ABORTED, AbortReason.UNAVAILABLE
            read_images.update(images)
            for operation in operations:
                if operation.is_write:
                    write_set[operation.record_id] = operation

        # Prepare: conditional writes; any version conflict aborts the transaction.
        ctx.enter_phase(TransactionPhase.PREPARE, self.env.now)
        ok = yield from self._prepare_writes(ctx, write_set, read_images)
        if not ok:
            return TxnOutcome.ABORTED, AbortReason.PREPARE_FAILED

        # Commit: persist the coordinator decision; record finalisation is async.
        yield COSTS.scalardb_state_write_ms
        yield COSTS.log_flush_ms
        ctx.enter_phase(TransactionPhase.COMMIT, self.env.now)
        self._finalize_async(ctx, write_set)
        return TxnOutcome.COMMITTED, None

    # ----------------------------------------------------------------- phases
    def _execute_round_ops(self, ctx: TransactionContext, operations):
        """Read one round's records (their images); ``None`` once refused.

        ScalarDB's client library issues storage operations one at a time —
        every read (and the version-establishing read of every write) is its
        own WAN round trip — which is the main reason the paper finds it slow
        and unscalable in geo-distributed deployments.
        """
        images: Dict[RecordId, Tuple[Any, int]] = {}
        for operation in operations:
            participant = self.partitioner.locate(operation.table, operation.key)
            handle = self.participants[participant]
            reply = yield self.request_participant(handle, protocol.MSG_KV_GET, {
                "table": operation.table, "key": operation.key})
            image = _read_image(reply)
            if image is None:
                return None
            images[operation.record_id] = image
        return images

    def _prepare_writes(self, ctx: TransactionContext,
                        write_set: Dict[RecordId, Operation],
                        read_images: Dict[RecordId, Tuple[Any, int]]):
        if not write_set:
            return True
        puts = Replies(self.env, len(write_set))
        for index, (record_id, operation) in enumerate(write_set.items()):
            participant = self.partitioner.locate(operation.table, operation.key)
            handle = self.participants[participant]
            puts.watch(index, self.request_participant(
                handle, protocol.MSG_KV_PUT_IF_VERSION, {
                    "table": operation.table,
                    "key": operation.key,
                    "value": operation.value,
                    "expected_version": read_images[record_id][1],
                }))
        replies = yield puts.done
        landed = [isinstance(r, dict) and r.get("status") == "ok" for r in replies]
        if all(landed):
            return True
        # Abort: restore the before-image of every write that landed, off the
        # critical path, only while it holds the version it installed.
        for (record_id, operation), reply, ok in zip(write_set.items(), replies,
                                                     landed):
            if ok:
                value, version = read_images[record_id]
                self.send_participant(self.participants[self.partitioner.locate(
                    operation.table, operation.key)],
                    protocol.MSG_KV_PUT_IF_VERSION, {
                        "table": operation.table, "key": operation.key,
                        "value": value, "expected_version": reply["version"],
                        "restore_version": version})
        return False

    def _finalize_async(self, ctx: TransactionContext,
                        write_set: Dict[RecordId, Operation]) -> None:
        """Record-state finalisation happens off the client's critical path."""
        for operation in write_set.values():
            participant = self.partitioner.locate(operation.table, operation.key)
            handle = self.participants[participant]
            self.send_participant(handle, protocol.MSG_KV_PUT, {
                "table": operation.table, "key": operation.key,
                "value": operation.value})


# ------------------------------------------------------------------- plugin
register_system(SystemPlugin(
    name="scalardb",
    description="ScalarDB-style optimistic middleware transaction manager",
    coordinator=ScalarDBCoordinator,
))
