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
  bounded executor (``coordinator_slots``, a free-slot count and a FIFO queue
  of waiters) caps scalability;
* conflicts are discovered only at prepare time, so skewed workloads abort a
  lot — and every retry still pays the WAN round trips;
* there is no latency awareness at all.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Hashable, Optional, Tuple

from repro.common import COSTS, AbortReason, Operation, TxnOutcome
from repro import protocol
from repro.middleware.context import TransactionContext, TransactionPhase
from repro.middleware.middleware import MiddlewareBase, Replies
from repro.sim import Event
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
        #: The executor: free slots, and the transactions waiting for one in
        #: arrival order (each wakes when a release hands it its slot).
        self._free_slots = self.coordinator_slots
        self._slot_waiters: Deque[Event] = deque()

    # ------------------------------------------------------------- transaction
    def _run_transaction(self, ctx: TransactionContext):
        waiter = None
        if self._free_slots:
            self._free_slots -= 1
        else:
            waiter = Event(self.env)
            self._slot_waiters.append(waiter)
        try:
            if waiter is not None:
                yield waiter
            if not (yield from self.admit(ctx)):
                return TxnOutcome.ABORTED, AbortReason.ADMISSION_BLOCKED
            return (yield from self._run_occ(ctx))
        finally:
            if waiter is None or waiter.triggered:
                self._release_slot()
            else:
                # A crash interrupted the wait: withdraw it, so the next
                # release cannot hand the slot to a dead process.
                self._slot_waiters.remove(waiter)

    def _release_slot(self) -> None:
        """Hand the freed slot to the longest waiter, or put it back."""
        if self._slot_waiters:
            self._slot_waiters.popleft().succeed()
        else:
            self._free_slots += 1

    def _run_occ(self, ctx: TransactionContext):
        ctx.enter_phase(TransactionPhase.EXECUTION, self.env.now)
        read_images: Dict[RecordId, Tuple[Any, int]] = {}
        write_set: Dict[RecordId, Operation] = {}
        # Each record's data source, as the round plans routed it.
        homes: Dict[RecordId, str] = {}

        for operations in ctx.spec.rounds:
            plans = self.rewriter.plan_round(operations)
            for name, plan in plans.items():
                ctx.touch(name)
                for record_id in plan.record_ids:
                    homes[record_id] = name
            images = yield from self._execute_round_ops(ctx, operations, plans,
                                                        homes)
            if images is None:
                return TxnOutcome.ABORTED, AbortReason.UNAVAILABLE
            read_images.update(images)
            for operation in operations:
                if operation.is_write:
                    write_set[operation.record_id] = operation

        # Prepare: conditional writes; any version conflict aborts the transaction.
        ctx.enter_phase(TransactionPhase.PREPARE, self.env.now)
        ok = yield from self._prepare_writes(write_set, read_images, homes)
        if not ok:
            return TxnOutcome.ABORTED, AbortReason.PREPARE_FAILED

        # Commit: persist the coordinator decision; record finalisation is async.
        yield COSTS.scalardb_state_write_ms
        yield COSTS.log_flush_ms
        ctx.enter_phase(TransactionPhase.COMMIT, self.env.now)
        self._finalize_async(write_set, homes)
        return TxnOutcome.COMMITTED, None

    # ----------------------------------------------------------------- phases
    def _execute_round_ops(self, ctx: TransactionContext, operations, plans,
                           homes: Dict[RecordId, str]):
        """Read one round's records (their images), each from its data source
        in ``homes``; ``None`` once refused.

        ScalarDB's client library issues storage operations one at a time, in
        statement order — every read (and the version-establishing read of
        every write) is its own WAN round trip — which is the main reason the
        paper finds it slow and unscalable in geo-distributed deployments.
        """
        images: Dict[RecordId, Tuple[Any, int]] = {}
        for operation in operations:
            handle = self.participants[homes[operation.record_id]]
            reply = yield self.request_participant(handle, protocol.MSG_KV_GET, {
                "table": operation.table, "key": operation.key})
            image = _read_image(reply)
            if image is None:
                return None
            images[operation.record_id] = image
        return images

    def _prepare_writes(self, write_set: Dict[RecordId, Operation],
                        read_images: Dict[RecordId, Tuple[Any, int]],
                        homes: Dict[RecordId, str]):
        if not write_set:
            return True
        puts = Replies(self.env, len(write_set))
        for index, (record_id, operation) in enumerate(write_set.items()):
            puts.watch(index, self.request_participant(
                self.participants[homes[record_id]],
                protocol.MSG_KV_PUT_IF_VERSION, {
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
                self.send_participant(
                    self.participants[homes[record_id]],
                    protocol.MSG_KV_PUT_IF_VERSION, {
                        "table": operation.table, "key": operation.key,
                        "value": value, "expected_version": reply["version"],
                        "restore_version": version})
        return False

    def _finalize_async(self, write_set: Dict[RecordId, Operation],
                        homes: Dict[RecordId, str]) -> None:
        """Record-state finalisation happens off the client's critical path."""
        for record_id, operation in write_set.items():
            self.send_participant(self.participants[homes[record_id]],
                                  protocol.MSG_KV_PUT, {
                                      "table": operation.table, "key": operation.key,
                                      "value": operation.value})


# ------------------------------------------------------------------- plugin
register_system(SystemPlugin(
    name="scalardb",
    description="ScalarDB-style optimistic middleware transaction manager",
    coordinator=ScalarDBCoordinator,
))
