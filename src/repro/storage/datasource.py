"""A network-attached simulated data source (MySQL- or PostgreSQL-like node).

The data source is a simulation process listening on its network inbox.  Every
incoming request is handled in its own sub-process so that many subtransactions
can execute concurrently and block on record locks independently, exactly as
sessions do in a real database server.

Supported verbs (see :mod:`repro.protocol`):

* XA lifecycle: ``xa_start``, ``execute``, ``xa_end``, ``xa_prepare``,
  ``xa_commit``, ``xa_rollback``, ``commit_one_phase``;
* recovery support: ``list_prepared``, ``txn_state``, ``crash``, ``restart``;
* a plain key-value interface (``kv_get`` / ``kv_put`` / ``kv_put_if_version``)
  used by the ScalarDB-style baseline, which keeps concurrency control in the
  middleware instead of the data source.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Mapping, Optional

from repro.common import (COSTS, AbortReason, Operation, OperationResult, OpType,
                          SubtxnResult, Vote)
from repro import protocol
from repro.sim import Environment
from repro.sim.network import Message, Network, NetworkInterface
from repro.storage.dialects import Dialect, MySQLDialect
from repro.storage.engine import StorageEngine
from repro.storage.lock_manager import (
    LOCK_WAIT_TIMEOUT_MS,
    LockManager,
    LockMode,
    LockTimeoutError,
)
from repro.storage.transaction import LocalTransaction, TxnState
from repro.storage.wal import LogRecordType, WriteAheadLog


@dataclass
class DataSourceConfig:
    """Static configuration of one data source node."""

    name: str
    dialect: Dialect = field(default_factory=MySQLDialect)
    #: Lock-wait timeout; the paper configures 5 s on MySQL/PostgreSQL.
    lock_wait_timeout_ms: float = LOCK_WAIT_TIMEOUT_MS
    #: How many *finished* (committed/aborted) branches stay queryable for
    #: idempotent decision re-delivery and ``txn_state`` probes before being
    #: evicted, oldest first.  Unfinished and PREPARED branches are never
    #: evicted.  The cap keeps memory O(1) over unbounded open-system runs
    #: while still covering every idempotent-retry window by orders of
    #: magnitude.
    finished_txn_retention: int = 512


class DataSourceStats:
    """Operational counters of one data source (used for resource accounting)."""

    __slots__ = ("requests_handled", "operations_executed", "commits",
                 "aborts", "prepares", "busy_ms")

    def __init__(self) -> None:
        self.requests_handled = 0
        self.operations_executed = 0
        self.commits = 0
        self.aborts = 0
        self.prepares = 0
        self.busy_ms = 0.0


class DataSource:
    """One simulated database node."""

    def __init__(self, env: Environment, network: Network, config: DataSourceConfig):
        self.env = env
        self.config = config
        self.name = config.name
        self.dialect = config.dialect
        (self._read_ms, self._write_ms, self._prepare_ms, self._commit_ms,
         self._abort_ms) = COSTS.engine(config.dialect.name)
        self.engine = StorageEngine(name=config.name)
        self.lock_manager = LockManager(
            env, lock_wait_timeout_ms=config.lock_wait_timeout_ms)
        self.wal = WriteAheadLog()
        self.net: NetworkInterface = network.interface(config.name)
        self.stats = DataSourceStats()
        self.transactions: Dict[str, LocalTransaction] = {}
        self._finished_xids: Deque[str] = deque()
        self.crashed = False
        # Verb dispatch table, built once: ``_handle`` runs per message.
        self._handlers = {
            protocol.MSG_XA_START: self._on_xa_start,
            protocol.MSG_EXECUTE: self._on_execute,
            protocol.MSG_XA_END: self._on_xa_end,
            protocol.MSG_XA_PREPARE: self._on_xa_prepare,
            protocol.MSG_XA_COMMIT: self._on_xa_commit,
            protocol.MSG_XA_ROLLBACK: self._on_xa_rollback,
            protocol.MSG_COMMIT_ONE_PHASE: self._on_commit_one_phase,
            protocol.MSG_LIST_PREPARED: self._on_list_prepared,
            protocol.MSG_TXN_STATE: self._on_txn_state,
            protocol.MSG_KV_GET: self._on_kv_get,
            protocol.MSG_KV_PUT: self._on_kv_put,
            protocol.MSG_KV_PUT_IF_VERSION: self._on_kv_put,
            protocol.MSG_CRASH: self._on_crash,
            protocol.MSG_RESTART: self._on_restart,
            protocol.MSG_PING: self._on_ping,
        }
        # Direct-consumer inbox: every delivered message spawns its handler
        # generator straight from the network's delivery dispatch — no server
        # loop, no get-event, no extra resume per message.  The handler runs
        # inline until its first yield (run-to-first-yield processes).
        self.net.inbox.set_consumer(self._dispatch)

    # ------------------------------------------------------------------ loading
    def load_table(self, table_name: str, rows: Mapping[Hashable, object]) -> None:
        """Bulk-load committed rows into a table (setup only, no locking)."""
        self.engine.bulk_load(table_name, rows)

    def close(self) -> None:
        """Drop the verb table: its bound methods hold this node in a cycle."""
        self._handlers.clear()

    # ------------------------------------------------------------------- server
    def _dispatch(self, message: Message) -> None:
        # A verb is either a generator (it may wait on a lock or pays several
        # costs; spawned as a daemon process, straight from the table so no
        # wrapper frame sits on every resume) or a start/finish pair: the
        # start function makes the checks due before the verb's one cost,
        # schedules the finish function with ``call_at`` and returns None.
        if self.crashed and message.msg_type != protocol.MSG_RESTART:
            # A crashed *process* refuses connections immediately (the OS
            # resets them), so callers fail fast and can abort/retry instead
            # of blocking forever.  Silent loss is the semantics of a network
            # outage, modelled separately by Network.disrupt_node/_link.
            self._refuse_crashed(message)
            return
        self.stats.requests_handled += 1
        handler = self._handlers.get(message.msg_type) or self._on_unknown
        generator = handler(message)
        if generator is not None:
            self.env.process(generator, name=message.msg_type, daemon=True)

    def _on_unknown(self, message: Message) -> None:
        self._reply(message, {"status": "error",
                              "error": f"unknown verb {message.msg_type}"})

    def _refuse_crashed(self, message: Message) -> None:
        """Answer a request aimed at the crashed node with a refusal.

        The reply shape matches what the verb's caller expects (a failed
        :class:`~repro.common.SubtxnResult` for execute, a NO vote for
        prepare, an error status otherwise) so coordinators abort the affected
        transaction promptly instead of misparsing the refusal.
        """
        if message.reply_event is None:
            return
        if message.msg_type == protocol.MSG_EXECUTE:
            payload = message.payload or {}
            reply = SubtxnResult(
                xid=payload.get("xid", "?"), datasource=self.name,
                success=False, error="data source crashed",
                abort_reason=AbortReason.UNAVAILABLE)
        elif message.msg_type == protocol.MSG_XA_PREPARE:
            reply = {"vote": Vote.NO, "error": "data source crashed"}
        else:
            reply = {"status": "error", "error": "data source crashed"}
        self.net.reply(message, reply)

    def _reply(self, message: Message, value) -> None:
        if message.reply_event is not None:
            self.net.reply(message, value)

    # --------------------------------------------------------------- XA verbs
    def _on_xa_start(self, message: Message):
        payload = message.payload or {}
        xid = payload["xid"]
        global_txn_id = payload.get("global_txn_id", xid)
        yield COSTS.datasource_request_ms
        self.transactions[xid] = LocalTransaction(
            xid=xid, global_txn_id=global_txn_id, started_at=self.env.now)
        self._reply(message, {"status": "ok"})

    def _on_execute(self, message: Message):
        payload = message.payload or {}
        xid = payload["xid"]
        operations: List[Operation] = payload.get("operations", [])
        txn = self.transactions.get(xid)
        if txn is None and payload.get("auto_start"):
            # XA START pipelined with the first statement batch, as real
            # middlewares do to avoid spending a WAN round trip on BEGIN.
            txn = LocalTransaction(xid=xid,
                                   global_txn_id=payload.get("global_txn_id", xid),
                                   started_at=self.env.now)
            self.transactions[xid] = txn
        if txn is None or txn.state is not TxnState.ACTIVE:
            state = txn.state.value if txn else "missing"
            self._reply(message, SubtxnResult(
                xid=xid, datasource=self.name, success=False,
                error=f"transaction {xid} not active ({state})",
                abort_reason=AbortReason.FAILURE))
            return

        # Everything the per-operation loop needs, looked up once per batch.
        env = self.env
        stats = self.stats
        engine = self.engine
        acquire = self.lock_manager.acquire
        granted = self.lock_manager._granted
        read_cost = self._read_ms
        write_cost = self._write_ms
        active = TxnState.ACTIVE
        started = env.now
        yield COSTS.datasource_request_ms
        results: List[OperationResult] = []
        for operation in operations:
            if txn.state is not active:
                # The branch was rolled back (peer abort / coordinator rollback)
                # while this statement batch was still executing or waiting.
                self._reply_failed(message, xid, results, started)
                return
            is_write = operation.op_type is not OpType.READ
            record_id = operation.record_id
            lock_event = acquire(
                xid, record_id, LockMode.EXCLUSIVE if is_write else LockMode.SHARED)
            if lock_event is not granted:
                # Only a lock that actually waits suspends the batch.
                try:
                    yield lock_event
                except LockTimeoutError as exc:
                    # Thrown in here, the exception gained a traceback that
                    # holds this frame, whose ``lock_event`` holds the
                    # exception: drop the traceback, or every timeout leaves
                    # a cycle behind.
                    exc.__traceback__ = None
                    if not txn.is_finished:
                        yield from self._abort_locally(txn)
                    self._reply_failed(message, xid, results, started,
                                       str(exc), AbortReason.LOCK_TIMEOUT)
                    return
            if txn.first_lock_at is None:
                txn.first_lock_at = env.now

            cost = write_cost if is_write else read_cost
            yield cost
            if txn.state is not active:
                # Aborted while the operation cost was being paid (peer abort
                # or a coordinator-crash session kill): buffering the write
                # now would resurrect a write set the abort already
                # discarded, and success=True would misreport a dead branch.
                self._reply_failed(message, xid, results, started)
                return
            stats.operations_executed += 1
            stats.busy_ms += cost

            if is_write:
                engine.buffer_write(xid, operation.table, operation.key,
                                    operation.value, record_id)
                results.append(OperationResult(operation, True))
            else:
                snapshot = engine.read(xid, operation.table, operation.key,
                                       record_id)
                results.append(OperationResult(
                    operation, True, snapshot.value if snapshot is not None else None))

        prepared = False
        if payload.get("prepare_after"):
            # Execute-and-prepare merging (used by the Chiller baseline): the
            # branch is prepared before the reply so the caller's execution
            # round trip doubles as its prepare round trip.
            yield self._prepare_ms
            if txn.state is not active:
                # Aborted while the prepare cost was being paid — same race
                # as in _on_xa_prepare; report the failure instead of
                # preparing a dead branch.
                self._reply_failed(message, xid, results, started)
                return
            self._log_prepare(txn)
            prepared = True

        self._reply(message, SubtxnResult(
            xid=xid, datasource=self.name, success=True, results=results,
            local_execution_ms=env.now - started, prepared=prepared,
            records=list(dict.fromkeys([op.record_id for op in operations]))))

    def _reply_failed(self, message: Message, xid: str,
                      results: List[OperationResult], started: float,
                      error: str = "transaction aborted concurrently",
                      reason: AbortReason = AbortReason.PEER_ABORT) -> None:
        """Answer an execute whose batch stopped early (``results`` so far)."""
        self._reply(message, SubtxnResult(
            xid=xid, datasource=self.name, success=False, results=results,
            error=error, abort_reason=reason,
            local_execution_ms=self.env.now - started))

    def _log_prepare(self, txn: LocalTransaction) -> None:
        """Persist the branch's PREPARE record and move it to PREPARED."""
        self.wal.append(LogRecordType.PREPARE, txn.xid, self.env.now,
                        payload={"writes": self.engine.write_count(txn.xid)})
        txn.mark_prepared()
        self.stats.prepares += 1

    def _on_xa_end(self, message: Message) -> None:
        txn = self.transactions.get((message.payload or {})["xid"])
        self.env.call_at(COSTS.datasource_request_ms, self._finish_xa_end,
                         message, txn)

    def _finish_xa_end(self, message: Message,
                       txn: Optional[LocalTransaction]) -> None:
        if txn is None or txn.state is not TxnState.ACTIVE:
            self._reply(message, {"status": "error", "error": "not active"})
            return
        txn.mark_end()
        self._reply(message, {"status": "ok"})

    def _on_xa_prepare(self, message: Message) -> None:
        txn = self.transactions.get((message.payload or {})["xid"])
        if txn is None or txn.state not in (TxnState.ACTIVE, TxnState.IDLE):
            self.env.call_at(COSTS.datasource_request_ms, self._reply, message,
                             {"vote": Vote.NO, "error": "transaction not preparable"})
            return
        # Persist transaction state + WAL (the paper's prepare cost, Fig. 6c).
        self.env.call_at(self._prepare_ms, self._finish_xa_prepare,
                         message, txn)

    def _finish_xa_prepare(self, message: Message, txn: LocalTransaction) -> None:
        if txn.state not in (TxnState.ACTIVE, TxnState.IDLE):
            # The branch was rolled back while the prepare cost was being
            # paid (peer abort, or its coordinator's sessions were killed by
            # a crash): vote NO instead of resurrecting a finished branch.
            self._reply(message, {"vote": Vote.NO,
                                  "error": "transaction not preparable"})
            return
        self._log_prepare(txn)
        self._reply(message, {"vote": Vote.YES})

    def _on_xa_commit(self, message: Message) -> None:
        txn = self.transactions.get((message.payload or {})["xid"])
        if txn is None:
            self.env.call_at(COSTS.datasource_request_ms, self._reply, message,
                             {"status": "error", "error": "unknown xid"})
        elif txn.state is TxnState.COMMITTED:
            # Idempotent: recovery may re-send the decision.
            self.env.call_at(COSTS.datasource_request_ms, self._reply, message,
                             {"status": "ok", "already": True})
        else:
            self.env.call_at(self._commit_ms, self._finish_commit,
                             message, txn, False)

    def _finish_commit(self, message: Message, txn: LocalTransaction,
                       one_phase: bool) -> None:
        """The commit cost is paid: commit the branch if it can take the verb.

        ``xa_commit`` needs a PREPARED branch, ``commit_one_phase`` an
        ACTIVE/IDLE one.  Any other state (a stray decision, or a rollback
        that landed while the cost was being paid) is refused.
        """
        if not txn.can("commit_one_phase" if one_phase else "commit"):
            self._reply(message, {"status": "error", "error": "not committable"})
            return
        self._end_branch(txn, commit=True)
        self._reply(message, {"status": "ok"})

    def _on_xa_rollback(self, message: Message):
        xid = (message.payload or {})["xid"]
        txn = self.transactions.get(xid)
        yield COSTS.datasource_request_ms
        if txn is None:
            self._reply(message, {"status": "ok", "already": True})
            return
        if txn.state is TxnState.ABORTED:
            self._reply(message, {"status": "ok", "already": True})
            return
        if txn.state is TxnState.COMMITTED:
            self._reply(message, {"status": "error", "error": "already committed"})
            return
        yield from self._abort_locally(txn)
        self._reply(message, {"status": "ok"})

    def _on_commit_one_phase(self, message: Message) -> None:
        """Single-source transactions commit without a separate prepare."""
        txn = self.transactions.get((message.payload or {})["xid"])
        if txn is None or txn.is_finished:
            self.env.call_at(COSTS.datasource_request_ms, self._reply, message,
                             {"status": "error", "error": "not committable"})
        else:
            self.env.call_at(self._commit_ms, self._finish_commit,
                             message, txn, True)

    def _retire(self, txn: LocalTransaction) -> None:
        """Queue a finished branch for eviction once the retention cap is hit.

        Keeps :attr:`transactions` O(1) over unbounded runs while leaving the
        most recent ``finished_txn_retention`` finished branches queryable
        (idempotent decision re-delivery, ``txn_state``).  Only finished
        branches are ever evicted, so recovery's PREPARED scan is unaffected.
        """
        retention = self.config.finished_txn_retention
        finished = self._finished_xids
        finished.append(txn.xid)
        while len(finished) > retention:
            xid = finished.popleft()
            old = self.transactions.get(xid)
            if old is not None and old.is_finished:
                del self.transactions[xid]

    def _abort_locally(self, txn: LocalTransaction):
        if txn.is_finished:
            return
        yield self._abort_ms
        if txn.is_finished:
            # Another handler (e.g. a peer-abort rollback racing with a lock
            # timeout) finished the branch while we were paying the abort cost.
            return
        self._end_branch(txn, commit=False)

    def _end_branch(self, txn: LocalTransaction, commit: bool,
                    served: bool = True) -> None:
        """Apply or discard the writes, log, finish the branch, release its locks.

        ``served=False`` drops a branch whose work is lost (the node-crash
        sweep and :meth:`kill_sessions`): no WAL record and no
        ``stats.aborts`` bump — crash-lost work is not a served abort, and
        the two fault kinds must account identically.
        """
        xid = txn.xid
        now = self.env.now
        if commit:
            self.engine.commit_writes(xid)
        else:
            self.engine.discard_writes(xid)
        if served:
            self.wal.append(LogRecordType.COMMIT if commit else LogRecordType.ABORT,
                            xid, now)
        if not commit:
            txn.mark_aborted(now)
        elif txn.state is TxnState.PREPARED:
            txn.mark_committed(now)
        else:
            txn.mark_committed_one_phase(now)
        self.lock_manager.release_all(xid)
        if commit:
            self.stats.commits += 1
        elif served:
            self.stats.aborts += 1
        self._retire(txn)

    # --------------------------------------------------------------- recovery
    def kill_sessions(self, global_txn_prefix: str) -> int:
        """Abort unfinished, unprepared branches of one coordinator's sessions.

        When a middleware crashes, the database server sees its connections
        drop and rolls back their in-progress (not yet prepared) branches —
        prepared branches survive for recovery, exactly as in §V-A.  Branch
        ownership is recognised by the global-transaction-id prefix the
        middleware stamps on every branch.  Returns the number of branches
        rolled back.
        """
        killed = 0
        for txn in list(self.transactions.values()):
            if (txn.state in (TxnState.ACTIVE, TxnState.IDLE)
                    and txn.global_txn_id.startswith(global_txn_prefix)):
                self._end_branch(txn, commit=False, served=False)
                killed += 1
        return killed

    def _on_list_prepared(self, message: Message):
        """XA RECOVER.  ``kill_prefix`` first kills a crashed coordinator's
        sessions: a batch it sent before the crash arrived earlier (per-link
        FIFO, as on every constant-latency link) and must not prepare."""
        yield COSTS.datasource_request_ms
        prefix = (message.payload or {}).get("kill_prefix")
        if prefix is not None:
            self.kill_sessions(prefix)
        prepared = [xid for xid, txn in self.transactions.items()
                    if txn.state is TxnState.PREPARED]
        self._reply(message, {"prepared": prepared})

    def _on_txn_state(self, message: Message):
        xid = (message.payload or {})["xid"]
        yield COSTS.datasource_request_ms
        txn = self.transactions.get(xid)
        self._reply(message, {"state": txn.state.value if txn else "unknown"})

    def _on_crash(self, message: Message):
        """Crash the node: in-flight work is lost, non-prepared branches abort."""
        yield self.env.timeout(0)
        self.crashed = True
        for txn in list(self.transactions.values()):
            if txn.state in (TxnState.ACTIVE, TxnState.IDLE):
                self._end_branch(txn, commit=False, served=False)
        self._reply(message, {"status": "crashed"})

    def _on_restart(self, message: Message):
        """Restart after a crash: prepared branches survive, the rest are gone."""
        yield COSTS.node_restart_ms
        self.crashed = False
        self._reply(message, {"status": "restarted"})

    def _on_ping(self, message: Message):
        yield self.env.timeout(0)
        self._reply(message, {"status": "ok", "time": self.env.now})

    # ------------------------------------------------- key-value verbs (ScalarDB)
    def _on_kv_get(self, message: Message):
        payload = message.payload or {}
        yield COSTS.datasource_request_ms + self._read_ms
        snapshot = self.engine.read(None, payload["table"], payload["key"])
        if snapshot is None:
            self._reply(message, {"found": False})
        else:
            self._reply(message, {"found": True, "value": snapshot.value,
                                  "version": snapshot.version})

    def _on_kv_put(self, message: Message):
        """Write a record (``kv_put_if_version``: only at ``expected_version``),
        or with ``restore_version`` put back the value and version a read saw."""
        payload = message.payload or {}
        yield COSTS.datasource_request_ms + self._write_ms
        if message.msg_type == protocol.MSG_KV_PUT_IF_VERSION:
            snapshot = self.engine.read(None, payload["table"], payload["key"])
            current_version = snapshot.version if snapshot else 0
            if current_version != payload["expected_version"]:
                self._reply(message, {"status": "conflict", "version": current_version})
                return
        table = self.engine.create_table(payload["table"])
        version = payload.get("restore_version")
        if version is None:
            version = table.put(payload["key"], payload["value"]).version
        else:
            table.restore(payload["key"], payload["value"], version)
        self._reply(message, {"status": "ok", "version": version})
