"""Strict two-phase-locking lock manager (kernel module).

This models the record-level locking behaviour of MySQL/InnoDB and PostgreSQL
that GeoTP's scheduling reasons about: shared/exclusive locks, FIFO wait
queues, lock-wait timeouts (``innodb_lock_wait_timeout`` is 5 s in the paper's
setup) and an optional wait-for-graph deadlock detector.

The manager is written against the simulation engine: :meth:`LockManager.acquire`
returns an event that the data-source process yields on; the event fires with
the grant once the lock is available, or fails with :class:`LockTimeoutError`
(or :class:`DeadlockError`) otherwise.

:class:`LockRequest` and :class:`_LockEntry` are plain slotted classes:
requests compare by identity, since each carries a unique :class:`Event`.
"""

from __future__ import annotations

import enum
from typing import Dict, Hashable, List, Optional, Set

from .environment import Environment, WheelTimer
from .events import PENDING, Event


class LockMode(enum.Enum):
    """Lock modes: shared for reads, exclusive for writes."""

    SHARED = "S"
    EXCLUSIVE = "X"


class LockTimeoutError(Exception):
    """A lock request waited longer than the configured lock-wait timeout."""

    def __init__(self, txn_id: str, key: Hashable, waited_ms: float):
        super().__init__(f"txn {txn_id} timed out after {waited_ms:.1f} ms waiting for {key!r}")
        self.txn_id = txn_id
        self.key = key
        self.waited_ms = waited_ms


class DeadlockError(Exception):
    """The deadlock detector chose this transaction as a victim."""

    def __init__(self, txn_id: str, cycle: List[str]):
        super().__init__(f"txn {txn_id} aborted to break deadlock cycle {cycle}")
        self.txn_id = txn_id
        self.cycle = cycle


def _compatible(held: LockMode, requested: LockMode) -> bool:
    """Lock compatibility matrix: only S/S is compatible."""
    return held is LockMode.SHARED and requested is LockMode.SHARED


class LockRequest:
    """A pending or granted request for one record lock."""

    __slots__ = ("txn_id", "key", "mode", "event", "requested_at",
                 "granted_at", "timer")

    def __init__(self, txn_id: str, key: Hashable, mode: LockMode,
                 event: Event, requested_at: float,
                 granted_at: Optional[float] = None,
                 timer: Optional[WheelTimer] = None):
        self.txn_id = txn_id
        self.key = key
        self.mode = mode
        self.event = event
        self.requested_at = requested_at
        self.granted_at = granted_at
        #: Lock-wait timer on the environment's hashed timer wheel, cancelled
        #: when the request is granted.  Wheel timers never occupy a heap
        #: entry, so grant-then-cancel churn is O(1) with no lazy-deletion
        #: debt.  The timer's args hold this request, so grant and expiry
        #: unlink both directions and no reference cycle outlives the wait.
        self.timer = timer

    @property
    def granted(self) -> bool:
        return self.granted_at is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LockRequest(txn_id={self.txn_id!r}, key={self.key!r}, "
                f"mode={self.mode!r}, granted_at={self.granted_at!r})")


class _LockEntry:
    """Per-record lock state: current holders and the FIFO wait queue.

    ``holders`` is in grant order (a plain dict keeps insertion order), which
    the deadlock search relies on.
    """

    __slots__ = ("holders", "queue")

    def __init__(self, holders: Dict[str, LockMode]) -> None:
        self.holders: Dict[str, LockMode] = holders
        self.queue: List[LockRequest] = []


class LockStats:
    """Counters describing lock manager activity."""

    __slots__ = ("acquisitions", "waits", "timeouts", "deadlocks",
                 "total_wait_ms")

    def __init__(self) -> None:
        self.acquisitions: int = 0
        self.waits: int = 0
        self.timeouts: int = 0
        self.deadlocks: int = 0
        self.total_wait_ms: float = 0.0


class LockManager:
    """Record-level strict 2PL with FIFO waiting and timeout-based abort."""

    __slots__ = ("env", "lock_wait_timeout_ms", "enable_deadlock_detection",
                 "_locks", "_held_by_txn", "_pending_by_txn", "stats",
                 "_granted")

    def __init__(self, env: Environment, lock_wait_timeout_ms: float = 5000.0,
                 enable_deadlock_detection: bool = False):
        self.env = env
        self.lock_wait_timeout_ms = lock_wait_timeout_ms
        self.enable_deadlock_detection = enable_deadlock_detection
        self._locks: Dict[Hashable, _LockEntry] = {}
        # Keys per transaction in *acquisition order*, each with its lock
        # entry (which stays in ``_locks`` for as long as it has a holder), so
        # release needs no second look-up.  Iteration order feeds lock
        # hand-off on release, so it must not depend on the per-process string
        # hash seed — a plain set here made whole simulations diverge between
        # processes.
        self._held_by_txn: Dict[str, Dict[Hashable, _LockEntry]] = {}
        # Still-waiting requests per transaction, so release_all can withdraw
        # them in O(pending) instead of scanning every lock entry in the
        # system (which made each commit O(total locks)).
        self._pending_by_txn: Dict[str, List[LockRequest]] = {}
        self.stats = LockStats()
        #: The one event every immediate grant returns: already processed
        #: (``callbacks is None``), waited 0.0 ms.  Shared, so nobody may
        #: mutate it; a waiter reads it without ever touching the queue.
        self._granted = Event(env)
        self._granted.callbacks = None
        self._granted._value = 0.0

    # -------------------------------------------------------------- inspection
    def holders(self, key: Hashable) -> Dict[str, LockMode]:
        """Current lock holders of ``key`` (may be empty)."""
        entry = self._locks.get(key)
        return dict(entry.holders) if entry else {}

    def queue_length(self, key: Hashable) -> int:
        """Number of requests waiting on ``key``."""
        entry = self._locks.get(key)
        return len(entry.queue) if entry else 0

    def locks_held(self, txn_id: str) -> Set[Hashable]:
        """Keys currently locked by ``txn_id``."""
        return set(self._held_by_txn.get(txn_id, ()))

    def waiting_transactions(self, key: Hashable) -> List[str]:
        """Transaction ids queued on ``key`` in FIFO order."""
        entry = self._locks.get(key)
        return [req.txn_id for req in entry.queue] if entry else []

    # -------------------------------------------------------------- acquisition
    def acquire(self, txn_id: str, key: Hashable, mode: LockMode,
                timeout_ms: Optional[float] = None) -> Event:
        """Request a lock; the returned event fires when granted or fails.

        The event's value is the wait time in milliseconds.  Failure modes are
        :class:`LockTimeoutError` and :class:`DeadlockError`.

        A lock that can be granted at once (a free record — the overwhelmingly
        common case — a compatible share, a re-entrant request) is granted in
        place: the books are updated and the shared, already-processed
        :attr:`_granted` event is returned, so the grant costs no request, no
        event and no queue entry.  Only a request that waits gets a
        :class:`LockRequest`.
        """
        entry = self._locks.get(key)
        if entry is None:
            # Nobody holds or waits for the record: nothing to check.
            self._locks[key] = entry = _LockEntry({txn_id: mode})
            granted = True
        else:
            granted = self._can_grant(entry, txn_id, mode)
            if granted and entry.holders.get(txn_id) is not LockMode.EXCLUSIVE:
                entry.holders[txn_id] = mode
        if granted:
            held = self._held_by_txn.get(txn_id)
            if held is None:
                self._held_by_txn[txn_id] = held = {}
            held[key] = entry
            self.stats.acquisitions += 1
            return self._granted

        # Must wait.
        timeout_ms = self.lock_wait_timeout_ms if timeout_ms is None else timeout_ms
        request = LockRequest(txn_id=txn_id, key=key, mode=mode,
                              event=Event(self.env), requested_at=self.env.now)
        self.stats.waits += 1
        entry.queue.append(request)

        if self.enable_deadlock_detection:
            victim_cycle = self._find_cycle_from(txn_id)
            if victim_cycle:
                self.stats.deadlocks += 1
                entry.queue.remove(request)
                request.event.defused = True
                request.event.fail(DeadlockError(txn_id, victim_cycle))
                return request.event

        self._pending_by_txn.setdefault(txn_id, []).append(request)

        if timeout_ms != float("inf"):
            # Coarse wheel timer (allocation-free args form, no per-request
            # closure): lock waits may expire up to one wheel tick late,
            # which is noise against the paper's 5 s timeout.
            request.timer = self.env.call_coarse(timeout_ms, self._expire,
                                                 request, entry)
        return request.event

    def _expire(self, req: LockRequest, ent: _LockEntry) -> None:
        """Wheel-timer callback: fail a still-waiting request with a timeout."""
        req.timer = None  # fired: the wheel already forgot the request
        if req.granted_at is not None or req.event._value is not PENDING:
            return
        if req in ent.queue:
            ent.queue.remove(req)
        self._discard_pending(req)
        self.stats.timeouts += 1
        waited = self.env.now - req.requested_at
        req.event.fail(LockTimeoutError(req.txn_id, req.key, waited))

    def _can_grant(self, entry: _LockEntry, txn_id: str, mode: LockMode) -> bool:
        """True if a new request needs no wait (:meth:`acquire` only)."""
        holders = entry.holders
        if not holders:
            return not entry.queue  # respect FIFO: queued requests go first
        if txn_id in holders:
            held = holders[txn_id]
            if held is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                return True  # re-entrant or downgrade-compatible
            # Upgrade S -> X allowed only if we are the sole holder.
            return len(holders) == 1
        if entry.queue:
            return False  # someone is already waiting; keep FIFO order
        return all(_compatible(held, mode) for held in holders.values())

    def _discard_pending(self, request: LockRequest) -> None:
        """Drop ``request`` from the per-txn pending index (if present)."""
        pending = self._pending_by_txn.get(request.txn_id)
        if pending is not None:
            try:
                pending.remove(request)
            except ValueError:
                return
            if not pending:
                del self._pending_by_txn[request.txn_id]

    def _grant(self, entry: _LockEntry, request: LockRequest) -> None:
        previous = entry.holders.get(request.txn_id)
        if previous is LockMode.EXCLUSIVE:
            effective = LockMode.EXCLUSIVE
        else:
            effective = request.mode
        entry.holders[request.txn_id] = effective
        self._held_by_txn.setdefault(request.txn_id, {})[request.key] = entry
        request.granted_at = self.env.now
        timer = request.timer
        if timer is not None:
            # Defuse the lock-wait timeout: granted-after-wait requests must
            # not leave stale timers bloating the event heap.
            timer.cancel()
            request.timer = None
        if self._pending_by_txn:
            self._discard_pending(request)
        waited = request.granted_at - request.requested_at
        self.stats.acquisitions += 1
        self.stats.total_wait_ms += waited
        request.event.succeed(waited)

    # ----------------------------------------------------------------- release
    def release_all(self, txn_id: str) -> None:
        """Release every lock held by ``txn_id`` and grant eligible waiters.

        Locks are handed off in acquisition order, which keeps simultaneous
        grant decisions deterministic across processes.  The whole release is
        O(held + pending) — the per-txn pending index replaces the old scan
        over every lock entry in the system, which made each commit O(total
        locks) and whole runs quadratic.
        """
        held = self._held_by_txn.pop(txn_id, None)
        if held:
            for key, entry in held.items():
                entry.holders.pop(txn_id, None)
                if entry.queue:
                    self._grant_waiters(entry)
                if not entry.holders and not entry.queue:
                    del self._locks[key]
        # Also withdraw any still-pending requests of this transaction.  Their
        # lock-wait timers stay armed on purpose: a withdrawn request's wait
        # event still fails with LockTimeoutError when the timer fires, waking
        # whoever blocked on it — exactly as the pre-index implementation did.
        pending = self._pending_by_txn.pop(txn_id, None)
        if pending:
            for request in pending:
                if request.event._value is not PENDING:
                    continue
                entry = self._locks.get(request.key)
                if entry is not None:
                    try:
                        entry.queue.remove(request)
                    except ValueError:
                        pass

    def _grant_waiters(self, entry: _LockEntry) -> None:
        progressed = True
        while progressed and entry.queue:
            progressed = False
            head = entry.queue[0]
            if head.event.triggered:
                entry.queue.pop(0)
                progressed = True
                continue
            grantable = (not entry.holders
                         or head.txn_id in entry.holders
                         or all(_compatible(mode, head.mode)
                                for mode in entry.holders.values()))
            if grantable:
                entry.queue.pop(0)
                self._grant(entry, head)
                progressed = True

    # ------------------------------------------------------- deadlock detection
    def _wait_for_edges(self) -> Dict[str, Dict[str, None]]:
        """Ordered ``waiter -> holders`` edges of the current wait-for graph.

        Holders are listed in lock-grant order (never hash order), so the
        deadlock search below visits them deterministically across processes.
        """
        graph: Dict[str, Dict[str, None]] = {}
        for entry in self._locks.values():
            for request in entry.queue:
                blockers = graph.setdefault(request.txn_id, {})
                for holder in entry.holders:
                    if holder != request.txn_id:
                        blockers[holder] = None
        return {waiter: blockers for waiter, blockers in graph.items() if blockers}

    def wait_for_graph(self) -> Dict[str, Set[str]]:
        """Edges ``waiter -> holder`` of the current wait-for graph."""
        return {waiter: set(blockers)
                for waiter, blockers in self._wait_for_edges().items()}

    def _find_cycle_from(self, start: str) -> Optional[List[str]]:
        graph = self._wait_for_edges()
        path: List[str] = []
        visited: Set[str] = set()

        def visit(node: str) -> Optional[List[str]]:
            if node in path:
                return path[path.index(node):] + [node]
            if node in visited:
                return None
            visited.add(node)
            path.append(node)
            for neighbour in graph.get(node, ()):
                cycle = visit(neighbour)
                if cycle:
                    return cycle
            path.pop()
            return None

        return visit(start)
