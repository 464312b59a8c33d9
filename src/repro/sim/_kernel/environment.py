"""The simulation environment: virtual clock and event queue (kernel module).

The :class:`Environment` owns the simulated clock (milliseconds, float) and
two scheduling structures:

* a **microqueue** (plain deque) of work that fires *now* — triggered events,
  finished processes and zero-delay callbacks.  Same-time work is dispatched
  in FIFO order without ever touching the heap;
* a **priority heap** of future work: ``(time, priority, sequence, entry)``
  tuples where ``entry`` is an :class:`~repro.sim._kernel.events.Event` or a
  lightweight :class:`Timer` created by :meth:`Environment.call_at`.

:meth:`Environment.run` drains the microqueue first, then pops the heap,
advancing the clock only on heap entries (microqueue work is by construction
at the current time).  The ``sequence`` counter is a plain int (bumped in-line
by the event classes as well, see :mod:`repro.sim._kernel.events`) so that
same-time heap entries keep FIFO order without the cost of an
:func:`itertools.count` call per schedule.

Ordering contract (relaxed since the reordering fast paths landed)
------------------------------------------------------------------

Entries are totally ordered by time; *within* one timestamp the engine
guarantees FIFO order per structure (microqueue first, then heap by priority
and sequence) but makes **no promise that this interleaving matches the old
heap-only engine byte for byte**.  Any change to same-timestamp interleaving
is validated by the statistical-equivalence harness
(:mod:`repro.bench.equivalence`) instead of byte-identical golden pins.

Cancellation is lazy: :meth:`cancel` (and :meth:`Timer.cancel`) only mark the
entry dead; dead entries are dropped when they reach the top of the heap, and
the whole heap is compacted once dead entries outnumber live ones.  Coarse
cancellable timeouts (lock waits, request timeouts) should instead use
:meth:`Environment.call_coarse`, which parks them on a hashed timer wheel:
set-then-cancel churn there never touches the heap at all.

The factory fast paths (``event``/``timeout``/``process``) are *declared
attributes* bound to ``partial`` objects in ``__init__`` rather than methods
shadowed per instance: the same call path at runtime, with a fixed attribute
layout.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heapify, heappop, heappush
from math import ceil
from typing import (Any, Callable, ClassVar, Deque, Dict, Final, Iterable,
                    List, Optional, Set, Tuple)

from .events import PENDING, AllOf, AnyOf, Condition, Event, Timeout
from .process import Process

#: Scheduling priorities: interrupts preempt normal events at the same time.
PRIORITY_URGENT: Final[int] = 0
PRIORITY_NORMAL: Final[int] = 1

#: Compact the heap when at least this many cancelled entries are buried in it
#: (and they outnumber the live ones); small queues are never worth compacting.
_COMPACT_MIN_CANCELLED: Final[int] = 64

#: Default tick width of the hashed timer wheel (:meth:`Environment.call_coarse`).
#: Coarse timers fire up to one tick *late* (never early); at 1 ms that is
#: 0.02 % of the paper's 5 s lock-wait timeout, below every other modelled
#: cost, while still letting all timers set within the same millisecond of
#: simulated time share a single heap entry.
WHEEL_GRANULARITY_MS: Final[float] = 1.0


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class Timer:
    """A lightweight scheduled callback (no :class:`Event` allocated).

    Produced by :meth:`Environment.call_at` for fire-and-forget work such as
    network message delivery.  The callback is stored as ``fn`` plus
    positional ``args`` so callers can pass bound methods instead of
    allocating a fresh closure per schedule.  ``cancel()`` defuses the timer
    in O(1); the heap entry is reclaimed lazily.
    """

    __slots__ = ("fn", "args", "env")

    #: Class-level marker: the dispatch loop recognises a Timer (or a
    #: cancelled Event) by ``callbacks is None`` and then consults ``fn``.
    callbacks: ClassVar[None] = None

    def __init__(self, fn: Callable[..., None], args: Tuple[Any, ...],
                 env: "Environment"):
        self.fn: Optional[Callable[..., None]] = fn
        self.args = args
        self.env = env

    @property
    def cancelled(self) -> bool:
        """True once the timer has been cancelled (or has fired)."""
        return self.fn is None

    def cancel(self) -> None:
        """Defuse the timer: its callback will never run."""
        if self.fn is not None:
            self.fn = None
            self.env._note_cancelled()


class _WheelBucket:
    """One tick's worth of wheel timers plus the shared heap entry.

    ``env`` is dropped once the tick has fired or its last live timer was
    cancelled: a handle someone still holds must not pin the environment.
    """

    __slots__ = ("env", "slot", "timers", "live", "timer")

    def __init__(self, env: "Environment", slot: int):
        self.env: Optional["Environment"] = env
        self.slot = slot
        self.timers: List["WheelTimer"] = []
        self.live: int = 0
        self.timer: Optional[Timer] = None


class WheelTimer:
    """A coarse cancellable timeout parked on the environment's timer wheel.

    Cancellation just clears ``fn`` and decrements its bucket's live count —
    no per-timer heap entry exists, so set-then-cancel churn (the lock
    manager's common case: most lock waits are granted long before their
    timeout) is O(1).  When the *last* live timer of a tick is cancelled the
    tick's shared heap entry is defused too, so a fully-cancelled tick never
    fires an empty slot (which would keep ``run()`` alive and advance the
    clock past the last real event).

    A cancelled or fired timer forgets its arguments and its bucket, so the
    usual ``owner.timer -> timer.args -> owner`` loop and the bucket's
    ``timers`` list never leave reference cycles behind.
    """

    __slots__ = ("fn", "args", "_bucket")

    def __init__(self, fn: Callable[..., None], args: Tuple[Any, ...],
                 bucket: _WheelBucket):
        self.fn: Optional[Callable[..., None]] = fn
        self.args = args
        self._bucket: Optional[_WheelBucket] = bucket

    @property
    def cancelled(self) -> bool:
        """True once the timer has been cancelled (or has fired)."""
        return self.fn is None

    def cancel(self) -> None:
        """Defuse the timer: its callback will never run."""
        bucket = self._bucket
        if bucket is None:
            return  # already cancelled or fired
        self.fn = None
        self.args = ()
        self._bucket = None
        bucket.live -= 1
        env = bucket.env
        if bucket.live == 0 and bucket.timer is not None and env is not None:
            # Whole tick dead: defuse the shared heap entry and forget the
            # bucket so a later call_coarse for the same slot starts fresh.
            bucket.timer.cancel()
            bucket.timer = None
            bucket.env = None
            env._wheel_buckets.pop(bucket.slot, None)


def _closed(*args: Any, **kwargs: Any) -> Any:
    raise RuntimeError("the environment has been closed")


class Environment:
    """A discrete-event simulation environment with a millisecond clock."""

    __slots__ = ("now", "active_process", "events_processed", "_queue",
                 "_soon", "_eid", "_cancelled", "wheel_granularity_ms",
                 "_wheel_buckets", "_alive", "event", "timeout", "process")

    #: Factory fast paths, bound in ``__init__``: ``timeout``/``event``/
    #: ``process`` are called tens of thousands of times per simulated second,
    #: and a C-level ``partial`` skips one Python frame per call.  Declared
    #: here (not as methods) so each is a fixed slot.
    event: Callable[[], Event]
    timeout: Callable[..., Timeout]
    process: Callable[..., Process]

    def __init__(self, initial_time: float = 0.0,
                 wheel_granularity_ms: float = WHEEL_GRANULARITY_MS):
        #: Current simulated time in milliseconds (read-only for models).
        self.now: float = float(initial_time)
        #: The process currently being resumed, if any.
        self.active_process: Optional[Process] = None
        #: Number of queue entries dispatched so far (microqueue + heap).
        self.events_processed: int = 0
        self._queue: List[Tuple[float, int, int, Any]] = []
        #: Same-time work in FIFO order: triggered Events / finished Processes,
        #: or ``(fn, args)`` tuples from :meth:`call_soon`.
        self._soon: Deque[Any] = deque()
        self._eid: int = 0
        self._cancelled: int = 0
        if wheel_granularity_ms <= 0:
            raise ValueError("wheel_granularity_ms must be positive")
        self.wheel_granularity_ms: float = float(wheel_granularity_ms)
        self._wheel_buckets: Dict[int, _WheelBucket] = {}
        #: Processes whose generator is suspended (kept by :class:`Process`);
        #: :meth:`close` needs them, nothing on the dispatch path reads it.
        self._alive: Set[Process] = set()
        self.event = partial(Event, self)
        self.timeout = partial(Timeout, self)
        self.process = partial(Process, self)

    # ------------------------------------------------------------- scheduling
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Enqueue ``event`` to be processed ``delay`` ms from now."""
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self.now + delay, priority, eid, event))

    def call_at(self, delay: float, fn: Callable[..., None],
                *args: Any) -> Timer:
        """Run ``fn(*args)`` ``delay`` ms from now; returns a cancellable handle.

        This is the cheap alternative to ``timeout(delay).callbacks.append``
        for internal bookkeeping that no process ever waits on.  Scheduling
        order is identical to an equivalently-timed :class:`Timeout`.
        """
        timer = Timer(fn, args, self)
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self.now + delay, PRIORITY_NORMAL, eid, timer))
        return timer

    def call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at the current time, after already-queued
        same-time work (FIFO).  Not cancellable; never touches the heap.

        This is the public form of the microqueue's ``(fn, args)`` entry
        protocol.  The network model inlines the append on its zero-delay
        paths (one attribute lookup saved per message); model extensions
        should call this instead of touching ``_soon`` directly.
        """
        self._soon.append((fn, args))

    def call_coarse(self, delay: float, fn: Callable[..., None],
                    *args: Any) -> WheelTimer:
        """Run ``fn(*args)`` on the hashed timer wheel; returns a handle.

        The deadline is rounded **up** to the next wheel tick
        (``wheel_granularity_ms``), so the callback fires at most one tick
        late and never early.  All timers sharing a tick share a single heap
        entry, and cancelling — the overwhelmingly common fate of lock-wait
        timers — never touches the heap.  Same-tick timers fire in the order
        they were set.
        """
        granularity = self.wheel_granularity_ms
        slot = ceil((self.now + delay) / granularity)
        bucket = self._wheel_buckets.get(slot)
        if bucket is None:
            self._wheel_buckets[slot] = bucket = _WheelBucket(self, slot)
            bucket.timer = self.call_at(slot * granularity - self.now,
                                        self._fire_wheel_slot, slot)
        timer = WheelTimer(fn, args, bucket)
        bucket.timers.append(timer)
        bucket.live += 1
        return timer

    def _fire_wheel_slot(self, slot: int) -> None:
        bucket = self._wheel_buckets.pop(slot, None)
        if bucket is None:
            return
        bucket.timer = None
        bucket.env = None
        for timer in bucket.timers:
            fn = timer.fn
            if fn is not None:
                args = timer.args
                timer.fn = None
                timer.args = ()
                timer._bucket = None
                fn(*args)

    def cancel(self, event: Event) -> None:
        """Cancel a triggered-but-unprocessed event: its callbacks never run.

        Only use this on events whose callbacks you own (e.g. an internal
        timer); waiters subscribed to the event would never be resumed.
        """
        if event.callbacks is not None:
            event.callbacks = None
            # Heap dead-entry accounting applies only to entries that live
            # in the heap — i.e. future Timeouts.  Triggered events sit on
            # the microqueue (dropped for free at drain time), so counting
            # them would trigger pointless O(n) compactions.
            if event.__class__ is Timeout and event.delay:
                self._note_cancelled()

    def _note_cancelled(self) -> None:
        self._cancelled = cancelled = self._cancelled + 1
        if (cancelled >= _COMPACT_MIN_CANCELLED
                and cancelled * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Drop dead entries from the heap and re-heapify the survivors.

        The queue list is mutated IN PLACE: the dispatch loop in :meth:`run`
        (and event-triggering code in :mod:`.events`) holds direct
        references to the list object, so rebinding ``self._queue`` here would
        silently split the simulation across two queues.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue
                    if entry[3].callbacks is not None
                    or entry[3].fn is not None]
        heapify(queue)
        self._cancelled = 0

    def peek(self) -> float:
        """Time of the next live scheduled entry, or ``inf`` if none."""
        soon = self._soon
        while soon:
            entry = soon[0]
            if entry.__class__ is tuple or entry.callbacks is not None:
                return self.now
            soon.popleft()  # cancelled while queued: drop it
        queue = self._queue
        while queue:
            head = queue[0]
            entry = head[3]
            if entry.callbacks is not None or entry.fn is not None:
                return head[0]
            heappop(queue)
            if self._cancelled:
                self._cancelled -= 1
        return float("inf")

    # ------------------------------------------------------------- factories
    # ``event``/``timeout``/``process`` are declared attributes bound to
    # partial objects in ``__init__`` (see class body above).
    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # --------------------------------------------------------------- teardown
    def close(self) -> None:
        """Abandon the simulation so that it dies by reference counting.

        Every suspended generator is closed (its ``finally`` blocks run) and
        unlinked from the event it waited on, pending work is dropped and the
        factories are disabled.  A parked process and its target reference
        each other, and the factories reference the environment, so without
        this a finished run is one large reference cycle that only the cyclic
        collector can reclaim.  Idempotent; the clock and ``events_processed``
        stay readable.
        """
        while self._alive:
            process = self._alive.pop()
            target = process._target
            if target is not None:
                target.callbacks = None
                if isinstance(target, Condition):
                    for child in target._events:
                        child.callbacks = None
            process._target = None
            process._sleep = None
            process.callbacks = None
            process._generator.close()
        for bucket in list(self._wheel_buckets.values()):
            for timer in bucket.timers:
                timer.cancel()  # the last one of a tick forgets the bucket
        self._queue.clear()
        self._soon.clear()
        self.event = self.timeout = self.process = _closed

    # -------------------------------------------------------------- execution
    def _dispatch_soon(self, entry: Any) -> None:
        """Dispatch one microqueue entry (shared by :meth:`step` and tests)."""
        if entry.__class__ is tuple:
            self.events_processed += 1
            fn, args = entry
            fn(*args)
            return
        callbacks = entry.callbacks
        if callbacks is None:
            return  # cancelled while queued
        self.events_processed += 1
        entry.callbacks = None
        for callback in callbacks:
            callback(entry)
        if not entry._ok and not entry.defused:
            raise entry._value

    def step(self) -> None:
        """Process the next scheduled entry (skipping cancelled ones)."""
        soon = self._soon
        while soon:
            entry = soon.popleft()
            if entry.__class__ is tuple or entry.callbacks is not None:
                self._dispatch_soon(entry)
                return
        queue = self._queue
        while True:
            try:
                when, _priority, _eid, event = heappop(queue)
            except IndexError:
                raise EmptySchedule() from None
            callbacks = event.callbacks
            if callbacks is not None:
                break
            fn = event.fn
            if fn is not None:
                # Lightweight timer: fire and return.
                self.now = when
                self.events_processed += 1
                event.fn = None
                fn(*event.args)
                return
            if self._cancelled:
                self._cancelled -= 1
        self.now = when
        self.events_processed += 1
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            # An event failed and nobody was prepared to handle it: surface
            # the error instead of silently dropping it.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be a time (run until the clock reaches it), an
        :class:`Event` (run until it triggers; its value is returned), or
        ``None`` (run until no events remain).
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None

        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self.now:
                raise ValueError(
                    f"until ({stop_time}) must not be in the past (now={self.now})")

        # The dispatch loop below is `peek` + `step` inlined: it runs once per
        # simulated event, so the per-iteration call overhead matters.
        queue = self._queue
        soon = self._soon
        while True:
            if stop_event is not None and stop_event.callbacks is None:
                value = stop_event._value
                if value is PENDING:
                    raise RuntimeError(
                        "until event will never fire (it was cancelled)")
                if stop_event._ok:
                    return value
                raise value

            # Same-time work first: microqueue entries were created at the
            # current clock value, so they never advance time.
            if soon:
                entry = soon.popleft()
                if entry.__class__ is tuple:
                    self.events_processed += 1
                    fn, args = entry
                    fn(*args)
                else:
                    callbacks = entry.callbacks
                    if callbacks is None:
                        continue  # cancelled while queued
                    self.events_processed += 1
                    entry.callbacks = None
                    for callback in callbacks:
                        callback(entry)
                    if not entry._ok and not entry.defused:
                        raise entry._value
                continue

            while queue:
                head = queue[0]
                entry = head[3]
                if entry.callbacks is not None or entry.fn is not None:
                    break
                heappop(queue)
                if self._cancelled:
                    self._cancelled -= 1
            else:
                if stop_event is not None and stop_event._value is PENDING:
                    raise RuntimeError(
                        "simulation ran out of events before the awaited event fired")
                if stop_time is not None:
                    self.now = stop_time
                return None

            when = head[0]
            if stop_time is not None and when > stop_time:
                self.now = stop_time
                return None

            heappop(queue)
            event = head[3]
            self.now = when
            self.events_processed += 1
            callbacks = event.callbacks
            if callbacks is not None:
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event.defused:
                    raise event._value
            else:
                fn = event.fn
                event.fn = None
                fn(*event.args)
