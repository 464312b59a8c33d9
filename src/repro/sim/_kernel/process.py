"""Generator-based processes for the simulation engine (kernel module).

A :class:`Process` wraps a Python generator.  Each ``yield`` hands the
environment either an :class:`~repro.sim._kernel.events.Event`, and the
generator is resumed with the event's value once it fires, or a number of
milliseconds to sleep (``yield 5.0``).  A process is itself an event
that triggers when the generator returns (its value is the generator's return
value), so processes can wait on each other.

Processes are **run-to-first-yield**: ``env.process()`` executes the generator
inline until it first suspends, instead of scheduling an init event on the
heap.  Spawning a process therefore costs no queue entry and no dispatch —
which matters because the server loops in ``DataSource``/``GeoAgent`` spawn
one daemon handler per network message.  The visible consequence is that a
freshly spawned process's body has already run up to its first ``yield`` by
the time ``env.process()`` returns (the old engine deferred that to the next
dispatch); this same-time reordering is covered by the statistical-equivalence
harness (:mod:`repro.bench.equivalence`), not by byte-identical goldens.

The resume loop is the single hottest function of the whole simulator (it runs
once per event wait), so it reads event state directly (``_ok`` / ``_value``
/ ``callbacks``) instead of going through the public properties, and the
generator's bound ``send``/``throw`` are cached at construction time.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Generator, Optional, Tuple

from .events import PENDING, Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment


class _Wake:
    """Immutable stand-in event a sleeping process is resumed with."""

    __slots__ = ()
    _ok: ClassVar[bool] = True
    _value: ClassVar[None] = None


_WAKE = _Wake()


class _SleepEntry:
    """Reusable heap carrier for the ``yield <number>`` sleep.

    A process sleeps at most once at a time, so one carrier per process is
    re-armed for every sleep: no event, no callbacks list, no subscription —
    the heap pop resumes the generator directly.  To the dispatch loop it is
    a ``Timer``: ``fn`` (None once defused) called with ``args``.
    """

    __slots__ = ("fn", "_bound")

    args: ClassVar[Tuple[Any, ...]] = ()

    def __init__(self, process: "Process"):
        self._bound: Callable[[], None] = partial(process._resume, _WAKE)
        self.fn: Optional[Callable[[], None]] = None


class Process(Event):
    """An active simulation process driving a generator of events."""

    __slots__ = ("name", "_generator", "_send", "_throw", "_target", "_daemon",
                 "_sleep")

    def __init__(self, env: "Environment", generator: Generator, name: str = "",
                 daemon: bool = False):
        try:
            send = generator.send
            throw = generator.throw
        except AttributeError:
            raise TypeError(f"{generator!r} is not a generator") from None
        super().__init__(env)
        self.name: str = name or getattr(generator, "__name__", "process")
        #: Daemon processes are fire-and-forget servers: when one finishes
        #: successfully with no subscribers, its completion event skips the
        #: queue entirely (nobody could observe the dispatch).
        self._daemon = daemon
        self._generator = generator
        self._send: Callable[[Any], Any] = send
        self._throw: Callable[[Any], Any] = throw
        self._target: Any = None
        self._sleep: Optional[_SleepEntry] = None
        # Run-to-first-yield: drive the generator inline, at the current
        # time, until it first suspends (or finishes).  ``active_process`` is
        # saved and restored so a process that spawns children mid-execution
        # still sees itself as active afterwards.  The shared ``_WAKE``
        # stand-in replaces the old per-spawn init event: its value (None)
        # is consumed synchronously, so no allocation is needed.
        previous = env.active_process
        self._resume(_WAKE)
        env.active_process = previous
        if self._value is PENDING:
            # Suspended: register for ``Environment.close``, which must find
            # every parked generator (completion discards the entry).
            env._alive.add(self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Any:
        """The event this process is currently waiting for (if any)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process at the current time.

        The interrupt preempts same-time work: it jumps to the *front* of
        the microqueue.  *Multiple* pending same-timestamp interrupts are
        therefore delivered LIFO — no caller double-interrupts within one
        timestamp, so the simple front-of-queue rule suffices.
        """
        if self._value is not PENDING:
            raise RuntimeError("cannot interrupt a finished process")
        if self.env.active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        sleep = self._sleep
        if sleep is not None and sleep.fn is not None:
            # Interrupted mid-sleep: defuse the armed carrier so the stale
            # wake-up cannot resume the process a second time, and drop the
            # carrier entirely — its dead entry is still buried in the heap,
            # and re-arming the same object for a later sleep would let that
            # stale entry fire the new sleep early.
            sleep.fn = None
            self._sleep = None
            self.env._note_cancelled()
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        interrupt_event.callbacks = [self._resume]
        self.env._soon.appendleft(interrupt_event)

    def _resume(self, event: Any) -> None:
        """Advance the generator with the outcome of ``event``.

        ``event`` is the fired :class:`Event` — or the shared ``_WAKE``
        stand-in when resuming from a sleep-carrier or the inline first run.
        """
        env = self.env
        # Drop our subscription on the event we were waiting for: a process
        # interrupted while waiting must not be resumed again by that event.
        target = self._target
        if target is not None and target is not event:
            target_callbacks = target.callbacks
            if target_callbacks is not None and self._resume in target_callbacks:
                target_callbacks.remove(self._resume)
        self._target = None

        env.active_process = self
        send = self._send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event.defused = True
                    next_event = self._throw(event._value)
            except StopIteration as stop:
                env.active_process = None
                self._ok = True
                self._value = stop.value
                # Drop the sleep carrier: its ``partial(self._resume, ...)``
                # closes the only reference *cycle* a finished process sits
                # on, so clearing it here lets plain refcounting reclaim the
                # process, its generator and their bound methods immediately —
                # long runs stay O(1) in memory even with the cyclic GC
                # suspended (see ``bench.runner``).  The carrier cannot be
                # armed at this point: an armed carrier means the process is
                # sleeping, not returning.
                self._sleep = None
                env._alive.discard(self)
                if self._daemon and not self.callbacks:
                    # Fire-and-forget completion: mark processed in place.
                    self.callbacks = None
                    return
                env._soon.append(self)
                return
            except BaseException as exc:  # noqa: BLE001 - process failure propagates as event failure
                env.active_process = None
                self._ok = False
                self._value = exc
                self._sleep = None
                env._alive.discard(self)
                env._soon.append(self)
                return

            if not isinstance(next_event, Event):
                cls = next_event.__class__
                if cls is float or cls is int:
                    # ``yield <delay_ms>`` is how a process waits for time:
                    # the resume is parked on a reusable heap carrier and
                    # the process is resumed with None.
                    if next_event < 0:
                        env.active_process = None
                        error = ValueError(f"negative delay {next_event}")
                        self._ok = False
                        self._value = error
                        self._sleep = None
                        env._alive.discard(self)
                        env._soon.append(self)
                        return
                    entry = self._sleep
                    if entry is None:
                        self._sleep = entry = _SleepEntry(self)
                    entry.fn = entry._bound
                    env._eid = eid = env._eid + 1
                    heappush(env._queue, (env.now + next_event, eid, entry))
                    env.active_process = None
                    return
                env.active_process = None
                bad = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}")
                self._ok = False
                self._value = bad
                self._sleep = None
                env._alive.discard(self)
                env._soon.append(self)
                return

            callbacks = next_event.callbacks
            if callbacks is None:
                # Already fired: loop immediately with its value instead of
                # round-tripping the queue.
                event = next_event
                continue
            if next_event._value is not PENDING:
                # Triggered but not yet dispatched: it waits on the
                # microqueue, so it is due at the *current* time.  Consume it
                # inline.  The queued entry still dispatches later this
                # timestamp for any other subscribers; we simply don't wait
                # our turn — same-timestamp reordering covered by the
                # equivalence harness.
                event = next_event
                continue

            # Subscribe and suspend.
            callbacks.append(self._resume)
            self._target = next_event
            env.active_process = None
            return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"
