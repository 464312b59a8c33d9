"""Event primitives for the discrete-event simulation engine (kernel module).

An :class:`Event` is a one-shot occurrence in simulated time.  Processes wait
on events by yielding them; when the event *succeeds* (or *fails*) the waiting
process is resumed with the event's value (or the failure exception is thrown
into it).

There is no composite event: code that waits for several replies at once (a
coordinator's round, prepare votes, decision acks) subscribes to each with a
plain callback and gathers the values itself
(:class:`repro.middleware.middleware.Replies`).

Everything here is on the simulation's hot path: the classes are slotted, and
triggering appends straight onto the environment's same-time microqueue
(``env._soon``) — an event always triggers *at the current simulated time*, so
the heap (whose job is ordering *future* work) is never involved.  Only
:class:`Timeout` still pushes onto the heap, because its firing time lies in
the future; its entry layout ``(time, sequence, event)`` is shared with the
environment module.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, ClassVar, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .environment import Environment


class Interrupt(Exception):
    """Raised inside a process that has been interrupted by another process."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _PendingValue:
    """Sentinel for "this event has not been given a value yet"."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<pending>"


PENDING: Any = _PendingValue()


class Event:
    """A one-shot event that processes can wait on.

    The lifecycle is: *pending* -> *triggered* (scheduled on the event queue)
    -> *processed* (callbacks executed).  An event can be triggered at most
    once, either successfully via :meth:`succeed` or with an exception via
    :meth:`fail`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    #: Class-level marker so the dispatch loop can tell an Event apart from a
    #: lightweight scheduled callback (see ``Environment.call_at``).
    fn: ClassVar[None] = None

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: Set to True by a waiter that handles failures itself; prevents the
        #: environment from treating an unhandled failed event as fatal.
        self.defused: bool = False

    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (success or failure)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if self._value is PENDING:
            raise RuntimeError("value of untriggered event is not available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._soon.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure carrying ``exception``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._soon.append(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (for chaining)."""
        if self._value is not PENDING:
            return
        self._ok = event._ok
        self._value = event._value
        self.env._soon.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.callbacks is None else (
            "triggered" if self._value is not PENDING else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ + schedule: a Timeout is born triggered, and
        # this constructor runs once per simulated wait.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.delay = delay
        if delay == 0.0:
            # Fires at the current time: same-time FIFO via the microqueue.
            env._soon.append(self)
        else:
            env._eid = eid = env._eid + 1
            heappush(env._queue, (env.now + delay, eid, self))
