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
events never sit on the heap (whose job is ordering *future* work).  A
:class:`Timeout` is no exception: a timer on the heap triggers it when its
delay has passed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

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

    The lifecycle is: *pending* -> *triggered* (queued on the microqueue)
    -> *processed* (callbacks executed).  An event can be triggered at most
    once, either successfully via :meth:`succeed` or with an exception via
    :meth:`fail`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.callbacks is None else (
            "triggered" if self._value is not PENDING else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that succeeds with ``value`` after a fixed simulated delay.

    A process waits for time with ``yield <ms>``; this event form remains
    for code that subscribes a callback to a point in simulated time.  A
    zero delay succeeds at once, so a process that yields it goes on without
    suspending.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        if delay:
            env.call_at(delay, self.succeed, value)
        else:
            self.succeed(value)
