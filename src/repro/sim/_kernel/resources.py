"""Shared resources for simulation processes (kernel module).

:class:`Resource` is a counted resource with FIFO queuing (used for the
coordinator-thread model of the ScalarDB baseline).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List

from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment


class ResourceRequest(Event):
    """Pending request for one unit of a :class:`Resource`.

    Usable as a context manager so that the unit is always released::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an unfulfilled request from the wait queue."""
        self.resource._cancel(self)


class Resource:
    """A resource with ``capacity`` units granted to requesters in FIFO order."""

    __slots__ = ("env", "capacity", "_users", "_waiting")

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._users: List[ResourceRequest] = []
        self._waiting: Deque[ResourceRequest] = deque()

    @property
    def count(self) -> int:
        """Number of units currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self._waiting)

    def request(self) -> ResourceRequest:
        """Ask for one unit; the returned event fires once granted.

        A free unit is handed over in place: the request comes back already
        processed (``callbacks is None``), so nothing is queued only to be
        dispatched to nobody.
        """
        req = ResourceRequest(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req._value = None
            req.callbacks = None
        else:
            self._waiting.append(req)
        return req

    def release(self, request: ResourceRequest) -> None:
        """Return the unit held by ``request`` (no-op if it never got one)."""
        if request in self._users:
            self._users.remove(request)
            self._grant_next()
        else:
            self._cancel(request)

    def _cancel(self, request: ResourceRequest) -> None:
        try:
            self._waiting.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            req = self._waiting.popleft()
            if req._value is not PENDING:
                continue
            self._users.append(req)
            req.succeed(None)

