"""Shared resources for simulation processes (kernel module).

Two primitives are provided:

* :class:`Resource` — a counted resource with FIFO queuing (used for the
  coordinator-thread model of the ScalarDB baseline).
* :class:`Store` — an unbounded FIFO message queue (used for node inboxes in
  the network model).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

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


class StoreGet(Event):
    """Pending retrieval from a :class:`Store`."""

    __slots__ = ()


class Store:
    """An unbounded FIFO queue of items with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event that fires with the oldest
    item as soon as one is available.

    A store can alternatively run in **direct-consumer** mode
    (:meth:`set_consumer`): every ``put`` hands the item straight to a
    callback instead of queueing it.  The server loops (``DataSource``,
    ``GeoAgent``, the middleware inbox) use this to skip the whole
    get-event/resume round trip — one per network message — that the
    ``yield receive()`` pattern costs.  Consumer mode and ``get`` are
    mutually exclusive by design.
    """

    __slots__ = ("env", "_items", "_getters", "consumer")

    def __init__(self, env: "Environment"):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()
        #: The direct consumer (:meth:`set_consumer`), or None.  Read-only
        #: for everything but :meth:`set_consumer` and the network's
        #: ``close``: a sender may call it in place of :meth:`put`.
        self.consumer: Optional[Callable[[Any], None]] = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[Any]:
        """Snapshot of the queued items (oldest first)."""
        return list(self._items)

    def set_consumer(self, fn: Callable[[Any], None]) -> None:
        """Switch to direct-consumer mode: every ``put`` calls ``fn(item)``.

        Must be set before any items are queued or getters are waiting; the
        consumer is invoked synchronously at delivery-dispatch time, which is
        when a ``yield receive()`` loop would have been resumed anyway (minus
        the event round trip).
        """
        if self._items or self._getters:
            raise RuntimeError("set_consumer on a store that is already in use")
        self.consumer = fn

    def put(self, item: Any) -> None:
        """Append ``item``, waking the oldest waiting getter if any."""
        consumer = self.consumer
        if consumer is not None:
            consumer(item)
            return
        while self._getters:
            getter = self._getters.popleft()
            if getter._value is not PENDING:
                continue
            getter.succeed(item)
            return
        self._items.append(item)

    def get(self) -> StoreGet:
        """Return an event that fires with the next item."""
        if self.consumer is not None:
            # Puts are routed straight to the consumer; a getter's event
            # could never fire.  Fail fast instead of deadlocking the caller.
            raise RuntimeError("get() on a direct-consumer store would never "
                               "complete; the two modes are mutually exclusive")
        get_event = StoreGet(self.env)
        if self._items:
            get_event.succeed(self._items.popleft())
        else:
            self._getters.append(get_event)
        return get_event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: the next item, or None if the store is empty."""
        if self._items:
            return self._items.popleft()
        return None
