"""Connection pools between the middleware and each data source.

A pool bounds the number of concurrent in-flight requests to one data source,
mirroring the JDBC connection pools ShardingSphere maintains.  The default
capacity is generous (the paper never saturates connections), but the bound is
real: experiments that push hundreds of terminals will queue here, which is one
of the reasons throughput flattens at high terminal counts in Figure 5.
"""

from __future__ import annotations

from typing import Dict

from repro.sim import Environment, Resource, ResourceRequest


class ConnectionPool:
    """A capacity-bounded pool of connections to a single data source."""

    def __init__(self, env: Environment, datasource: str, capacity: int = 128):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.datasource = datasource
        self.capacity = capacity
        self._resource = Resource(env, capacity=capacity)
        self.total_acquisitions = 0

    def acquire(self) -> ResourceRequest:
        """Request a connection; yield the returned event to wait for it."""
        self.total_acquisitions += 1
        return self._resource.request()

    def release(self, request: ResourceRequest) -> None:
        """Return a connection to the pool."""
        self._resource.release(request)

    @property
    def in_use(self) -> int:
        """Connections currently checked out."""
        return self._resource.count

    @property
    def waiting(self) -> int:
        """Requests queued for a connection."""
        return self._resource.queue_length


class ConnectionPoolSet:
    """The middleware's pools, one per data source."""

    def __init__(self, env: Environment, capacity: int = 128):
        self.env = env
        self.capacity = capacity
        self._pools: Dict[str, ConnectionPool] = {}

    def pool(self, datasource: str) -> ConnectionPool:
        """The pool for ``datasource``, created lazily."""
        if datasource not in self._pools:
            self._pools[datasource] = ConnectionPool(
                self.env, datasource, capacity=self.capacity)
        return self._pools[datasource]

    def pools(self) -> Dict[str, ConnectionPool]:
        """All pools created so far."""
        return dict(self._pools)
