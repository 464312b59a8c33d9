"""Open-system client pool: arrivals at a configured *rate*, bounded sessions.

The closed-loop terminals (:mod:`repro.cluster.client`) can never offer more
load than the system absorbs — each terminal waits for its outcome before
submitting again — so throughput under them is always *achieved* throughput.
:class:`OpenClientPool` decouples offered from achieved load: an arrival
generator draws inter-arrival gaps from an
:class:`~repro.workloads.arrivals.ArrivalProcess` and hands each arrival to a
free client slot.  When all ``max_clients`` slots are busy the arrival is
**shed** (counted in :attr:`dropped`, never queued), which bounds client-side
memory no matter how far past saturation the rate is pushed — an unbounded
arrival queue would otherwise grow linearly once the knee is crossed and
drown the flat-RSS story the collector's bounded reservoirs exist for.

Each slot owns a :class:`~repro.cluster.client.ClientTerminal` built with
``autostart=False``: the terminal is a pure submitter, so fleet routing,
failover on clean refusals, retry budgets and per-slot jitter RNGs behave
identically to the closed-loop path — one code path, two load models.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.client import ClientTerminal
from repro.cluster.fleet import MiddlewareFleet, RetryPolicy
from repro.metrics.collector import MetricsCollector
from repro.middleware.middleware import MiddlewareBase
from repro.sim import Environment
from repro.workloads.arrivals import ArrivalConfig, make_arrivals
from repro.workloads.base import Workload


class OpenClientPool:
    """Bounded pool of client sessions fed by a stochastic arrival stream."""

    def __init__(self, env: Environment, middlewares: Sequence[MiddlewareBase],
                 workload: Workload, collector: MetricsCollector,
                 arrival: ArrivalConfig, duration_ms: float,
                 fleet: Optional[MiddlewareFleet] = None, *,
                 retry: RetryPolicy, seed: int = 0):
        if not middlewares:
            raise ValueError("at least one middleware is required")
        self.env = env
        self.workload = workload
        self.collector = collector
        self.duration_ms = duration_ms
        self.arrival = arrival
        self.arrivals = make_arrivals(arrival)
        #: Arrivals generated (offered load), admitted to a slot, shed because
        #: every slot was busy, and finished (outcome recorded).  ``offered ==
        #: started + dropped`` always; ``started - completed`` sessions are
        #: still in flight.
        self.offered = 0
        self.started = 0
        self.dropped = 0
        self.completed = 0
        self.peak_active = 0
        self._active = 0
        # LIFO free list of slot indices; reversed so the first pop is slot 0.
        self._free: List[int] = list(range(arrival.max_clients - 1, -1, -1))
        # One submitter per slot, pinned round-robin exactly like
        # ``start_terminals`` — the slot index doubles as the terminal id the
        # workload and the fleet router see, so per-slot retry RNG streams
        # stay independent and deterministic.
        self._sessions = [
            ClientTerminal(env, slot, middlewares[slot % len(middlewares)],
                           workload, collector, stop_at_ms=duration_ms,
                           fleet=fleet, retry=retry, seed=seed,
                           autostart=False)
            for slot in range(arrival.max_clients)]
        self.process = env.process(self._generate(), name="open-arrivals",
                                   daemon=True)

    # ------------------------------------------------------------------ loop
    def _generate(self):
        while True:
            gap = self.arrivals.next_gap_ms(self.env.now)
            # A zero gap admits at once, without suspending.
            if gap:
                yield gap
            if self.env.now >= self.duration_ms:
                return
            self.offered += 1
            if not self._free:
                self.dropped += 1
                continue
            slot = self._free.pop()
            self.started += 1
            self._active += 1
            if self._active > self.peak_active:
                self.peak_active = self._active
            # The workload draw happens only for admitted arrivals, so the
            # shed fraction does not perturb the transaction stream the
            # admitted sessions see.
            spec = self.workload.next_transaction(slot)
            self.env.process(self._session(self._sessions[slot], spec),
                             name=f"open-session-{slot}", daemon=True)

    def _session(self, terminal: ClientTerminal, spec):
        result = yield from terminal._submit(spec)
        if result.end_time > self.duration_ms:
            return  # finished while a fault run drains (see ClientTerminal._run)
        terminal.transactions_run += 1
        self.completed += 1
        self.collector.record(result, txn_type=spec.txn_type)
        self._active -= 1
        self._free.append(terminal.terminal_id)

    # ---------------------------------------------------------------- report
    def report(self) -> Dict:
        """Offered-vs-served accounting of the run (JSON-serialisable).

        ``drop_rate`` is the client-side admission signal the load sweeps
        plot next to goodput: past the knee it rises sharply because
        sessions stop turning over faster than arrivals come in.
        """
        return {
            "process": self.arrival.process,
            "rate_tps": self.arrival.rate_tps,
            "max_clients": self.arrival.max_clients,
            "offered": self.offered,
            "started": self.started,
            "dropped": self.dropped,
            "completed": self.completed,
            "in_flight_at_end": self._active,
            "peak_active": self.peak_active,
            "drop_rate": self.dropped / self.offered if self.offered else 0.0,
        }
