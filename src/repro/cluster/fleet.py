"""Middleware fleet: client-side routing, failure detection and retry budgets.

A single :class:`~repro.middleware.middleware.MiddlewareBase` is a single
point of failure: when it crashes, every pinned terminal spins against the
corpse until the restart.  This module makes the §V recovery machinery pay
off in the deployment the paper implies but never demonstrates — K
coordinators absorbing traffic for each other:

* **Routing policies** decide which middleware a terminal submits to, per
  submission.  They are pluggable through a registry
  (:func:`register_routing_policy`), exactly like the system/workload
  registries in :mod:`repro.plugins`; ``round_robin``, ``region_affinity``
  and ``least_outstanding`` ship built in.
* **Failure detection** combines two signals on the simulation clock: clean
  refusals observed on submissions (``TransactionResult.rejected``) and a
  lightweight health-probe process that checks each middleware's crash flag
  every ``probe_interval_ms`` — the simulated analogue of an out-of-band
  health endpoint.  Middlewares move between ``up``/``suspected``/``down``
  and every transition is timestamped for the experiment summary.
* **Retry discipline** (:class:`RetryPolicy`, the one backoff rule every
  client terminal follows): capped exponential backoff with deterministic
  seeded jitter, a per-terminal retry *budget*, and failover re-routing — a
  clean refusal is resubmitted to a *different, healthy* middleware instead
  of the dead one.  Only clean refusals (the middleware was already crashed
  at submit time, nothing was coordinated) are failover-retried; an interrupted
  in-flight coordination also reports ``UNAVAILABLE`` but is **never**
  resubmitted, because its in-doubt branches may still be committed by the
  recovery protocol — resubmission could duplicate the work.

The fleet is strictly opt-in: single-middleware experiments never construct
one, so the fault-free golden pins stay byte-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.middleware.middleware import MiddlewareBase
from repro.sim import Environment
from repro.sim.rng import SeededRNG


# ------------------------------------------------------------- retry policy
@dataclass
class RetryPolicy:
    """Backoff and failover discipline of one client terminal.

    ``backoff_ms(attempt)`` grows ``base_ms * multiplier**attempt`` capped at
    ``cap_ms``, with a deterministic seeded jitter of ``+-jitter`` (relative)
    so terminals that failed together do not retry in lockstep.  The policy
    rides inside ``ExperimentConfig`` so scenarios can sweep its fields as
    axes (e.g. ``Axis("base_ms", ..., path="retry.base_ms")``).
    """

    #: First backoff delay.
    base_ms: float = 50.0
    #: Upper bound of the exponential growth.
    cap_ms: float = 400.0
    #: Growth factor per consecutive failure.
    multiplier: float = 2.0
    #: Relative jitter amplitude in [0, 1); 0 disables jitter.
    jitter: float = 0.1
    #: Failover resubmissions allowed per logical transaction.
    max_failovers: int = 3
    #: Total failover retries one terminal may spend over its lifetime
    #: (the per-terminal retry budget); 0 disables failover entirely.
    budget: int = 1_000

    def __post_init__(self) -> None:
        if self.base_ms < 0 or self.cap_ms < self.base_ms:
            raise ValueError("need 0 <= base_ms <= cap_ms")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        if self.max_failovers < 0 or self.budget < 0:
            raise ValueError("max_failovers and budget must be >= 0")

    def backoff_ms(self, attempt: int, rng: Optional[SeededRNG] = None) -> float:
        """Delay before retry number ``attempt`` (0-based), jittered via ``rng``."""
        try:
            delay = min(self.base_ms * self.multiplier ** attempt, self.cap_ms)
        except OverflowError:
            # The growth passed cap_ms long before it left the float range.
            delay = self.cap_ms if self.base_ms else 0.0
        if self.jitter > 0.0 and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


# ------------------------------------------------------------- fleet config
@dataclass
class FleetConfig:
    """How a :class:`MiddlewareFleet` routes and detects failures."""

    #: Name of a registered routing policy (see :func:`routing_policy_names`).
    routing_policy: str = "round_robin"
    #: Health-probe period (simulated ms); 0 disables the probe process and
    #: leaves detection to submission outcomes alone.  Deliberately coarse:
    #: between ticks, detection rides on refused submissions (the faster
    #: channel under load), and the probe mainly notices *recovery*.
    probe_interval_ms: float = 250.0
    #: Consecutive clean refusals before a middleware is marked suspected.
    suspect_after: int = 1
    #: Consecutive clean refusals before it is marked down (the probe marks
    #: a crashed middleware down directly, without waiting for refusals).
    down_after: int = 2

    def __post_init__(self) -> None:
        if self.probe_interval_ms < 0:
            raise ValueError("probe_interval_ms must be >= 0")
        if not 1 <= self.suspect_after <= self.down_after:
            raise ValueError("need 1 <= suspect_after <= down_after")


class HealthState(enum.Enum):
    """Detector state of one middleware, as seen by the fleet."""

    UP = "up"
    SUSPECTED = "suspected"
    DOWN = "down"


# -------------------------------------------------------- routing registry
#: A routing policy picks one middleware for a terminal from the healthy
#: candidates (never empty; the fleet falls back to less-healthy tiers).
RoutingPolicy = Callable[["MiddlewareFleet", int, Sequence[MiddlewareBase]],
                         MiddlewareBase]

_ROUTING_POLICIES: Dict[str, RoutingPolicy] = {}


def register_routing_policy(name: str,
                            policy: RoutingPolicy) -> RoutingPolicy:
    """Register a routing policy (contrib plugins add theirs here)."""
    if not name:
        raise ValueError("a routing policy needs a non-empty name")
    _ROUTING_POLICIES[name] = policy
    return policy


def get_routing_policy(name: str) -> RoutingPolicy:
    """Look up a registered routing policy by name."""
    try:
        return _ROUTING_POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(_ROUTING_POLICIES))
        raise KeyError(f"unknown routing policy {name!r}; "
                       f"registered: {known}") from None


def routing_policy_names() -> List[str]:
    """All registered routing policy names, sorted."""
    return sorted(_ROUTING_POLICIES)


def _round_robin(fleet: "MiddlewareFleet", terminal_id: int,
                 candidates: Sequence[MiddlewareBase]) -> MiddlewareBase:
    """Cycle a fleet-global cursor over the healthy middlewares."""
    choice = candidates[fleet._rr_cursor % len(candidates)]
    fleet._rr_cursor += 1
    return choice


def _region_affinity(fleet: "MiddlewareFleet", terminal_id: int,
                     candidates: Sequence[MiddlewareBase]) -> MiddlewareBase:
    """Stick to a deterministic home middleware; fail over cyclically.

    The home assignment (``terminal_id mod K`` over the topology order, which
    groups middlewares by region) keeps a terminal on one coordinator — and
    therefore one region — for its whole life unless that coordinator is
    unhealthy, in which case the nearest following candidate serves it.
    """
    home_index = terminal_id % len(fleet.middlewares)
    home = fleet.middlewares[home_index]
    if home in candidates:
        return home
    ordered = fleet.middlewares[home_index:] + fleet.middlewares[:home_index]
    for middleware in ordered:
        if middleware in candidates:
            return middleware
    return candidates[0]


def _least_outstanding(fleet: "MiddlewareFleet", terminal_id: int,
                       candidates: Sequence[MiddlewareBase]) -> MiddlewareBase:
    """Pick the candidate with the fewest in-flight submissions (index ties)."""
    return min(candidates,
               key=lambda m: (fleet.outstanding[m.name],
                              fleet._index[m.name]))


register_routing_policy("round_robin", _round_robin)
register_routing_policy("region_affinity", _region_affinity)
register_routing_policy("least_outstanding", _least_outstanding)


# ------------------------------------------------------------------- fleet
class MiddlewareFleet:
    """Client-side view of K middlewares: routing, health, attribution.

    One fleet is shared by every terminal of an experiment.  It holds no
    simulation processes besides the optional health probe, records every
    state transition with its simulated timestamp, and reduces to a plain
    picklable dict (:meth:`summary`) for ``ExperimentSummary.fleet``.
    """

    def __init__(self, env: Environment, middlewares: Sequence[MiddlewareBase],
                 config: Optional[FleetConfig] = None):
        if not middlewares:
            raise ValueError("a fleet needs at least one middleware")
        self.env = env
        self.middlewares: List[MiddlewareBase] = list(middlewares)
        self.config = config or FleetConfig()
        self._policy = get_routing_policy(self.config.routing_policy)
        self._index = {m.name: i for i, m in enumerate(self.middlewares)}
        if len(self._index) != len(self.middlewares):
            raise ValueError("middleware names must be unique within a fleet")
        self.states: Dict[str, HealthState] = {
            m.name: HealthState.UP for m in self.middlewares}
        self.outstanding: Dict[str, int] = {m.name: 0 for m in self.middlewares}
        self._refusal_streak: Dict[str, int] = {
            m.name: 0 for m in self.middlewares}
        self.counters: Dict[str, Dict[str, int]] = {
            m.name: {"submitted": 0, "committed": 0, "aborted": 0,
                     "rejected": 0, "failovers": 0}
            for m in self.middlewares}
        #: ``[at_ms, middleware, new_state]`` rows, in simulated-time order.
        self.transitions: List[List[Any]] = []
        #: One entry per down episode (see :meth:`_set_state`).
        self.down_episodes: List[Dict[str, Any]] = []
        self.failovers = 0
        self.retries = 0
        self.budget_exhausted = 0
        self._rr_cursor = 0
        if self.config.probe_interval_ms > 0:
            env.process(self._probe(), name="fleet-health-probe", daemon=True)

    # ----------------------------------------------------------------- routing
    def route(self, terminal_id: int) -> MiddlewareBase:
        """Pick the middleware a terminal should submit to right now."""
        return self._policy(self, terminal_id, self._candidates())

    def route_away_from(self, terminal_id: int,
                        avoid: MiddlewareBase) -> MiddlewareBase:
        """Failover routing: prefer any healthy middleware other than ``avoid``."""
        candidates = [m for m in self._candidates() if m is not avoid]
        if not candidates:
            return self.route(terminal_id)
        return self._policy(self, terminal_id, candidates)

    def _candidates(self) -> List[MiddlewareBase]:
        """Healthiest non-empty tier: up, else suspected, else everyone."""
        ups = [m for m in self.middlewares
               if self.states[m.name] is HealthState.UP]
        if ups:
            return ups
        suspects = [m for m in self.middlewares
                    if self.states[m.name] is HealthState.SUSPECTED]
        return suspects or list(self.middlewares)

    # ------------------------------------------------------------- accounting
    def note_submit(self, middleware: MiddlewareBase,
                    failover: bool = False) -> None:
        """Record a submission leaving for ``middleware``."""
        counters = self.counters[middleware.name]
        counters["submitted"] += 1
        if failover:
            counters["failovers"] += 1
            self.failovers += 1
        self.outstanding[middleware.name] += 1

    def note_result(self, middleware: MiddlewareBase, result: Any) -> None:
        """Record a submission outcome and feed the failure detector."""
        self.outstanding[middleware.name] -= 1
        counters = self.counters[middleware.name]
        if getattr(result, "rejected", False):
            counters["rejected"] += 1
            self._note_refusal(middleware)
            return
        if result.committed:
            counters["committed"] += 1
            self._note_divert(middleware.name)
        else:
            counters["aborted"] += 1
        # Any coordinated outcome — commit or abort — proves liveness.
        self._refusal_streak[middleware.name] = 0
        if self.states[middleware.name] is not HealthState.UP:
            self._set_state(middleware.name, HealthState.UP)

    def note_budget_exhausted(self) -> None:
        """A terminal wanted to fail over but its retry budget is spent."""
        self.budget_exhausted += 1

    # -------------------------------------------------------------- detection
    def _note_refusal(self, middleware: MiddlewareBase) -> None:
        streak = self._refusal_streak[middleware.name] + 1
        self._refusal_streak[middleware.name] = streak
        state = self.states[middleware.name]
        if streak >= self.config.down_after:
            if state is not HealthState.DOWN:
                self._set_state(middleware.name, HealthState.DOWN)
        elif streak >= self.config.suspect_after and state is HealthState.UP:
            self._set_state(middleware.name, HealthState.SUSPECTED)

    def _probe(self):
        """Daemon process: poll each middleware's health out-of-band."""
        interval = self.config.probe_interval_ms
        while True:
            yield interval
            for middleware in self.middlewares:
                state = self.states[middleware.name]
                if middleware.crashed:
                    if state is not HealthState.DOWN:
                        self._set_state(middleware.name, HealthState.DOWN)
                elif state is not HealthState.UP:
                    self._refusal_streak[middleware.name] = 0
                    self._set_state(middleware.name, HealthState.UP)

    def _set_state(self, name: str, state: HealthState) -> None:
        self.states[name] = state
        self.transitions.append([self.env.now, name, state.value])
        if state is HealthState.DOWN:
            self.down_episodes.append({
                "middleware": name, "down_at_ms": self.env.now,
                "diverted_at_ms": None, "recovered_at_ms": None})
        elif state is HealthState.UP:
            for episode in reversed(self.down_episodes):
                if episode["middleware"] == name:
                    if episode["recovered_at_ms"] is None:
                        episode["recovered_at_ms"] = self.env.now
                    break

    def _note_divert(self, committed_on: str) -> None:
        """A commit landed on ``committed_on``: close open divert windows.

        Time-to-divert of a down episode is the gap between the middleware
        being marked down and the fleet's *next* successful commit on any
        other middleware — the client-visible outage of the failover path.
        """
        for episode in self.down_episodes:
            if (episode["diverted_at_ms"] is None
                    and episode["middleware"] != committed_on):
                episode["diverted_at_ms"] = self.env.now

    # ----------------------------------------------------------------- report
    def summary(self) -> Dict[str, Any]:
        """The picklable fleet report stored in ``ExperimentSummary.fleet``."""
        episodes = []
        for episode in self.down_episodes:
            entry = dict(episode)
            entry["time_to_divert_ms"] = (
                episode["diverted_at_ms"] - episode["down_at_ms"]
                if episode["diverted_at_ms"] is not None else None)
            episodes.append(entry)
        return {
            "policy": self.config.routing_policy,
            "middlewares": [m.name for m in self.middlewares],
            "states": {name: state.value for name, state in self.states.items()},
            "per_middleware": {name: dict(counters)
                               for name, counters in self.counters.items()},
            "failovers": self.failovers,
            "retries": self.retries,
            "budget_exhausted": self.budget_exhausted,
            "transitions": [list(row) for row in self.transitions],
            "down_episodes": episodes,
        }
