"""Unit tests for the middleware fleet: routing, detection, retry discipline.

Everything here runs at the component level — stub middlewares (just ``name``
``crashed`` and ``submit``) on a bare :class:`Environment` — so each property
of the fleet layer is pinned independently of the full experiment runner:

* routing policies and their registry (including a custom registered policy),
* the failure detector's refusal-streak and health-probe channels,
* :class:`RetryPolicy` backoff math, jitter determinism and validation,
* the client terminal's failover loop, budgets and the default fixed pause.
"""

from types import SimpleNamespace

import pytest

from repro.bench.runner import ExperimentConfig
from repro.cluster.client import ClientTerminal
from repro.cluster.fleet import (
    FleetConfig,
    HealthState,
    MiddlewareFleet,
    RetryPolicy,
    get_routing_policy,
    register_routing_policy,
    routing_policy_names,
)
from repro.common import AbortReason, TransactionResult, TxnOutcome
from repro.sim import Environment
from repro.sim.rng import SeededRNG


# ------------------------------------------------------------------- stubs
class _StubMiddleware:
    """Duck-typed middleware: name, crash flag and a scripted submit().

    Every submission takes ``latency_ms`` of simulated time — a zero-latency
    stub would let the closed client loop spin forever at one timestamp.
    """

    def __init__(self, env, name, crashed=False, refuse=False,
                 latency_ms=10.0):
        self.env = env
        self.name = name
        self.crashed = crashed
        self.refuse = refuse
        self.latency_ms = latency_ms
        self.submissions = 0
        self._counter = 0

    def submit(self, spec):
        self.submissions += 1
        self._counter += 1
        start = self.env.now
        event = self.env.event()

        def finish():
            now = self.env.now
            if self.refuse:
                result = TransactionResult(
                    txn_id=f"{self.name}-t{self._counter}",
                    outcome=TxnOutcome.ABORTED, start_time=start, end_time=now,
                    is_distributed=False,
                    abort_reason=AbortReason.UNAVAILABLE, rejected=True)
            else:
                result = TransactionResult(
                    txn_id=f"{self.name}-t{self._counter}",
                    outcome=TxnOutcome.COMMITTED, start_time=start,
                    end_time=now, is_distributed=False)
            event.succeed(result)

        self.env.call_at(self.latency_ms, finish)
        return event


class _RecordingCollector:
    def __init__(self):
        self.results = []

    def record(self, result, txn_type="generic"):
        self.results.append(result)


_WORKLOAD = SimpleNamespace(
    next_transaction=lambda terminal_id: SimpleNamespace(txn_type="generic"))


def _fleet(env, names, config=None, **stub_kwargs):
    middlewares = [_StubMiddleware(env, name, **stub_kwargs) for name in names]
    return MiddlewareFleet(env, middlewares, config), middlewares


def _refusal(name="dm1"):
    return TransactionResult(
        txn_id=f"{name}-t0", outcome=TxnOutcome.ABORTED, start_time=0.0,
        end_time=0.0, is_distributed=False,
        abort_reason=AbortReason.UNAVAILABLE, rejected=True)


def _commit(name="dm1"):
    return TransactionResult(
        txn_id=f"{name}-t0", outcome=TxnOutcome.COMMITTED, start_time=0.0,
        end_time=0.0, is_distributed=False)


# ------------------------------------------------------------- retry policy
def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(base_ms=50.0, cap_ms=400.0, multiplier=2.0, jitter=0.0)
    assert [policy.backoff_ms(n) for n in range(5)] == [50, 100, 200, 400, 400]


def test_backoff_jitter_is_bounded_and_seed_deterministic():
    policy = RetryPolicy(base_ms=100.0, cap_ms=1000.0, jitter=0.2)
    first = [policy.backoff_ms(1, SeededRNG(42)) for _ in range(5)]
    # A fresh RNG with the same seed reproduces the same jittered delay.
    assert first == [policy.backoff_ms(1, SeededRNG(42)) for _ in range(5)]
    for delay in [policy.backoff_ms(1, SeededRNG(seed)) for seed in range(50)]:
        assert 160.0 <= delay <= 240.0  # 200ms +- 20%


def test_backoff_stops_growing_at_the_cap_instead_of_overflowing():
    policy = RetryPolicy()
    assert policy.backoff_ms(10_000) == policy.cap_ms
    for attempt in range(65):
        assert policy.backoff_ms(attempt) == min(
            policy.base_ms * policy.multiplier ** attempt, policy.cap_ms)


def test_backoff_without_rng_is_the_undithered_delay():
    policy = RetryPolicy(base_ms=100.0, cap_ms=1000.0, jitter=0.5)
    assert policy.backoff_ms(0) == 100.0


@pytest.mark.parametrize("kwargs", [
    dict(base_ms=-1.0),
    dict(base_ms=500.0, cap_ms=100.0),
    dict(multiplier=0.5),
    dict(jitter=1.0),
    dict(jitter=-0.1),
    dict(max_failovers=-1),
    dict(budget=-1),
])
def test_retry_policy_validation(kwargs):
    with pytest.raises(ValueError):
        RetryPolicy(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(probe_interval_ms=-1.0),
    dict(suspect_after=0),
    dict(suspect_after=3, down_after=2),
])
def test_fleet_config_validation(kwargs):
    with pytest.raises(ValueError):
        FleetConfig(**kwargs)


# ------------------------------------------------------------------ routing
def test_round_robin_cycles_over_healthy_middlewares():
    env = Environment()
    fleet, middlewares = _fleet(env, ["dm1", "dm2", "dm3"],
                                FleetConfig(probe_interval_ms=0.0))
    picks = [fleet.route(0).name for _ in range(6)]
    assert picks == ["dm1", "dm2", "dm3", "dm1", "dm2", "dm3"]


def test_region_affinity_sticks_to_home_until_it_is_unhealthy():
    env = Environment()
    config = FleetConfig(routing_policy="region_affinity",
                         probe_interval_ms=0.0, suspect_after=1, down_after=1)
    fleet, middlewares = _fleet(env, ["dm1", "dm2", "dm3"], config)
    assert [fleet.route(4).name for _ in range(3)] == ["dm2"] * 3
    # Kill the home: terminal 4 fails over to the next healthy one cyclically.
    fleet.note_submit(middlewares[1])
    fleet.note_result(middlewares[1], _refusal("dm2"))
    assert fleet.states["dm2"] is HealthState.DOWN
    assert fleet.route(4).name == "dm3"


def test_least_outstanding_prefers_idle_middlewares():
    env = Environment()
    config = FleetConfig(routing_policy="least_outstanding",
                         probe_interval_ms=0.0)
    fleet, middlewares = _fleet(env, ["dm1", "dm2"], config)
    assert fleet.route(0).name == "dm1"  # tie broken by topology order
    fleet.note_submit(middlewares[0])
    assert fleet.route(0).name == "dm2"
    fleet.note_submit(middlewares[1])
    fleet.note_submit(middlewares[1])
    assert fleet.route(0).name == "dm1"


def test_routing_registry_rejects_unknown_and_accepts_custom_policies():
    with pytest.raises(KeyError, match="round_robin"):
        get_routing_policy("nope")
    for name in ("round_robin", "region_affinity", "least_outstanding"):
        assert name in routing_policy_names()

    def always_last(fleet, terminal_id, candidates):
        return candidates[-1]

    register_routing_policy("always_last_test", always_last)
    try:
        env = Environment()
        fleet, _ = _fleet(env, ["dm1", "dm2"],
                          FleetConfig(routing_policy="always_last_test",
                                      probe_interval_ms=0.0))
        assert fleet.route(0).name == "dm2"
    finally:
        from repro.cluster import fleet as fleet_module
        del fleet_module._ROUTING_POLICIES["always_last_test"]


def test_route_away_from_prefers_other_healthy_middlewares():
    env = Environment()
    fleet, middlewares = _fleet(env, ["dm1", "dm2"],
                                FleetConfig(probe_interval_ms=0.0))
    for _ in range(4):
        assert fleet.route_away_from(0, middlewares[0]) is middlewares[1]
    # With nobody else left, it falls back to normal routing.
    solo_fleet, (solo,) = _fleet(env, ["dm1"], FleetConfig(probe_interval_ms=0.0))
    assert solo_fleet.route_away_from(0, solo) is solo


def test_fleet_requires_unique_names_and_at_least_one_middleware():
    env = Environment()
    with pytest.raises(ValueError, match="unique"):
        _fleet(env, ["dm1", "dm1"])
    with pytest.raises(ValueError, match="at least one"):
        MiddlewareFleet(env, [])


# ---------------------------------------------------------------- detection
def test_refusal_streak_walks_up_suspected_then_down_and_recovers():
    env = Environment()
    config = FleetConfig(probe_interval_ms=0.0, suspect_after=1, down_after=2)
    fleet, (dm1, dm2) = _fleet(env, ["dm1", "dm2"], config)

    fleet.note_submit(dm1)
    fleet.note_result(dm1, _refusal("dm1"))
    assert fleet.states["dm1"] is HealthState.SUSPECTED
    assert [m.name for m in fleet._candidates()] == ["dm2"]

    fleet.note_submit(dm1)
    fleet.note_result(dm1, _refusal("dm1"))
    assert fleet.states["dm1"] is HealthState.DOWN
    assert len(fleet.down_episodes) == 1

    # A commit on the survivor closes the divert window of dm1's episode...
    fleet.note_submit(dm2)
    fleet.note_result(dm2, _commit("dm2"))
    assert fleet.down_episodes[0]["diverted_at_ms"] == env.now

    # ...and any coordinated outcome on dm1 itself proves it is back.
    fleet.note_submit(dm1)
    fleet.note_result(dm1, _commit("dm1"))
    assert fleet.states["dm1"] is HealthState.UP
    assert fleet.down_episodes[0]["recovered_at_ms"] == env.now

    report = fleet.summary()
    (episode,) = report["down_episodes"]
    assert episode["time_to_divert_ms"] == 0.0
    assert report["states"] == {"dm1": "up", "dm2": "up"}


def test_candidates_degrade_to_suspected_then_everyone():
    env = Environment()
    config = FleetConfig(probe_interval_ms=0.0, suspect_after=1, down_after=2)
    fleet, (dm1, dm2) = _fleet(env, ["dm1", "dm2"], config)
    for middleware, name in ((dm1, "dm1"), (dm2, "dm2")):
        fleet.note_submit(middleware)
        fleet.note_result(middleware, _refusal(name))
    # Both suspected: routing still works over the suspected tier.
    assert {m.name for m in fleet._candidates()} == {"dm1", "dm2"}
    for middleware, name in ((dm1, "dm1"), (dm2, "dm2")):
        fleet.note_submit(middleware)
        fleet.note_result(middleware, _refusal(name))
    # Everyone down: the fleet keeps routing rather than deadlocking.
    assert {m.name for m in fleet._candidates()} == {"dm1", "dm2"}


def test_health_probe_marks_crashed_middlewares_down_and_back_up():
    env = Environment()
    config = FleetConfig(probe_interval_ms=10.0)
    fleet, (dm1, dm2) = _fleet(env, ["dm1", "dm2"], config)
    dm2.crashed = True
    env.run(until=15.0)
    assert fleet.states["dm2"] is HealthState.DOWN
    assert fleet.states["dm1"] is HealthState.UP
    assert fleet.down_episodes[0]["down_at_ms"] == 10.0
    dm2.crashed = False
    env.run(until=25.0)
    assert fleet.states["dm2"] is HealthState.UP
    assert fleet.down_episodes[0]["recovered_at_ms"] == 20.0
    assert [row[1:] for row in fleet.transitions] == [
        ["dm2", "down"], ["dm2", "up"]]


# ---------------------------------------------------- client terminal loop
#: The ``ExperimentConfig.retry`` default: a fixed 50ms pause, no jitter.
DEFAULT_RETRY = ExperimentConfig().retry


def _run_terminal(env, middlewares, stop_at_ms, fleet=None,
                  retry=DEFAULT_RETRY):
    collector = _RecordingCollector()
    terminal = ClientTerminal(
        env, 0, middlewares[0], _WORKLOAD, collector, stop_at_ms=stop_at_ms,
        fleet=fleet, retry=retry, seed=5)
    env.run(until=stop_at_ms + 1_000.0)
    return terminal, collector


def test_default_retry_policy_is_a_fixed_50ms_pause():
    rng = SeededRNG(5)
    untouched = rng.getstate()
    assert [DEFAULT_RETRY.backoff_ms(n, rng) for n in (0, 1, 2_000)] == [50.0] * 3
    assert rng.getstate() == untouched  # no jitter: nothing is drawn
    env = Environment()
    middleware = _StubMiddleware(env, "dm1", refuse=True)
    terminal, collector = _run_terminal(env, [middleware], stop_at_ms=200.0)
    # Each round costs 10ms of submit latency plus the fixed 50ms pause, so
    # submissions start at t=0, 60, 120, 180 — four in a 200ms run.
    assert middleware.submissions == 4
    assert all(r.abort_reason is AbortReason.UNAVAILABLE
               for r in collector.results)


def test_backoff_landing_on_stop_time_buys_no_extra_transaction():
    env = Environment()
    middleware = _StubMiddleware(env, "dm1", refuse=True)
    terminal, _ = _run_terminal(env, [middleware], stop_at_ms=120.0)
    # Submissions at t=0 and t=60; the backoff after the second lands at
    # exactly the stop time, so no third transaction starts.
    assert middleware.submissions == 2
    assert terminal.transactions_run == 2


def test_a_zero_backoff_resubmits_at_the_same_instant():
    env = Environment()
    middleware = _StubMiddleware(env, "dm1", refuse=True)
    retry = RetryPolicy(base_ms=0.0, cap_ms=0.0, jitter=0.0)
    terminal, collector = _run_terminal(env, [middleware], stop_at_ms=50.0,
                                        retry=retry)
    # No pause between rounds: each refusal is resubmitted the instant it
    # arrives, so the 10ms submits tile the run back to back.
    results = collector.results
    assert [r.start_time for r in results] == [0.0, 10.0, 20.0, 30.0, 40.0]
    assert [r.start_time for r in results[1:]] == [
        r.end_time for r in results[:-1]]


def test_clean_refusal_fails_over_to_a_healthy_middleware():
    env = Environment()
    dead = _StubMiddleware(env, "dm1", crashed=True, refuse=True)
    alive = _StubMiddleware(env, "dm2")
    fleet = MiddlewareFleet(env, [dead, alive],
                            FleetConfig(probe_interval_ms=0.0))
    retry = RetryPolicy(base_ms=0.0, cap_ms=0.0, jitter=0.0)
    terminal, collector = _run_terminal(env, [dead, alive], stop_at_ms=100.0,
                                        fleet=fleet, retry=retry)
    # Round-robin sent the first submission to dm1; the refusal failed over
    # to dm2, which committed — the client never saw the refusal.
    assert collector.results[0].committed
    assert fleet.failovers >= 1
    assert fleet.counters["dm1"]["rejected"] >= 1
    assert fleet.counters["dm2"]["committed"] >= 1
    assert fleet.summary()["per_middleware"]["dm2"]["failovers"] >= 1


def test_exhausted_budget_surfaces_the_refusal():
    env = Environment()
    dead = [_StubMiddleware(env, name, crashed=True, refuse=True)
            for name in ("dm1", "dm2")]
    fleet = MiddlewareFleet(env, dead, FleetConfig(probe_interval_ms=0.0))
    retry = RetryPolicy(base_ms=0.0, cap_ms=0.0, jitter=0.0, budget=0)
    terminal, collector = _run_terminal(env, dead, stop_at_ms=100.0,
                                        fleet=fleet, retry=retry)
    assert fleet.budget_exhausted >= 1
    assert not collector.results[0].committed
    assert collector.results[0].rejected


def test_max_failovers_bounds_resubmissions_per_transaction():
    env = Environment()
    dead = [_StubMiddleware(env, name, crashed=True, refuse=True)
            for name in ("dm1", "dm2")]
    fleet = MiddlewareFleet(env, dead, FleetConfig(probe_interval_ms=0.0))
    retry = RetryPolicy(base_ms=1_000.0, cap_ms=1_000.0, jitter=0.0,
                        max_failovers=2)
    collector = _RecordingCollector()
    ClientTerminal(env, 0, dead[0], _WORKLOAD, collector,
                   stop_at_ms=10_000.0, fleet=fleet, retry=retry, seed=5)
    env.run(until=2_500.0)
    # One logical transaction so far: initial try plus two failovers.
    assert sum(m.submissions for m in dead) == 3
    assert len(collector.results) == 1 and collector.results[0].rejected
