"""The registered fleet scenario family: determinism, availability, accounting.

The acceptance bar for the failover experiment, pinned as tests:

* **Same-seed byte-determinism** — routing, refusal-driven detection, the
  health probe, retry jitter and recovery are all on the simulation clock, so
  the same config must reproduce the same summary *and* the same fleet report.
* **Availability** — killing one of three middlewares keeps availability at
  >= 90 % of the fault-free run's.
* **Zero lost / duplicated transactions** — per-middleware attribution sums
  exactly to the collector totals and every transaction id is unique.
* **Reporting** — failovers, per-middleware attribution and time-to-divert
  all surface in the picklable ``ExperimentSummary``.
"""

import pytest

from repro.bench.equivalence import snapshot
from repro.bench.parallel import SweepRunner
from repro.bench.scenarios import FLEET_SYSTEMS, get_scenario
from repro.bench.runner import run_experiment
from tests.conftest import recorded_completions

FLEET_SCENARIOS = ("fleet_scaleout", "fleet_failover", "fleet_policies")

#: Reduced scale shared by every test here (mirrors the fault-family tests).
SCALE = dict(duration_ms=4_000.0, warmup_ms=800.0, terminals=6,
             ycsb__records_per_node=1_000)


def point_config(scenario_name, system, seed=0, fault_free=False):
    scenario = get_scenario(scenario_name)
    sweep = scenario.sweep(axes={"system": (system,)}, seed=seed, **SCALE)
    points = sweep.points()
    assert len(points) == 1
    config = points[0].config
    if fault_free:
        config.fault_plan = None
    return config


def run_point(scenario_name, system, seed=0, fault_free=False):
    return run_experiment(point_config(scenario_name, system, seed, fault_free))


# ---------------------------------------------------------------- registration
def test_fleet_scenarios_are_registered():
    for name in FLEET_SCENARIOS:
        get_scenario(name)
    scaleout = get_scenario("fleet_scaleout")
    (count_axis,) = [axis for axis in scaleout.axes
                     if axis.name == "middleware_count"]
    assert count_axis.values == (1, 2, 3, 4)
    failover = get_scenario("fleet_failover")
    (system_axis,) = [axis for axis in failover.axes if axis.name == "system"]
    assert system_axis.values == FLEET_SYSTEMS
    policies = get_scenario("fleet_policies")
    (policy_axis,) = [axis for axis in policies.axes
                      if axis.name == "routing_policy"]
    assert set(policy_axis.values) >= {"round_robin", "region_affinity",
                                       "least_outstanding"}


def test_failover_points_carry_a_middleware_crash_inside_the_run():
    for point in get_scenario("fleet_failover").sweep(**SCALE).points():
        config = point.config
        assert config.middleware_count == 3
        (event,) = config.fault_plan.events
        assert event.target == "dm2"
        assert config.warmup_ms <= event.at_ms
        assert event.at_ms + event.duration_ms < config.duration_ms


def test_scaleout_points_use_a_co_located_fleet_for_every_k():
    # No point pins a topology, so the runner's one fleet layout (every
    # coordinator in the client region) applies at every K, K=2 included.
    counts = []
    for point in get_scenario("fleet_scaleout").sweep(
            axes={"system": ("geotp",)}, **SCALE).points():
        assert point.config.topology is None
        counts.append(point.config.middleware_count)
    assert counts == [1, 2, 3, 4]


# ----------------------------------------------------------------- determinism
@pytest.mark.parametrize("system", FLEET_SYSTEMS)
def test_same_seed_failover_runs_are_byte_identical(system):
    first = snapshot(point_config("fleet_failover", system, seed=11))
    second = snapshot(point_config("fleet_failover", system, seed=11))
    assert first == second


def fleet_failover_config():
    """The registered ``fleet_failover`` scenario at smoke scale.

    Three middlewares, one killed mid-run: the determinism check exercises
    the whole failover machinery — routing, refusal-driven detection, the
    health probe, retry jitter and recovery.
    """
    sweep = get_scenario("fleet_failover").sweep(
        axes={"system": ["geotp"]},
        duration_ms=4_000.0, warmup_ms=800.0, terminals=6)
    return sweep.points()[0].config


def test_failover_determinism_holds_on_every_engine():
    first = snapshot(fleet_failover_config())
    second = snapshot(fleet_failover_config())
    assert first == second, f"fleet_failover diverged: {first} != {second}"
    assert first["fleet"]["middlewares"] == ["dm1", "dm2", "dm3"]


def test_fleet_sweep_results_identical_serial_and_parallel():
    """The fleet report must survive pickling across pool workers unchanged."""
    sweep = get_scenario("fleet_failover").sweep(
        axes={"system": ("ssp", "geotp")}, **SCALE)
    serial = SweepRunner(max_workers=1).run(sweep)
    pooled = SweepRunner(max_workers=2).run(sweep)
    for left, right in zip(serial.summaries(), pooled.summaries()):
        assert left.to_dict() == right.to_dict()
        assert left.fleet is not None and left.fleet == right.fleet


# ------------------------------------------------------------ acceptance bars
@pytest.fixture(scope="module")
def failover_run():
    """The run, with every ``(txn_id, committed)`` it recorded on ``.recorded``."""
    with recorded_completions() as recorded:
        result = run_point("fleet_failover", "geotp", seed=3)
    result.recorded = recorded
    return result


def test_availability_stays_at_90_percent_of_fault_free(failover_run):
    fault_free = run_point("fleet_failover", "geotp", seed=3, fault_free=True)
    baseline = fault_free.collector.availability_report().availability()
    faulted = failover_run.faults["availability"]["availability"]
    assert baseline > 0.0
    assert faulted >= 0.9 * baseline, (
        f"availability {faulted:.3f} fell below 90% of the fault-free "
        f"baseline {baseline:.3f}")


def test_no_transaction_is_lost_or_duplicated(failover_run):
    ids = [txn_id for txn_id, _ in failover_run.recorded]
    assert len(ids) == len(set(ids)), "duplicated transaction ids"
    # Nothing handed to the collector went missing from its books.
    assert len(ids) == (failover_run.committed + failover_run.aborted
                        + failover_run.warmup_samples)
    commits = sum(committed for _, committed in failover_run.recorded)
    assert 0 <= commits - failover_run.committed <= failover_run.warmup_samples
    attribution = failover_run.fleet["attribution"]
    assert sum(e["committed"] for e in attribution.values()) == \
        failover_run.committed
    assert sum(e["aborted"] for e in attribution.values()) == \
        failover_run.aborted


def test_summary_reports_failovers_attribution_and_time_to_divert(failover_run):
    summary = failover_run.summary()
    fleet = summary.to_dict()["fleet"]
    assert fleet["policy"] == "round_robin"
    assert fleet["middlewares"] == ["dm1", "dm2", "dm3"]
    assert set(fleet["attribution"]) <= {"dm1", "dm2", "dm3"}
    assert fleet["failovers"] >= 0 and fleet["retries"] >= fleet["failovers"]
    episodes = [e for e in fleet["down_episodes"] if e["middleware"] == "dm2"]
    assert episodes, "the killed middleware has no down episode"
    assert episodes[0]["time_to_divert_ms"] is not None
    assert episodes[0]["time_to_divert_ms"] >= 0.0
    # The survivors absorbed real traffic during and after the crash.
    for survivor in ("dm1", "dm3"):
        assert fleet["attribution"][survivor]["committed"] > 0
    # Per-middleware availability timelines share the fleet-wide bucket grid.
    per_middleware = fleet["availability_per_middleware"]
    grids = {tuple(start for start, _, _ in report["series"])
             for report in per_middleware.values()}
    assert len(grids) == 1


def test_fleet_failover_config_matches_the_registered_scenario():
    config = fleet_failover_config()
    assert config.middleware_count == 3
    assert config.fault_plan is not None
    assert config.duration_ms == 4_000.0
