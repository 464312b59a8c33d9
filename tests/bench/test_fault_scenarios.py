"""The registered fault scenario family: determinism pins and sanity bands.

Two properties per scenario:

* **Same-seed byte-determinism** — a fault run is still a deterministic
  simulation: the same config (fault plan included) must produce the exact
  same summary twice, latency digest and fault report included.
* **Post-recovery sanity band** — the fault run's committed count must land
  within a band of the fault-free run minus the outage window
  (:func:`repro.recovery.failures.post_recovery_band`): faults must bite, but
  the system must come back.
"""

import pytest

from repro.bench.equivalence import snapshot
from repro.bench.parallel import SweepRunner
from repro.bench.runner import run_experiment
from repro.bench.scenarios import FAULT_SYSTEMS, get_scenario
from repro.recovery.failures import FaultPlan, fault_window, post_recovery_band

FAULT_SCENARIOS = ("fault_middleware_crash", "fault_ds_crash",
                   "fault_region_outage", "fault_latency_spike")

#: Reduced scale shared by every test here: 4 s simulated, light tables.
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
def test_fault_scenarios_are_registered_with_geotp_and_two_baselines():
    assert len(FAULT_SYSTEMS) >= 3
    assert "geotp" in FAULT_SYSTEMS
    for name in FAULT_SCENARIOS:
        scenario = get_scenario(name)
        (system_axis,) = [axis for axis in scenario.axes
                          if axis.name == "system"]
        assert system_axis.values == FAULT_SYSTEMS


def test_fault_window_scales_with_duration():
    at, dur = fault_window(10_000.0)
    assert at == 4_000.0 and dur == 1_500.0
    at_small, dur_small = fault_window(4_000.0)
    assert at_small == 1_600.0 and dur_small == 600.0


#: The catalogue entry, ``(fault, middleware)``, behind each scenario whose
#: points do not carry a ``fault`` param of their own.
CATALOGUE_ENTRY = {
    "fault_middleware_crash": ("mw_crash", None),
    "fault_ds_crash": ("ds_crash", None),
    "fault_region_outage": ("outage", None),
    "fault_latency_spike": ("lat_spike", None),
    "fleet_failover": ("mw_crash", "dm2"),
}


@pytest.mark.parametrize("duration_ms",
                         (10_000.0, 4_000.0, 3_000.0, 2_500.0, 7_777.7))
def test_every_fault_scenario_plan_is_its_catalogue_entry(duration_ms):
    """The catalogue is the one source of fault plans: no family drifts."""
    names = list(CATALOGUE_ENTRY) + ["chaos", "chaos_saturated"]
    for name in names:
        for point in get_scenario(name).sweep(duration_ms=duration_ms).points():
            fault, middleware = CATALOGUE_ENTRY.get(
                name, (point.params.get("fault"), None))
            expected = FaultPlan.named(fault, duration_ms, middleware=middleware)
            assert point.config.fault_plan == expected, (name, point.params)


def test_fault_plan_is_derived_per_point_and_stays_inside_the_run():
    for name in FAULT_SCENARIOS:
        sweep = get_scenario(name).sweep(**SCALE)
        for point in sweep.points():
            plan = point.config.fault_plan
            assert plan is not None
            for event in plan.events:
                assert event.at_ms >= point.config.warmup_ms
                assert event.at_ms + event.duration_ms < point.config.duration_ms


# ----------------------------------------------------------------- determinism
@pytest.mark.parametrize("scenario_name", FAULT_SCENARIOS)
@pytest.mark.parametrize("system", ("ssp", "geotp"))
def test_same_seed_fault_runs_are_byte_identical(scenario_name, system):
    first = snapshot(point_config(scenario_name, system, seed=11))
    second = snapshot(point_config(scenario_name, system, seed=11))
    assert first == second


def test_fault_sweep_results_identical_serial_and_parallel():
    """The fault report must survive pickling across pool workers unchanged."""
    sweep = get_scenario("fault_ds_crash").sweep(
        axes={"system": ("ssp", "geotp")}, **SCALE)
    serial = SweepRunner(max_workers=1).run(sweep)
    pooled = SweepRunner(max_workers=2).run(sweep)
    for left, right in zip(serial.summaries(), pooled.summaries()):
        assert left.to_dict() == right.to_dict()


# ---------------------------------------------------------------- sanity bands
@pytest.mark.parametrize("scenario_name", FAULT_SCENARIOS)
def test_post_recovery_commits_within_band_of_fault_free_run(scenario_name):
    faulted = run_point(scenario_name, "geotp", seed=3)
    fault_free = run_point(scenario_name, "geotp", seed=3, fault_free=True)
    assert fault_free.faults is None and faulted.faults is not None

    measured_ms = 4_000.0 - 800.0
    outage_ms = sum(end - start
                    for start, end in ((e["at_ms"], e["at_ms"] + e["duration_ms"])
                                       for e in faulted.faults["plan"]))
    lo, hi = post_recovery_band(fault_free.committed, measured_ms, outage_ms,
                                slack=0.35)
    assert lo <= faulted.committed <= hi, (
        f"{scenario_name}: committed {faulted.committed} outside "
        f"[{lo:.1f}, {hi:.1f}] (fault-free {fault_free.committed}, "
        f"outage {outage_ms:.0f}ms of {measured_ms:.0f}ms)")

    # And the service is back by the end of the run: the last second commits.
    series = faulted.faults["availability"]["series"]
    assert sum(committed for start, committed, _ in series
               if start >= 3_000.0) > 0, f"{scenario_name} never recovered"
