"""The ``chaos`` scenario and the graceful-degradation families.

* **Registration** — ``chaos`` sweeps every plan of the fault catalogue on
  ssp and geotp (14 points); the graceful-degradation specs
  (``admission_knee``, ``chaos_saturated``) sit beside it.
* **Fault plans** — every fault mode comes from the one fault catalogue,
  :meth:`~repro.recovery.failures.FaultPlan.named`.
* **Invariants** — a smoke-scale chaos point under drifting latency and
  Poisson arrivals runs clean through the full robustness-invariant catalog,
  and same-seed runs replay bit for bit.

Random timings, latency schedules, arrival shapes and workloads are the
config fuzz test's (``tests/recovery/test_config_fuzz.py``).
"""

import pytest

from repro import TopologyConfig
from repro.bench.equivalence import snapshot
from repro.bench.runner import run_experiment
from repro.bench.scenarios import KNEE_TPS, get_scenario, scenario_names
from repro.recovery.failures import FAULT_NAMES, FaultKind, FaultPlan
from repro.recovery.invariants import all_passed, violations
from repro.sim.latency import DynamicLatency
from repro.sim.rng import SeededRNG
from repro.workloads.arrivals import ArrivalConfig

#: Reduced scale of the graceful-degradation tests.
SCALE = dict(duration_ms=3_000.0, warmup_ms=600.0, terminals=4,
             ycsb__records_per_node=1_000)


def chaos_point(fault, system, **overrides):
    sweep = get_scenario("chaos").sweep(
        axes={"fault": (fault,), "system": (system,)}, **overrides)
    (point,) = sweep.points()
    return point.config


def drifting_open_point(fault, system, **overrides):
    """A chaos point under a seeded 4-phase ``DynamicLatency`` schedule per
    data node (which turns on the runner's active probing) and Poisson
    arrivals below every knee."""
    config = chaos_point(fault, system, **overrides)
    rng = SeededRNG(2025)
    phase_ms = config.duration_ms / 4
    config.topology = TopologyConfig.from_latency_models([
        DynamicLatency([(phase * phase_ms, rng.uniform(15.0, 160.0))
                        for phase in range(4)])
        for _node in range(4)])
    config.arrival = ArrivalConfig(process="poisson", rate_tps=40.0,
                                   max_clients=96)
    return config


# ---------------------------------------------------------------- registration
def test_chaos_sweeps_every_catalogue_fault_on_two_systems():
    axes = {axis.name: axis.values for axis in get_scenario("chaos").axes}
    assert axes == {"fault": FAULT_NAMES, "system": ("ssp", "geotp")}
    assert len(get_scenario("chaos").sweep().points()) == 14


def test_no_generated_chaos_family_is_registered():
    assert [name for name in scenario_names() if name.startswith("chaos")] \
        == ["chaos", "chaos_saturated"]


def test_graceful_degradation_scenarios_are_registered():
    knee = get_scenario("admission_knee")
    axes = {axis.name: axis.values for axis in knee.axes}
    assert axes["system"] == ("scalardb_plus", "geotp")
    assert axes["admission"] == ("on", "off")
    assert axes["load_multiple"] == (1.0, 2.0)
    assert set(axes["system"]) <= set(KNEE_TPS)

    saturated = get_scenario("chaos_saturated")
    axes = {axis.name: axis.values for axis in saturated.axes}
    assert axes["system"] == ("ssp", "scalardb_plus", "geotp")
    assert axes["fault"] == ("mw_crash", "ds_crash")


# ----------------------------------------------------------------- fault plans
def test_dual_plan_overlaps_across_targets_by_design():
    plan = FaultPlan.named("dual", 10_000.0)
    outage, partition = plan.events
    assert outage.kind is FaultKind.REGION_OUTAGE
    assert partition.kind is FaultKind.PARTITION
    # The outage heals inside the still-active partition window — that is
    # the re-interception path the network tests pin.
    heal = outage.at_ms + outage.duration_ms
    assert partition.at_ms < heal < partition.at_ms + partition.duration_ms


def test_cascade_plan_windows_are_strictly_sequential():
    plan = FaultPlan.named("cascade", 10_000.0)
    spike, crash = plan.events
    assert spike.kind is FaultKind.LATENCY_SPIKE
    assert crash.kind is FaultKind.DATASOURCE_CRASH
    assert spike.at_ms + spike.duration_ms < crash.at_ms


def test_every_fault_mode_builds_a_plan_inside_the_run():
    for fault in FAULT_NAMES:
        plan = FaultPlan.named(fault, 3_000.0)
        for event in plan.events:
            assert 0.0 < event.at_ms
            assert event.at_ms + event.duration_ms < 3_000.0


def test_unknown_fault_mode_is_rejected():
    with pytest.raises(ValueError, match="unknown fault 'gremlins'"):
        FaultPlan.named("gremlins", 1_000.0)


# -------------------------------------------------------------- materialisation
def test_fault_windows_scale_with_duration_overrides():
    config = chaos_point("ds_crash", "geotp", duration_ms=2_000.0,
                         warmup_ms=400.0)
    (event,) = config.fault_plan.events
    assert config.warmup_ms <= event.at_ms
    assert event.at_ms + event.duration_ms < config.duration_ms


def test_admission_knee_points_toggle_the_scheduler_at_the_knee():
    sweep = get_scenario("admission_knee").sweep(**SCALE)
    for point in sweep.points():
        config = point.config
        knee = KNEE_TPS[point.params["system"]]
        assert config.arrival.rate_tps == knee * point.params["load_multiple"]
        if point.params["admission"] == "off":
            assert config.geotp is not None
            assert config.geotp.admission_threshold == 0.0


# ------------------------------------------------- invariants and determinism
def test_smoke_scale_chaos_point_passes_every_invariant():
    config = drifting_open_point("cascade", "geotp")
    summary = run_experiment(config).summary()
    assert summary.invariants is not None
    assert all_passed(summary.invariants), violations(summary.invariants)
    assert summary.to_dict()["invariants"] == summary.invariants


def test_chaos_determinism_holds_on_every_engine():
    # A dual (outage-inside-partition) plan under drifting latency and
    # Poisson arrivals: plan execution, parked-delivery re-interception,
    # probing, recovery and the invariant evaluation all must replay bit for
    # bit.
    config = drifting_open_point("dual", "geotp", duration_ms=4_000.0,
                                 warmup_ms=800.0)
    assert len(config.fault_plan.events) == 2
    assert all(isinstance(node.latency_model, DynamicLatency)
               for node in config.topology.data_nodes)
    first, second = snapshot(config), snapshot(config)
    assert first == second, f"chaos point diverged: {first} != {second}"
