"""The generated chaos matrix: registration, determinism, invariants.

The acceptance bar for the chaos combinator, pinned as tests:

* **Registration** — the full matrix generates >= 200 ``chaos_*`` scenarios
  (7 catalogue faults x 3 latency profiles x 4 arrival shapes x 3 workloads
  = 252), all under the ``chaos`` scenario family, plus the two
  graceful-degradation specs (``admission_knee``, ``chaos_saturated``).
* **Fault plans** — every fault mode comes from the one fault catalogue,
  :meth:`~repro.recovery.failures.FaultPlan.named`.
* **Deterministic budget** — the run-time sample is seeded: the same seed
  always picks the same scenarios.
* **Invariants** — a smoke-scale chaos point runs clean through the full
  robustness-invariant catalog, and same-seed runs replay bit for bit.
"""

import pytest

from repro.bench.equivalence import snapshot
from repro.bench.runner import run_experiment
from repro.bench.scenarios import SCENARIOS, get_scenario
from repro.recovery.chaos import (
    CHAOS_LATENCY_PROFILES,
    CHAOS_SHAPES,
    CHAOS_SYSTEMS,
    CHAOS_WORKLOADS,
    KNEE_TPS,
    chaos_scenario_names,
    sample_chaos_scenarios,
)
from repro.recovery.failures import FAULT_NAMES, FaultKind, FaultPlan
from repro.recovery.invariants import all_passed, violations
from repro.sim import DynamicLatency

#: Reduced scale shared by the run tests (mirrors the fault-family tests).
SCALE = dict(duration_ms=3_000.0, warmup_ms=600.0, terminals=4,
             ycsb__records_per_node=1_000)


def expand_point(name, system, **overrides):
    sweep = get_scenario(name).sweep(axes={"system": (system,)},
                                     **{**SCALE, **overrides})
    points = sweep.points()
    assert len(points) == 1
    return points[0].config


# ---------------------------------------------------------------- registration
def test_full_matrix_registers_at_least_200_chaos_scenarios():
    names = chaos_scenario_names()
    expected = (len(FAULT_NAMES) * len(CHAOS_LATENCY_PROFILES)
                * len(CHAOS_SHAPES) * len(CHAOS_WORKLOADS))
    assert expected == 252
    assert len(names) == expected
    assert len(names) >= 200


def test_chaos_names_encode_their_axis_values():
    for name in chaos_scenario_names():
        assert name.startswith("chaos_")
        spec = SCENARIOS[name]
        assert spec.family == "chaos"
        fault, latency, shape = (spec.fixed["fault"], spec.fixed["latency"],
                                 spec.fixed["shape"])
        workload = spec.base.workload
        assert name == f"chaos_{fault}_{latency}_{shape}_{workload}"
        (system_axis,) = spec.axes
        assert system_axis.name == "system"
        assert system_axis.values == CHAOS_SYSTEMS


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


# -------------------------------------------------------------- budget control
def test_sample_chaos_scenarios_is_seeded_and_bounded():
    first = sample_chaos_scenarios(10, seed=3)
    second = sample_chaos_scenarios(10, seed=3)
    assert first == second
    assert len(first) == 10
    assert all(name in chaos_scenario_names() for name in first)
    assert sample_chaos_scenarios(10, seed=4) != first
    everything = sample_chaos_scenarios(10_000)
    assert everything == chaos_scenario_names()
    for count in (0, -2):
        with pytest.raises(ValueError, match="at least one"):
            sample_chaos_scenarios(count)


# -------------------------------------------------------------- materialisation
def test_latency_profiles_materialise_dynamic_topologies():
    flat = expand_point("chaos_dual_flat_poisson_ycsb", "geotp")
    assert flat.topology is None
    drift = expand_point("chaos_dual_drift_poisson_ycsb", "geotp")
    churn = expand_point("chaos_dual_churn_poisson_ycsb", "ssp")
    # A DynamicLatency link is what turns on the runner's active probing.
    for config in (drift, churn):
        assert config.topology is not None
        assert all(isinstance(node.latency_model, DynamicLatency)
                   for node in config.topology.data_nodes)


def test_fault_windows_scale_with_duration_overrides():
    config = expand_point("chaos_ds_crash_flat_closed_ycsb", "geotp")
    (event,) = config.fault_plan.events
    assert config.warmup_ms <= event.at_ms
    assert event.at_ms + event.duration_ms < config.duration_ms


def test_open_shapes_set_the_below_knee_arrival_process():
    config = expand_point("chaos_mw_crash_flat_mmpp_tpcc", "geotp")
    assert config.arrival is not None
    assert config.arrival.process == "mmpp"
    assert config.arrival.rate_tps < min(KNEE_TPS.values())
    closed = expand_point("chaos_mw_crash_flat_closed_tpcc", "geotp")
    assert closed.arrival is None


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
    config = expand_point("chaos_cascade_drift_poisson_ycsb", "geotp")
    summary = run_experiment(config).summary()
    assert summary.invariants is not None
    assert all_passed(summary.invariants), violations(summary.invariants)
    assert summary.to_dict()["invariants"] == summary.invariants


def chaos_config():
    """One generated composed-fault point at smoke scale.

    A dual (outage-inside-partition) plan under drifting DynamicLatency
    schedules and Poisson arrivals, so plan execution, parked-delivery
    re-interception, recovery and the invariant evaluation all must replay
    bit for bit.
    """
    sweep = get_scenario("chaos_dual_drift_poisson_ycsb").sweep(
        axes={"system": ["geotp"]},
        duration_ms=4_000.0, warmup_ms=800.0, terminals=4,
        ycsb__records_per_node=1_000)
    return sweep.points()[0].config


def test_chaos_determinism_holds_on_every_engine():
    first, second = snapshot(chaos_config()), snapshot(chaos_config())
    assert first == second, f"chaos point diverged: {first} != {second}"


def test_chaos_config_matches_the_registered_scenario():
    config = chaos_config()
    assert config.fault_plan is not None
    assert len(config.fault_plan.events) == 2
    assert config.topology is not None
    assert config.arrival is not None and config.arrival.process == "poisson"
