"""Tests for the declarative scenario registry and sweep expansion."""

import pickle

import pytest

from repro import ExperimentConfig
from repro.bench.scenarios import (
    SCENARIOS,
    Axis,
    ScenarioSpec,
    get_scenario,
    scenario_names,
    set_config_param,
)
from repro.workloads.ycsb import CONTENTION_SKEW

#: Every paper figure/table the registry must declaratively cover.
EXPECTED_SCENARIOS = {
    "fig1b", "fig5_overall", "fig6_breakdown", "fig7_dist_ratio_ycsb",
    "fig8_latency_cdf", "fig9_dist_ratio_tpcc", "fig10_mean_sweep",
    "fig10_std_sweep", "fig11a_random_latency", "fig11b_dynamic_latency",
    "fig11b_fine", "fig12_ablation", "fig13_yugabyte", "fig14_length",
    "fig14_rounds", "fig15_multi_region", "table1_heterogeneous", "smoke",
}


def test_fig11b_fine_expands_to_320_one_second_phases():
    sweep = get_scenario("fig11b_fine").sweep()
    points = sweep.points()
    assert len(points) == 2
    for point in points:
        assert point.config.duration_ms == 320_000.0
        models = [node.latency_model
                  for node in point.config.topology.data_nodes]
        assert all(len(model.schedule) == 320 for model in models)
        assert all(model.schedule[1][0] == 1_000.0 for model in models)


def test_registry_covers_every_paper_experiment():
    assert EXPECTED_SCENARIOS <= set(scenario_names())


def test_get_scenario_unknown_name_lists_known_ones():
    """Only the close matches: the registry has hundreds of generated names."""
    with pytest.raises(KeyError, match="did you mean smoke") as excinfo:
        get_scenario("smok")
    assert len(excinfo.value.args[0]) < 400
    with pytest.raises(KeyError, match="repro.bench list"):
        get_scenario("nope")


def test_points_expand_cartesian_product_in_declaration_order():
    sweep = ScenarioSpec(name="demo", base=ExperimentConfig(),
                         axes=(Axis("system", ("ssp", "geotp")),
                               Axis("terminals", (4, 8))))
    points = sweep.points()
    assert sweep.size() == 4
    assert [p.params for p in points] == [
        {"system": "ssp", "terminals": 4},
        {"system": "ssp", "terminals": 8},
        {"system": "geotp", "terminals": 4},
        {"system": "geotp", "terminals": 8},
    ]
    assert [p.index for p in points] == [0, 1, 2, 3]
    # Axis values land on the config when they name an ExperimentConfig field.
    assert points[3].config.system == "geotp"
    assert points[3].config.terminals == 8


def test_points_get_independent_config_copies():
    base = ExperimentConfig()
    sweep = ScenarioSpec(name="demo", base=base, axes=(Axis("seed", (1, 2)),))
    one, two = sweep.points()
    one.config.ycsb.skew = 99.0
    assert two.config.ycsb.skew != 99.0
    assert base.ycsb.skew != 99.0
    assert base.seed == 0


def test_sweep_overrides_axes_and_base_fields():
    scenario = get_scenario("fig5_overall")
    sweep = scenario.sweep(axes={"terminals": (2,)}, duration_ms=1234.0,
                           workload="tpcc", ycsb__skew=1.5)
    assert [a.values for a in sweep.axes if a.name == "terminals"] == [(2,)]
    assert sweep.base.duration_ms == 1234.0
    assert sweep.base.workload == "tpcc"
    assert sweep.base.ycsb.skew == 1.5
    # The registered scenario itself is never mutated by deriving sweeps.
    assert scenario.base.duration_ms != 1234.0
    assert scenario.base.ycsb.skew == CONTENTION_SKEW["medium"]


def test_sweep_rejects_unknown_axis_and_none_overrides_are_ignored():
    scenario = get_scenario("fig5_overall")
    with pytest.raises(KeyError):
        scenario.sweep(axes={"nope": (1,)})
    sweep = scenario.sweep(duration_ms=None, terminals=None)
    assert sweep.base.duration_ms == scenario.base.duration_ms


def test_an_override_naming_an_axis_collapses_that_axis():
    points = get_scenario("fig5_overall").sweep(terminals=16).points()
    assert len(points) == 5
    assert {p.config.terminals for p in points} == {16}
    assert {p.params["terminals"] for p in points} == {16}
    # An axis with a path is named by its dotted path too.
    points = get_scenario("load_sweep").sweep(arrival__rate_tps=80.0).points()
    assert len(points) == 3
    assert {p.config.arrival.rate_tps for p in points} == {80.0}


def test_set_config_param_rejects_unknown_paths():
    config = ExperimentConfig()
    with pytest.raises(AttributeError):
        set_config_param(config, "ycsb.nope", 1)


def test_label_tables_and_apply_functions_shape_complex_scenarios():
    fig1 = get_scenario("fig1b").sweep(axes={"ds2_latency_ms": (60,)})
    for point in fig1.points():
        assert point.config.topology is not None
        assert len(point.config.topology.data_nodes) == 2
        assert point.config.ycsb.skew == CONTENTION_SKEW[point.params["contention"]]

    fig9 = get_scenario("fig9_dist_ratio_tpcc").sweep(
        axes={"system": ("geotp",), "ratio": (0.6,)})
    assert [(p.config.tpcc.mix, p.config.tpcc.distributed_ratio)
            for p in fig9.points()] == [({"payment": 1.0}, 0.6),
                                        ({"new_order": 1.0}, 0.6)]

    fig12 = get_scenario("fig12_ablation").sweep(axes={"skew": (0.9,)})
    variants = {p.params["variant"]: p.config for p in fig12.points()}
    assert variants["ssp"].system == "ssp" and variants["ssp"].geotp is None
    assert variants["geotp_o1"].geotp.enable_latency_aware_scheduling is False
    assert variants["geotp_o1_o3"].geotp.enable_high_contention_optimization is True

    table1 = get_scenario("table1_heterogeneous").sweep(axes={"ratio": (0.25,)})
    dialects = {p.params["deployment"]:
                [n.dialect for n in p.config.topology.data_nodes]
                for p in table1.points()}
    assert dialects["S2"] == ["postgresql", "mysql", "postgresql", "mysql"]


def test_fig11a_points_derive_seed_from_repeat():
    sweep = get_scenario("fig11a_random_latency").sweep(
        axes={"ratio": (0.2,), "repeat": (0, 1)})
    seeds = [p.config.seed for p in sweep.points()]
    assert seeds == [0, 1, 0, 1]  # system x ratio x repeat


def test_every_registered_scenario_expands_to_picklable_points():
    for name, scenario in SCENARIOS.items():
        points = scenario.sweep().points()
        assert len(points) == scenario.sweep().size() > 0, name
        # Points must cross process boundaries, configs and params included.
        pickle.loads(pickle.dumps(points))


def test_registering_requires_unique_axis_names():
    with pytest.raises(ValueError):
        ScenarioSpec(name="dup", base=ExperimentConfig(),
                     axes=(Axis("system", ("ssp",)), Axis("system", ("geotp",))))


def test_scenario_spec_is_reusable_across_derived_sweeps():
    scenario = ScenarioSpec(name="tiny", description="demo",
                            base=ExperimentConfig(terminals=3),
                            axes=(Axis("system", ("ssp",)),))
    first = scenario.sweep(terminals=7)
    second = scenario.sweep()
    assert first.base.terminals == 7
    assert second.base.terminals == 3
