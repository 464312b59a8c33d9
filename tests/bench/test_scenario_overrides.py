"""Override census: no override given to ``ScenarioSpec.sweep`` is silently
dropped.

Every axis declares the config path it sets.  An override of a plain axis's
path collapses that axis to the given value; an override of a path that a
labelled axis sets per point (``contention`` sets ``ycsb.skew``), that holds
a path an axis sets (``ycsb`` holds ``ycsb.skew``) or that a scenario's apply
function rewrites per point (fig11b's ``duration_ms``) makes ``points()``
raise ``ValueError`` naming the scenario and the path.
"""

import copy
import functools

import pytest

from repro.bench import SCENARIOS, get_scenario
from repro.workloads.ycsb import YCSBConfig


def _value_at(config, path):
    return functools.reduce(getattr, path.split("."), config)


def _axis_cases():
    return [pytest.param(name, axis, id=f"{name}.{axis.name}")
            for name, scenario in SCENARIOS.items()
            for axis in scenario.axes if axis.path is not None]


def test_an_override_of_a_swept_skew_runs_that_skew():
    points = get_scenario("fig12_ablation").sweep(ycsb__skew=1.5).points()
    assert len(points) == 4
    assert {point.config.ycsb.skew for point in points} == {1.5}


def test_an_override_of_a_swept_ratio_runs_that_ratio():
    points = get_scenario("fig7_dist_ratio_ycsb").sweep(
        ycsb__distributed_ratio=0.9).points()
    assert len(points) == 12
    assert {point.config.ycsb.distributed_ratio for point in points} == {0.9}


def test_an_override_of_a_fixed_tpcc_field_reaches_every_point():
    points = get_scenario("fig9_dist_ratio_tpcc").sweep(
        tpcc__warehouses_per_node=2).points()
    assert len(points) == 24
    assert {point.config.tpcc.warehouses_per_node for point in points} == {2}


@pytest.mark.parametrize("name,axis", _axis_cases())
def test_an_override_of_an_axis_path_collapses_or_names_the_axis(name, axis):
    scenario = get_scenario(name)
    key = axis.path.replace(".", "__")
    if axis.table is None:
        value = axis.values[0]
        points = scenario.sweep(**{key: value}).points()
        assert len(points) == scenario.size() // len(axis.values)
        assert all(_value_at(point.config, axis.path) == value
                   for point in points)
        assert {point.params[axis.name] for point in points} == {value}
    else:
        value = copy.deepcopy(axis.table[axis.values[0]])
        sweep = scenario.sweep(**{key: value})
        with pytest.raises(ValueError, match=f"scenario '{name}': axis "
                                             f"'{axis.name}' sets "
                                             f"'{axis.path}' per point"):
            sweep.points()


def test_an_override_holding_an_axis_path_names_the_axis():
    """A whole ``ycsb`` override would lose its skew and ratio per point."""
    sweep = get_scenario("fig7_dist_ratio_ycsb").sweep(
        ycsb=YCSBConfig(skew=0.1, distributed_ratio=0.9))
    with pytest.raises(ValueError, match="axis 'contention' sets 'ycsb.skew' "
                                         "per point, so the override of "
                                         "'ycsb' would be ignored"):
        sweep.points()


@pytest.mark.parametrize("name,key,path", [
    ("fig11b_dynamic_latency", "duration_ms", "duration_ms"),
    ("chaos_saturated", "arrival__rate_tps", "arrival.rate_tps"),
    ("fig11a_random_latency", "seed", "seed"),
])
def test_an_override_that_an_apply_function_rewrites_raises(name, key, path):
    sweep = get_scenario(name).sweep(**{key: 3})
    with pytest.raises(ValueError,
                       match=f"scenario '{name}' recomputes '{path}' per point"):
        sweep.points()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_run_flag_reaches_every_point_or_raises(name):
    """The CLI's overrides, on every scenario: never silently dropped."""
    overrides = {"duration_ms": 1234.0, "warmup_ms": 123.0, "terminals": 3,
                 "seed": 77}
    if get_scenario(name).base.arrival is not None:
        overrides["arrival__rate_tps"] = 33.0
    for key, value in overrides.items():
        sweep = get_scenario(name).sweep(**{key: value})
        try:
            points = sweep.points()
        except ValueError as exc:
            assert f"scenario '{name}' recomputes" in str(exc)
            continue
        path = key.replace("__", ".")
        assert {_value_at(point.config, path) for point in points} == {value}


def test_an_unknown_label_fails_by_name():
    scenario = get_scenario("fig7_dist_ratio_ycsb")
    with pytest.raises(ValueError, match="axis 'contention' has no labels "
                                         r"\['extreme'\]"):
        scenario.sweep(axes={"contention": ("low", "extreme")})
    with pytest.raises(ValueError, match="axis 'mean_rtt_ms' has no labels"):
        get_scenario("fig10_mean_sweep").sweep(axes={"mean_rtt_ms": (30,)})


def test_a_labelled_axis_picked_by_name_collapses_to_that_label():
    points = get_scenario("fig7_dist_ratio_ycsb").sweep(
        contention="high").points()
    assert len(points) == 12
    assert {point.config.ycsb.skew for point in points} == {1.5}


def test_points_never_share_a_table_value():
    first, second = get_scenario("fig10_mean_sweep").sweep(
        axes={"mean_rtt_ms": (20, 20), "system": ("geotp",)}).points()
    assert first.config.topology is not second.config.topology
    assert first.config.topology.data_nodes[0] is not \
        second.config.topology.data_nodes[0]
