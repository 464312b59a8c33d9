"""Cross-layer consistency: scenarios, the Fig. 12 table and registries agree.

Two invariants guard the plugin seams:

* every system/workload name referenced anywhere in the scenario registry
  (axis values, base configs, Fig. 12 variants) resolves in the plugin
  registry — a scenario can never name a system that does not exist;
* every registered system and workload actually *wires and runs*: a plugin
  that registers but cannot build a cluster (or whose coordinator dies on the
  first transaction) is caught here by a 1-terminal micro-experiment, not by
  a user's overnight sweep.
"""

import pytest

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.bench.scenarios import FIG12_VARIANTS, SCENARIOS
from repro.cluster.topology import TopologyConfig
from repro.core.config import GeoTPConfig
from repro.plugins import (
    normalize_system,
    normalize_workload,
    system_names,
    workload_names,
)
from repro.workloads.ycsb import YCSBConfig


def _scenario_system_references():
    """Every (scenario, system) reference in the scenario registry."""
    for name, scenario in SCENARIOS.items():
        yield f"{name}.base", scenario.base.system
        for axis in scenario.axes:
            if axis.name == "system":
                for value in axis.values:
                    yield f"{name}.axes", value


def test_every_scenario_system_resolves_in_the_registry():
    for where, system in _scenario_system_references():
        assert normalize_system(system) in system_names(), (where, system)


def test_every_scenario_workload_resolves_in_the_registry():
    for name, scenario in SCENARIOS.items():
        assert normalize_workload(scenario.base.workload) in workload_names(), name


def test_every_ablation_variant_maps_to_a_registered_system():
    for variant, (system, switches) in FIG12_VARIANTS.items():
        assert normalize_system(system) in system_names(), variant
        if switches is not None:
            GeoTPConfig(**switches)  # only real GeoTPConfig fields


def test_fig12_variants_add_the_optimizations_in_order():
    """SSP, then GeoTP with O1, O1+O2 and O1+O2+O3 (the full system)."""
    configs = [None if switches is None else GeoTPConfig(**switches)
               for _system, switches in FIG12_VARIANTS.values()]
    assert list(FIG12_VARIANTS) == ["ssp", "geotp_o1", "geotp_o1_o2",
                                    "geotp_o1_o3"]
    assert configs[0] is None
    assert [(c.enable_latency_aware_scheduling,
             c.enable_high_contention_optimization) for c in configs[1:]] == [
        (False, False), (True, False), (True, True)]
    assert configs[3] == GeoTPConfig()


def test_variant_axis_values_resolve_in_ablation_builders():
    for name, scenario in SCENARIOS.items():
        for axis in scenario.axes:
            if axis.name == "variant":
                for value in axis.values:
                    assert value in FIG12_VARIANTS, (name, value)


# --------------------------------------------------------- micro experiments
def _micro_config(**overrides) -> ExperimentConfig:
    """A 1-terminal experiment small enough to run for every plugin."""
    defaults = dict(
        terminals=1, duration_ms=600.0, warmup_ms=100.0,
        topology=TopologyConfig.from_rtts([5.0, 20.0]),
        ycsb=YCSBConfig(records_per_node=200),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.mark.parametrize("system", system_names())
def test_every_registered_system_builds_and_runs(system):
    """Registering is not enough: the plugin must wire and commit work."""
    result = run_experiment(_micro_config(system=system))
    assert result.system == system
    assert result.committed > 0, f"{system} ran but committed nothing"


@pytest.mark.parametrize("workload", workload_names())
def test_every_registered_workload_builds_and_runs(workload):
    result = run_experiment(_micro_config(system="ssp", workload=workload))
    assert result.workload == workload
    assert result.committed > 0, f"{workload} ran but committed nothing"
