"""Benchmark harness: scenario registry, sweep runner, reporting.

The layer is one pipeline, registry scenario → :class:`SweepRunner` →
:class:`SweepResult`, shared by the CLI, figures, examples and ``benchmarks/``:

* ``scenarios`` — declarative :class:`ScenarioSpec` registry; every paper
  figure/table is a base config plus named parameter axes;
* ``parallel`` — :class:`SweepRunner` expands a sweep and executes its points
  serially or across a process pool; ``SweepResult.get/select`` address the
  points by their params;
* ``cache`` — opt-in per-point result cache keyed on (canonical config hash,
  seed, source fingerprint) that makes killed sweeps resumable;
* ``figures`` — sanity-checked figure pipeline over the CLI's JSON documents
  (dict-of-columns data, registered checks, optional matplotlib rendering);
* ``runner`` / ``report`` — the single-point experiment runner and the
  plain-text tables (:func:`sweep_table`: one row per sweep point).

``python -m repro.bench`` lists and runs registered scenarios from the shell.
"""

from repro.bench.cache import SweepCache, canonical_repr, config_hash
from repro.bench.figures import (
    Figure,
    FigureCheckError,
    assert_figure,
    build_figures,
    check_figure,
    emit_figures,
)
from repro.bench.parallel import (
    PointResult,
    SweepResult,
    SweepRunner,
)
from repro.bench.report import format_table, print_table, sweep_table
from repro.bench.runner import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentSummary,
    run_experiment,
)
from repro.bench.scenarios import (
    SCENARIOS,
    Axis,
    ScenarioSpec,
    SweepPoint,
    SweepSpec,
    get_scenario,
    scenario_names,
)

__all__ = [
    "Axis",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentSummary",
    "Figure",
    "FigureCheckError",
    "PointResult",
    "SCENARIOS",
    "SweepCache",
    "assert_figure",
    "build_figures",
    "canonical_repr",
    "check_figure",
    "config_hash",
    "emit_figures",
    "ScenarioSpec",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "format_table",
    "get_scenario",
    "print_table",
    "run_experiment",
    "scenario_names",
    "sweep_table",
]
