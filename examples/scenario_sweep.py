"""Declare a custom scenario and sweep it over a process pool.

The experiment layer is driven by a declarative registry: a scenario is a base
:class:`~repro.ExperimentConfig` plus named parameter axes, and the
:class:`~repro.bench.SweepRunner` expands it into independent experiment
points that can run serially or across worker processes with identical
results.  This example builds a small custom grid (system x terminals x skew)
without writing any runner loop, prints it with ``sweep_table`` (one row per
point) and reads single points back with ``SweepResult.get`` — the same path
the paper-claim tests under ``benchmarks/`` and the CLI take.

Run with::

    PYTHONPATH=src python examples/scenario_sweep.py
"""

from repro import ExperimentConfig, YCSBConfig
from repro.bench import SweepRunner, print_table, sweep_table
from repro.bench.scenarios import Axis, ScenarioSpec

scenario = ScenarioSpec(
    name="custom_grid",
    description="GeoTP vs SSP across load and contention",
    base=ExperimentConfig(
        duration_ms=4_000.0, warmup_ms=1_000.0,
        ycsb=YCSBConfig(records_per_node=10_000, preload_rows_per_node=1_000)),
    axes=(
        Axis("system", ("ssp", "geotp")),
        Axis("terminals", (8, 24)),
        Axis("skew", (0.3, 0.9), path="ycsb.skew"),
    ),
)

sweep = scenario.sweep()
print(f"expanding {scenario.name!r}: {sweep.size()} points, "
      f"axes {' x '.join(a.name for a in sweep.axes)}")

# max_workers > 1 fans the points out over a process pool; the results are
# identical either way because every point is independently seeded.
outcome = SweepRunner(max_workers=2).run(sweep)

print_table(f"custom grid ({outcome.wall_clock_s:.1f}s wall clock, "
            f"{outcome.workers} workers)", *sweep_table(outcome))

# GeoTP should dominate SSP at every grid point.
for terminals in (8, 24):
    for skew in (0.3, 0.9):
        geotp = outcome.get(system="geotp", terminals=terminals, skew=skew)
        ssp = outcome.get(system="ssp", terminals=terminals, skew=skew)
        marker = "OK " if geotp.throughput_tps > ssp.throughput_tps else "?! "
        print(f"{marker} terminals={terminals} skew={skew}: "
              f"geotp {geotp.throughput_tps:.1f} vs ssp {ssp.throughput_tps:.1f} tps")
