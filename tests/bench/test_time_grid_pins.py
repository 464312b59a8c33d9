"""Golden pins for the run's time grid: the Fig. 11b series and a fault report.

The collector buckets completions on one time grid; Fig. 11b's throughput
series and the availability report (with everything the fault report derives
from it) read that grid.  These pins fix both outputs at a small scale, so a
change to how the grid is laid out or read cannot move either figure.  The
fault point's warm-up (1,500 ms) is deliberately not a multiple of the 1 s
availability bucket: its buckets start on the warm-up boundary, not on whole
seconds.
"""

from __future__ import annotations

from repro.bench.runner import run_experiment
from repro.bench.scenarios import get_scenario


def _only_point(scenario: str, **kwargs):
    (point,) = get_scenario(scenario).sweep(
        axes={"system": ("geotp",)}, **kwargs).points()
    return point.config


def test_fig11b_timeline_json_is_pinned():
    config = _only_point("fig11b_dynamic_latency", terminals=6,
                         fixed={"phase_ms": 2_000.0, "phases": 3})
    assert run_experiment(config).to_dict()["timeline"] == {
        "bucket_ms": 500.0,
        "series": [[0.0, 20.0], [500.0, 32.0], [1000.0, 20.0],
                   [1500.0, 28.0], [2000.0, 54.0], [2500.0, 40.0],
                   [3000.0, 44.0], [3500.0, 38.0], [4000.0, 26.0],
                   [4500.0, 30.0], [5000.0, 28.0], [5500.0, 28.0]],
    }


def test_fault_report_on_an_off_second_warmup_is_pinned():
    config = _only_point("fault_ds_crash", terminals=6,
                         duration_ms=9_000.0, warmup_ms=1_500.0)
    faults = run_experiment(config).faults
    event = "datasource_crash(ds1) @3600ms for 1350ms"
    assert faults["availability"] == {
        "bucket_ms": 1000.0,
        "series": [[1500.0, 24, 0], [2500.0, 34, 0], [3500.0, 19, 8],
                   [4500.0, 27, 6], [5500.0, 18, 0], [6500.0, 35, 0],
                   [7500.0, 23, 0], [8500.0, 19, 0]],
        "availability": 1.0,
        "abort_spike": 4.571428571428571,
    }
    assert faults["time_to_recover_ms"] == {event: 0.0}
    assert faults["recovery_baseline_tps"] == {event: 29.0}
