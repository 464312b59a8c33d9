"""Golden pins for the run's time grid: the Fig. 11b series and a fault report.

The collector buckets completions on one time grid; Fig. 11b's throughput
series and the availability report (with everything the fault report derives
from it) read that grid.  These pins (``tests/bench/data/pins.json``) fix
both outputs at a small scale, so a change to how the grid is laid out or read
cannot move either figure.  The fault point's warm-up (1,500 ms) is
deliberately not a multiple of the 1 s availability bucket: its buckets start
on the warm-up boundary, not on whole seconds.
"""

from __future__ import annotations

from repro.bench.equivalence import snapshot
from repro.bench.scenarios import get_scenario
from tests.bench.pins import assert_pinned


def _only_point(scenario: str, **kwargs):
    (point,) = get_scenario(scenario).sweep(
        axes={"system": ("geotp",)}, **kwargs).points()
    return point.config


def test_fig11b_timeline_json_is_pinned():
    config = _only_point("fig11b_dynamic_latency", terminals=6,
                         fixed={"phase_ms": 2_000.0, "phases": 3})
    assert_pinned("time_grid.fig11b.geotp", snapshot(config))


def test_fault_report_on_an_off_second_warmup_is_pinned():
    # Pins the availability grid and what the report derives from it: the
    # time to recover and the baseline throughput of the one crash.
    config = _only_point("fault_ds_crash", terminals=6,
                         duration_ms=9_000.0, warmup_ms=1_500.0)
    assert_pinned("time_grid.fault_ds_crash.geotp", snapshot(config))
