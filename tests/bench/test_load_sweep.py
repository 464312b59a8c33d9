"""The registered ``load_sweep`` scenario family: knee, memory, determinism.

Three properties make an open-system sweep trustworthy (a fourth — bounding
the latency reservoirs changes no reported number while they hold every
sample — is pinned on the collector itself, ``tests/metrics``):

* **The knee is visible** — past saturation, goodput plateaus or declines
  while tail latency and the drop rate explode.  A sweep that cannot show
  this is measuring the closed-loop world with extra steps.
* **Memory stays flat** — a 10x longer saturated point must not cost 10x the
  RSS.  Asserted on fresh subprocesses (``ru_maxrss`` is a process-lifetime
  high-water mark, so in-process measurements would only compound).
* **Same-seed runs are byte-identical** — the arrival stream,
  the pool's shed/reuse churn and the reservoirs all replay bit for bit
  (pinned via the ``load_sweep`` determinism golden).
"""

import json
import subprocess
import sys

import pytest

from repro.bench.goldens import determinism_document
from repro.bench.parallel import SweepRunner
from repro.bench.scenarios import get_scenario
from repro.metrics import DEFAULT_RESERVOIR_SIZE
from repro.workloads.arrivals import ARRIVAL_PROCESSES

#: Reduced-scale overrides shared by every sweep in this module: a fully
#: preloaded 1k-row table, a 128-session pool, 6 simulated seconds.
SCALE = dict(duration_ms=6_000.0, warmup_ms=1_000.0,
             ycsb__records_per_node=1_000, ycsb__preload_rows_per_node=1_000,
             arrival__max_clients=128)

#: Offered rates bracketing the reduced-scale knee (geotp saturates ~80 tps
#: at this scale; 320/640 are 4-8x past it).
RATES = (40.0, 80.0, 320.0, 640.0)


# -------------------------------------------------------------------- registry
def test_scenario_is_registered_with_system_and_rate_axes():
    scenario = get_scenario("load_sweep")
    axes = {axis.name for axis in scenario.axes}
    assert axes == {"system", "rate_tps"}
    assert scenario.base.arrival is not None
    assert scenario.base.arrival.process == "poisson"
    # The scenario table is fully materialised at load time so the modelled
    # database is identical at every run length (see _open_system_ycsb).
    assert scenario.base.ycsb.preload_rows_per_node >= \
        scenario.base.ycsb.records_per_node


def test_load_shapes_scenario_covers_every_arrival_process():
    scenario = get_scenario("load_shapes")
    shape_axis = next(a for a in scenario.axes if a.name == "process")
    assert set(shape_axis.values) == set(ARRIVAL_PROCESSES)


# ------------------------------------------------------------------------ knee
@pytest.fixture(scope="module")
def knee_curve():
    sweep = get_scenario("load_sweep").sweep(
        axes={"system": ["geotp"], "rate_tps": list(RATES)}, **SCALE)
    summaries = SweepRunner(max_workers=1).run(sweep).summaries()
    return dict(zip(RATES, summaries))


def test_goodput_declines_past_the_knee(knee_curve):
    peak = max(s.throughput_tps for s in knee_curve.values())
    assert knee_curve[80.0].throughput_tps == pytest.approx(peak)
    # 8x past the knee the system thrashes: goodput is *below* the peak, not
    # merely flat — offered load is not achieved load.
    assert knee_curve[640.0].throughput_tps < 0.5 * peak


def test_tail_latency_explodes_past_the_knee(knee_curve):
    before = knee_curve[40.0].p99_latency_ms
    past = max(knee_curve[320.0].p99_latency_ms,
               knee_curve[640.0].p99_latency_ms)
    assert past >= 5.0 * before


def test_pool_sheds_hard_past_the_knee(knee_curve):
    assert knee_curve[40.0].open_loop["drop_rate"] == 0.0
    assert knee_curve[640.0].open_loop["drop_rate"] > 0.5


def test_every_point_reports_streaming_books_and_rss(knee_curve):
    for summary in knee_curve.values():
        assert "metrics_mode" not in summary.to_dict()
        assert len(summary.latency_samples) <= DEFAULT_RESERVOIR_SIZE
        assert summary.open_loop["offered"] == \
            summary.open_loop["started"] + summary.open_loop["dropped"]
        assert summary.peak_rss_bytes > 0
        if summary.admission is not None:
            assert summary.admission["admitted"] >= 0


# ----------------------------------------------------------------- determinism
def test_load_sweep_determinism_holds_on_every_engine():
    # Config: repro.bench.goldens.load_sweep_config() — one saturated point.
    document = determinism_document("load_sweep")
    assert document["identical"], (
        f"load_sweep diverged: {document['first']} != {document['second']}")


# ---------------------------------------------------------------------- memory
_RSS_PROBE = """
import json, sys
from repro.bench.scenarios import get_scenario
from repro.bench.runner import run_experiment
from repro.metrics.resources import process_peak_rss_bytes
sweep = get_scenario("load_sweep").sweep(
    axes={"system": ["geotp"], "rate_tps": [320.0]},
    duration_ms=float(sys.argv[1]), warmup_ms=1_000.0,
    ycsb__records_per_node=1_000, ycsb__preload_rows_per_node=1_000,
    arrival__max_clients=128)
summary = run_experiment(sweep.points()[0].config)
print(json.dumps({"completed": summary.open_loop["completed"],
                  "peak_rss_bytes": process_peak_rss_bytes()}))
"""


def probe_rss(duration_ms):
    from tests.conftest import REPO_ROOT, subprocess_env

    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, str(duration_ms)],
        capture_output=True, text=True, env=subprocess_env(),
        cwd=REPO_ROOT, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_saturated_point_rss_is_flat_in_run_length():
    # The acceptance bar at demo scale (10^4 vs 10^6 transactions) is peak
    # RSS <= 2x; this is the same measurement shrunk to test runtime: 10x the
    # simulated time past the knee must stay within 2x the RSS — a linear
    # leak of any kind (samples, finished processes, WAL records, agent
    # bookkeeping) fails it immediately.
    short = probe_rss(20_000.0)
    long = probe_rss(200_000.0)
    assert long["completed"] >= 5 * short["completed"]
    assert long["peak_rss_bytes"] <= 2.0 * short["peak_rss_bytes"], (
        f"RSS grew {long['peak_rss_bytes'] / short['peak_rss_bytes']:.2f}x "
        f"over a 10x longer saturated run")
