"""Cluster lifecycle: build -> load -> run -> close.

``run_experiment`` closes its cluster on exit (unless ``keep_cluster=True``),
which must break every reference cycle of the deployment: a finished point is
then freed by reference counting at return and leaves nothing for the cyclic
collector — neither at the end of a run nor, in steady state, during one.
"""

import gc
import json
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro import ExperimentConfig, TopologyConfig, YCSBConfig, run_experiment
from repro.cluster.deployment import Cluster
from repro.plugins import system_names
from repro.workloads.arrivals import ArrivalConfig

#: Simulator objects that must never be left to the cyclic collector.
SIMULATOR_TYPES = {"Record", "LocalTransaction", "Process", "DataSource",
                   "HotspotEntry", "WALRecord", "LockRequest", "WheelTimer"}
LOCK_WAIT_TYPES = {"LockRequest", "WheelTimer", "LockTimeoutError"}


def micro(system):
    return ExperimentConfig(system=system, terminals=1, duration_ms=3_000.0,
                            warmup_ms=300.0, seed=1)


CONTENDED = ExperimentConfig(
    system="ssp", terminals=8, duration_ms=4_000.0, warmup_ms=500.0, seed=1,
    ycsb=YCSBConfig(skew=1.5, records_per_node=200))

#: Far past the knee on a tiny hot table with a short lock-wait timeout, so a
#: few simulated seconds already see lock waits expire.
OPEN_LOOP = ExperimentConfig(
    system="ssp", duration_ms=4_000.0, warmup_ms=500.0, seed=1,
    topology=replace(TopologyConfig.paper_default(), lock_wait_timeout_ms=300.0),
    ycsb=YCSBConfig(skew=1.5, records_per_node=50),
    arrival=ArrivalConfig(process="poisson", rate_tps=400.0, max_clients=64))


@contextmanager
def collector_paused():
    """Keep the automatic collector out of the way of a SAVEALL inspection."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def collected_types():
    """Type names of everything one forced collection finds unreachable."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    found = Counter(type(obj).__name__ for obj in gc.garbage)
    gc.set_debug(0)
    gc.garbage.clear()
    return found


def configs():
    yield from ((f"micro-{system}", micro(system)) for system in system_names())
    yield "contended", CONTENDED
    yield "open-loop", OPEN_LOOP


@pytest.mark.parametrize("label,config", list(configs()),
                         ids=[label for label, _ in configs()])
def test_finished_point_leaves_nothing_to_the_cyclic_collector(label, config):
    with collector_paused():
        result = run_experiment(config)
        assert result.committed > 0
        del result
        found = collected_types()
    assert not SIMULATOR_TYPES & set(found), dict(found)


@pytest.mark.parametrize("label", ["contended", "open-loop"])
def test_steady_state_lock_waits_leave_no_cycles(label, monkeypatch):
    config = CONTENDED if label == "contended" else OPEN_LOOP
    mid_run = {}
    close = Cluster.close

    def inspect_then_close(cluster):
        # The collector was off for the whole run, so whatever cyclic garbage
        # the run produced is still here, and the cluster is still alive.
        mid_run.update(collected_types())
        mid_run["lock_waits"] = sum(
            ds.lock_manager.stats.waits for ds in cluster.datasources.values())
        mid_run["lock_timeouts"] = sum(
            ds.lock_manager.stats.timeouts for ds in cluster.datasources.values())
        close(cluster)

    monkeypatch.setattr(Cluster, "close", inspect_then_close)
    with collector_paused():
        run_experiment(config)
    assert mid_run["lock_waits"] > 0
    if label == "open-loop":
        assert mid_run["lock_timeouts"] > 0
    assert not LOCK_WAIT_TYPES & set(mid_run), mid_run


def test_keep_cluster_returns_a_live_cluster_and_close_is_idempotent():
    with collector_paused():
        result = run_experiment(CONTENDED, keep_cluster=True)
        cluster = result.cluster
        datasources = list(cluster.datasources.values())

        def readings():
            return (sum(ds.lock_manager.stats.acquisitions for ds in datasources),
                    sum(ds.stats.requests_handled for ds in datasources),
                    cluster.network.stats.messages_sent,
                    sum(m.stats.submitted for m in cluster.middlewares),
                    cluster.env.events_processed, cluster.env.now)

        live = readings()
        assert all(value > 0 for value in live)
        assert cluster.env.peek() < float("inf"), "the kept cluster is live"
        assert any(table._records for ds in datasources
                   for table in ds.engine._tables.values()), "rows were written"

        cluster.close()
        cluster.close()
        assert readings() == live, "stats stay readable after close()"
        assert cluster.env.peek() == float("inf")
        with pytest.raises(RuntimeError, match="closed"):
            cluster.env.timeout(1.0)

        del result, cluster, datasources, readings
        found = collected_types()
    assert not SIMULATOR_TYPES & set(found), dict(found)


_SERIAL_SWEEP = """
import json
from repro.bench.parallel import SweepRunner
from repro.bench.scenarios import get_scenario
sweep = get_scenario("load_sweep").sweep(
    axes={"system": ["ssp", "scalardb_plus", "geotp"],
          "rate_tps": [40.0, 80.0, 320.0, 640.0]},
    duration_ms=3_000.0, warmup_ms=500.0, arrival__max_clients=128)
results = SweepRunner(max_workers=1).run(sweep)
print(json.dumps([r.summary.peak_rss_bytes for r in results]))
"""


def test_serial_sweep_rss_does_not_creep_from_point_to_point():
    from tests.conftest import REPO_ROOT, subprocess_env

    proc = subprocess.run([sys.executable, "-c", _SERIAL_SWEEP],
                          capture_output=True, text=True, cwd=REPO_ROOT,
                          env=subprocess_env(), check=False)
    assert proc.returncode == 0, proc.stderr
    rss = json.loads(proc.stdout)
    assert len(rss) == 12
    # ru_maxrss is a high-water mark, so the series is monotone; the first
    # points still pay for imports and the shared preload.
    assert rss[-1] <= 1.10 * rss[2], rss
