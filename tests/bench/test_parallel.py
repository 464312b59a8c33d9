"""Tests for the parallel sweep executor: determinism, ordering, picklability."""

import os
import pickle
import subprocess
import sys

import pytest

from repro import ExperimentConfig, YCSBConfig, run_experiment
from repro.bench.parallel import (
    PointResult,
    SweepResult,
    SweepRunner,
    resolve_worker_count,
    run_sweep_point,
)
from repro.bench.scenarios import Axis, SweepSpec, get_scenario

TINY_YCSB = YCSBConfig(records_per_node=1_000, preload_rows_per_node=200,
                       skew=0.5, distributed_ratio=0.2)


def _tiny_sweep(**overrides):
    overrides.setdefault("duration_ms", 2_000.0)
    overrides.setdefault("terminals", 2)
    return get_scenario("smoke").sweep(**overrides)


def _fingerprint(result: SweepResult):
    return [(p.index, p.params, p.summary.committed, p.summary.aborted,
             p.summary.throughput_tps) for p in result]


def test_resolve_worker_count(monkeypatch):
    assert resolve_worker_count(4) == 4
    monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
    assert resolve_worker_count(None) == 1
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "3")
    assert resolve_worker_count(None) == 3
    with pytest.raises(ValueError):
        resolve_worker_count(0)
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "four")
    with pytest.raises(ValueError, match="REPRO_BENCH_WORKERS"):
        resolve_worker_count(None)


def test_same_seed_runs_are_identical():
    config = ExperimentConfig(system="geotp", terminals=4, duration_ms=2_000.0,
                              warmup_ms=500.0, ycsb=TINY_YCSB, seed=3)
    first = run_experiment(config)
    second = run_experiment(config)  # reusing the config must be side-effect free
    assert first.committed == second.committed > 0
    assert first.aborted == second.aborted
    assert first.throughput_tps == second.throughput_tps
    assert first.latency.samples == second.latency.samples


def test_different_seeds_change_the_workload():
    base = dict(system="ssp", terminals=4, duration_ms=2_000.0, warmup_ms=500.0,
                ycsb=TINY_YCSB)
    first = run_experiment(ExperimentConfig(seed=1, **base))
    second = run_experiment(ExperimentConfig(seed=2, **base))
    assert first.latency.samples != second.latency.samples


def test_serial_runner_results_are_ordered_and_summarised():
    result = SweepRunner(max_workers=1).run(_tiny_sweep())
    assert [p.index for p in result] == [0, 1]
    assert [p.params["system"] for p in result] == ["ssp", "geotp"]
    assert all(p.summary.committed > 0 for p in result)
    assert all(p.wall_clock_s >= 0 for p in result)
    assert result.wall_clock_s > 0
    assert len(result) == 2 and result[0].params["system"] == "ssp"


def test_parallel_run_matches_serial_run_exactly():
    sweep = _tiny_sweep()
    serial = SweepRunner(max_workers=1).run(sweep)
    parallel = SweepRunner(max_workers=2).run(sweep)
    assert parallel.workers == 2
    assert _fingerprint(serial) == _fingerprint(parallel)


def test_unavailable_pool_warns_and_falls_back_to_serial(monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise PermissionError("no processes in this sandbox")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    serial = SweepRunner(max_workers=1).run(_tiny_sweep())
    with pytest.warns(RuntimeWarning, match="falling back to serial"):
        fallback = SweepRunner(max_workers=2).run(_tiny_sweep())
    assert fallback.workers == 1
    assert _fingerprint(fallback) == _fingerprint(serial)


def test_importing_the_bench_package_does_not_load_the_pool_machinery():
    code = ("import sys, repro.bench; "
            "print(int('concurrent.futures.process' in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"


def test_sweep_runner_repeated_runs_are_deterministic():
    sweep = _tiny_sweep(seed=5)
    first = SweepRunner(max_workers=1).run(sweep)
    second = SweepRunner(max_workers=1).run(sweep)
    assert _fingerprint(first) == _fingerprint(second)


def test_fig5_series_identical_serial_and_parallel():
    sweep = get_scenario("fig5_overall").sweep(
        axes={"system": ("ssp", "geotp"), "terminals": (4,)},
        duration_ms=2_500.0)
    serial = SweepRunner(max_workers=1).run(sweep)
    parallel = SweepRunner(max_workers=2).run(sweep)
    assert [(p.params, p.summary.to_dict()) for p in serial] \
        == [(p.params, p.summary.to_dict()) for p in parallel]
    assert [p.params["system"] for p in serial] == ["ssp", "geotp"]


def test_summaries_are_picklable_and_carry_the_full_aggregate():
    result = SweepRunner(max_workers=1).run(_tiny_sweep())
    summaries = pickle.loads(pickle.dumps(result.summaries()))
    for summary in summaries:
        assert summary.committed > 0
        assert summary.latency.mean > 0
        total = (len(summary.centralized_latency_samples)
                 + len(summary.distributed_latency_samples))
        assert total == len(summary.latency_samples)
        row = summary.summary_row()
        assert row[0] == summary.system
        doc = summary.to_dict()
        assert doc["committed"] == summary.committed
        assert "work_per_commit" in doc["resources"]


def test_sweep_result_select_and_get():
    result = SweepRunner(max_workers=1).run(_tiny_sweep())
    assert result.get(system="ssp").system == "ssp"
    assert [p.params["system"] for p in result.select(system="geotp")] == ["geotp"]
    with pytest.raises(KeyError):
        result.get(system="nope")


def test_fig10_tolerates_duplicated_axis_values():
    """A duplicated axis value yields one point per duplicate, equal results."""
    result = SweepRunner(max_workers=1).run(
        get_scenario("fig10_mean_sweep").sweep(
            axes={"mean_rtt_ms": (20, 20)}, duration_ms=2_500.0, terminals=4))
    assert len(result) == 4
    for system in ("ssp", "geotp"):
        first, second = result.select(system=system, mean_rtt_ms=20)
        assert first.index != second.index
        assert first.summary.to_dict() == second.summary.to_dict()
        with pytest.raises(KeyError, match="2 points match"):
            result.get(system=system, mean_rtt_ms=20)


def test_results_do_not_depend_on_the_process_hash_seed():
    """Simulations must be reproducible across processes.

    Worker processes started with the ``spawn`` method get fresh string-hash
    seeds, so any hash-order-dependent iteration (the lock manager used to
    hand off locks in set order) would make parallel sweeps nondeterministic.
    """
    script = (
        "from repro import ExperimentConfig, YCSBConfig, run_experiment\n"
        "r = run_experiment(ExperimentConfig(system='geotp', terminals=6,\n"
        "    duration_ms=2500.0, warmup_ms=500.0, seed=3,\n"
        "    ycsb=YCSBConfig(records_per_node=1000, preload_rows_per_node=200,\n"
        "                    skew=1.2, distributed_ratio=0.5)))\n"
        "print(r.committed, r.aborted, repr(round(r.throughput_tps, 6)))\n"
    )
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120,
                              cwd=os.path.dirname(os.path.dirname(
                                  os.path.dirname(os.path.abspath(__file__)))))
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout.strip())
    assert len(outputs) == 1, f"hash-seed-dependent results: {outputs}"


def test_run_sweep_point_is_importable_by_workers():
    # The worker entry point must be resolvable by qualified name for pickling.
    import repro.bench.parallel as parallel_module
    assert parallel_module.run_sweep_point is run_sweep_point
    sweep = SweepSpec(name="one", base=ExperimentConfig(
        system="ssp", terminals=2, duration_ms=1_500.0, warmup_ms=300.0,
        ycsb=TINY_YCSB), axes=(Axis("seed", (7,)),))
    point_result = run_sweep_point(sweep.points()[0])
    assert isinstance(point_result, PointResult)
    assert point_result.summary.seed == 7
