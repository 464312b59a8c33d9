"""Child process of ``run.py``: the only file that times and traces ``repro``.

``run.py`` launches it fresh for every job, with ``PYTHONPATH`` pointing at
``src`` and the engine and hash seed pinned, and reads one JSON object from the
last line of its standard output.  Modes:

``setup``    import ``repro.bench``, build each point's cluster, load its
             tables and exit; the parent times the whole launch.
``measure``  one warm-up repeat, then timed repeats until ``--seconds`` have
             passed (at least the workload's ensemble), tracing off.
``trace``    one untraced and one ``cProfile``-traced repeat of sub-seed 0,
             folded by the layer map, plus program counters and the
             microbenchmarks.
``micro``    the microbenchmarks alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import workloads as wl

# cProfile/pstats, layers and micro are imported where they are used: the
# parent times whole ``setup`` launches, which should pay for the program's
# imports and not for the tracer's.

#: Hard cap on timed repeats of one run, whatever ``--seconds`` says.
MAX_REPEATS = 64


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0      # Linux reports KiB


def _engine() -> str:
    from repro.sim import active_engine
    return active_engine()


# ---------------------------------------------------------------------- setup
def run_setup(workload: wl.Workload, seed: int, toy: bool) -> Dict[str, Any]:
    import repro.bench  # noqa: F401 - registry + generated chaos scenarios
    points = wl.configs(workload, wl.sub_seed(seed, 0), toy)
    return {"clusters": sum(1 for config in points if wl.build_and_load(config))}


# -------------------------------------------------------------------- measure
def _one_repeat(workload: wl.Workload, seed: int, toy: bool) -> wl.Repeat:
    if workload.kind == "sweep":
        return wl.run_sweep_repeat(workload, seed, toy)
    repeat, _results = wl.run_sim_repeat(workload, seed, toy)
    return repeat


def run_measure(workload: wl.Workload, seed: int, seconds: float, toy: bool,
                ensemble: int) -> Dict[str, Any]:
    # Repeat i simulates sub-seed i % ensemble.  The warm-up runs sub-seed 0
    # and every later run of a sub-seed must reproduce the first one's digest.
    reference: Dict[int, List[Any]] = {}
    warmup = _one_repeat(workload, wl.sub_seed(seed, 0), toy)
    if not any(warmup.failures):
        reference[0] = warmup.digests
    repeats: List[wl.Repeat] = []
    started = time.perf_counter()
    while len(repeats) < MAX_REPEATS and (
            len(repeats) < ensemble or time.perf_counter() - started < seconds):
        slot = len(repeats) % ensemble
        gc.collect()
        repeat = _one_repeat(workload, wl.sub_seed(seed, slot), toy)
        if not any(repeat.failures):
            repeat.check_against(reference.setdefault(slot, repeat.digests))
        repeats.append(repeat)
    who = resource.RUSAGE_CHILDREN if workload.kind == "sweep" else resource.RUSAGE_SELF
    return {"repeats": [r.to_dict() for r in repeats], "ensemble": ensemble,
            "warmup": warmup.to_dict(), "peak_rss_mb": _peak_rss_mb(who),
            "engine": _engine()}


# ---------------------------------------------------------------------- trace
def _ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def _summary_counters(points: List[Any]) -> Dict[str, Optional[float]]:
    """Per-commit counts from what results and summaries both carry."""
    commits = sum(p.resources.committed for p in points)
    admission = [p.admission for p in points if p.admission]
    admitted = sum(a["admitted"] for a in admission)
    blocked = sum(a["blocked"] for a in admission)
    rejected = sum(a["rejected"] for a in admission)
    pools = [p.open_loop for p in points if p.open_loop]
    recorded = sum(p.committed + p.aborted + p.warmup_samples for p in points)
    return {
        "commits": commits,
        "sim_kernel.events_per_commit":
            _ratio(sum(p.events_processed for p in points), commits),
        "network.wan_messages_per_commit":
            _ratio(sum(p.resources.wan_messages for p in points), commits),
        "middleware.work_units_per_commit":
            _ratio(sum(p.resources.work_units for p in points), commits),
        "core.admission_blocked_ratio":
            _ratio(blocked, admitted + blocked + rejected) if admission else 0.0,
        "core.admission_rejected_ratio":
            _ratio(rejected, admitted + rejected) if admission else 0.0,
        "cluster.shed_ratio":
            _ratio(sum(pool["dropped"] for pool in pools),
                   sum(pool["offered"] for pool in pools)) if pools else 0.0,
        "metrics.records_per_commit": _ratio(recorded, commits),
    }


def _cluster_counters(results: List[Any], commits: float) -> Dict[str, Optional[float]]:
    """Per-commit counts that need the stats objects of the kept clusters."""
    clusters = [result.cluster for result in results]
    middlewares = [m for cluster in clusters for m in cluster.middlewares]
    datasources = [d for cluster in clusters for d in cluster.datasources.values()]
    lock_stats = [d.lock_manager.stats for d in datasources]
    acquisitions = sum(s.acquisitions for s in lock_stats)
    waits = sum(s.waits for s in lock_stats)
    timeouts = sum(s.timeouts for s in lock_stats)
    waited_out = waits - timeouts - sum(s.deadlocks for s in lock_stats)
    return {
        "network.messages_per_commit":
            _ratio(sum(c.network.stats.messages_sent for c in clusters), commits),
        "locks.acquires_per_commit": _ratio(acquisitions, commits),
        "locks.wait_ratio": _ratio(waits, acquisitions),
        "locks.timeout_ratio": _ratio(timeouts, waits) if waits else 0.0,
        "locks.avg_wait_sim_ms":
            _ratio(sum(s.total_wait_ms for s in lock_stats), waited_out)
            if waited_out > 0 else 0.0,
        "storage.requests_per_commit":
            _ratio(sum(d.stats.requests_handled for d in datasources), commits),
        "storage.ops_per_commit":
            _ratio(sum(d.stats.operations_executed for d in datasources), commits),
        "storage.busy_sim_ms_per_commit":
            _ratio(sum(d.stats.busy_ms for d in datasources), commits),
        "middleware.commit_ratio":
            _ratio(commits, sum(m.stats.submitted for m in middlewares)),
    }


#: The metrics :func:`_cluster_counters` produces; null on the CLI path.
CLUSTER_COUNTERS = (
    "network.messages_per_commit", "locks.acquires_per_commit",
    "locks.wait_ratio", "locks.timeout_ratio", "locks.avg_wait_sim_ms",
    "storage.requests_per_commit", "storage.ops_per_commit",
    "storage.busy_sim_ms_per_commit", "middleware.commit_ratio")


def _profiled(fn, *args, **kwargs) -> Tuple[Any, float, Dict]:
    import cProfile
    import pstats
    profiler = cProfile.Profile()
    started = time.perf_counter()
    value = profiler.runcall(fn, *args, **kwargs)
    wall = time.perf_counter() - started
    return value, wall, pstats.Stats(profiler).stats


def _trace_sim(workload: wl.Workload, seed: int, toy: bool):
    wl.run_sim_repeat(workload, seed, toy)                           # warm-up
    plain, _ = wl.run_sim_repeat(workload, seed, toy)
    (traced, results), _wall, stats = _profiled(
        wl.run_sim_repeat, workload, seed, toy, keep_cluster=True)
    problems = [f for point in plain.failures + traced.failures for f in point]
    if traced.digests != plain.digests:
        problems.append("the traced run's simulated digests differ from the "
                        "untraced run's")
    counters: Dict[str, Optional[float]] = {}
    if results and not problems:
        counters = _summary_counters(results)
        counters.update(_cluster_counters(results, counters["commits"]))
    counters["bench.summary_pickle_bytes"] = float(sum(
        len(pickle.dumps(result.summary())) for result in results))
    return plain.wall_s, traced.wall_s, stats, counters, problems, {}


def _trace_sweep(workload: wl.Workload, seed: int, toy: bool):
    """The pipeline in-process with ``--workers 1`` (untraced, then traced),
    plus one two-worker subprocess run for the parallel efficiency."""
    from repro.bench.__main__ import main as bench_main

    wl.TMP_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="trace_sweep_", dir=wl.TMP_DIR))
    problems: List[str] = []
    counters: Dict[str, Optional[float]] = {}
    try:
        def serial(tag: str, resume: bool = False) -> int:
            return bench_main(wl.sweep_command(
                workload, seed, tmp / f"cache_{tag}", tmp / f"out_{tag}",
                workers=1, resume=resume, toy=toy))

        started = time.perf_counter()
        code = serial("plain")
        plain_wall = time.perf_counter() - started
        traced_code, traced_wall, stats = _profiled(serial, "traced")
        if code or traced_code:
            problems.append(f"in-process pipeline exited {code}/{traced_code}")
        summaries, hits = wl.sweep_summaries(workload, seed, tmp / "cache_traced", toy)
        resume_code = serial("traced", resume=True)
        after, resume_hits = wl.sweep_summaries(workload, seed, tmp / "cache_traced", toy)
        if resume_code or hits != wl.SWEEP_POINTS or resume_hits != wl.SWEEP_POINTS:
            problems.append(f"resume exited {resume_code} with {hits}/"
                            f"{resume_hits} of {wl.SWEEP_POINTS} points cached")
        problems += [f for s in summaries for f in wl.failed_invariants(s.invariants)]
        if [wl.digest(s) for s in after] != [wl.digest(s) for s in summaries]:
            problems.append("cached summaries changed across the resume")
        code, parallel_wall, stderr = wl.run_cli(wl.sweep_command(
            workload, seed, tmp / "cache_par", tmp / "out_par", toy=toy))
        if code:
            problems.append(f"two-worker command exited {code}: {stderr[-300:]}")
        if summaries:
            counters = _summary_counters(summaries)
        counters["bench.summary_pickle_bytes"] = float(sum(
            len(pickle.dumps(s)) for s in summaries))
        counters["bench.cache_hit_ratio"] = _ratio(resume_hits, wl.SWEEP_POINTS)
        counters["bench.parallel_efficiency"] = _ratio(plain_wall, 2 * parallel_wall)
        reasons = {name: "the CLI keeps no cluster to read stats from"
                   for name in CLUSTER_COUNTERS}
        return plain_wall, traced_wall, stats, counters, problems, reasons
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_trace(workload: wl.Workload, seed: int, toy: bool,
              strict_layers: bool) -> Dict[str, Any]:
    import layers
    import micro
    import repro
    package_dir = Path(repro.__file__).resolve().parent
    warnings = layers.check_layer_map(package_dir)
    if warnings and strict_layers:
        raise SystemExit("layer map self-check failed:\n  " + "\n  ".join(warnings))

    tracer = _trace_sweep if workload.kind == "sweep" else _trace_sim
    plain_wall, traced_wall, stats, counters, problems, reasons = tracer(
        workload, wl.sub_seed(seed, 0), toy)
    folded = layers.fold_profile(stats, package_dir, wl.LEDGER_DIR)
    calls, call_warnings = layers.call_counts(stats)
    warnings += call_warnings
    commits = counters.pop("commits", None)

    metrics: Dict[str, Optional[float]] = {}
    total_self = sum(folded["self_s"].values())
    for layer in layers.LAYERS:
        self_s = folded["self_s"][layer]
        metrics[f"{layer}.self_share"] = _ratio(self_s, total_self)
        metrics[f"{layer}.self_us_per_commit"] = _ratio(self_s * 1e6, commits)
    for name, count in calls.items():
        metrics[name] = _ratio(count, commits)
        if count is None:
            reasons[name] = "counted function no longer exists"
    metrics.update(counters)
    # Everything so far below the self times is a count made by the program:
    # it repeats exactly for a seed (the pool's efficiency is a host time).
    exact = [name for name in [*calls, *counters]
             if name != "bench.parallel_efficiency"]
    if workload.kind != "sweep":
        reasons["bench.cache_hit_ratio"] = "only the sweep pipeline uses the cache"
        reasons["bench.parallel_efficiency"] = "only the sweep pipeline uses a pool"
    metrics["trace.overhead_ratio"] = _ratio(traced_wall, plain_wall)

    micro_values, micro_warnings = micro.run_all(toy=toy)
    metrics.update(micro_values)
    warnings += micro_warnings
    reasons.update({name: "a public call it uses is gone"
                    for name, value in micro_values.items() if value is None})

    for name in reasons:
        metrics.setdefault(name, None)
    ranked = sorted((layer for layer in layers.LAYERS if layer != "python_builtins"),
                    key=lambda layer: folded["self_s"][layer], reverse=True)
    return {"metrics": metrics, "null_reasons": reasons, "problems": problems,
            "warnings": warnings, "top_layers": ranked[:3],
            "exact_metrics": exact,
            "layer_self_s": folded["self_s"], "top_functions": folded["top"],
            "unmapped_files": folded["unmapped"], "commits": commits,
            "plain_wall_s": plain_wall, "traced_wall_s": traced_wall,
            "engine": _engine()}


# ----------------------------------------------------------------------- main
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace", "micro"))
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--strict-layers", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "micro":
        import micro
        values, warnings = micro.run_all(toy=args.toy)
        out: Dict[str, Any] = {"metrics": values, "warnings": warnings,
                               "engine": _engine()}
    else:
        if args.workload is None:
            parser.error(f"mode {args.mode} needs --workload")
        workload = wl.WORKLOADS[args.workload]
        if args.mode == "setup":
            out = run_setup(workload, args.seed, args.toy)
        elif args.mode == "measure":
            out = run_measure(workload, args.seed, args.seconds, args.toy,
                              ensemble=2 if args.toy else workload.ensemble)
        else:
            out = run_trace(workload, args.seed, args.toy, args.strict_layers)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
