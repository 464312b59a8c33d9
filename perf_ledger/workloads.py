"""The four benchmark workloads and how one repeat of each is run and checked.

Simulated durations are fixed here and never scaled at run time; ``--toy`` (the
self-test's scale) is the one exception and is tagged in the document.  Every
workload runs ``ssp`` then ``geotp`` so the paper's comparison is always
present.  ``repro`` is imported inside functions: the table itself must be
importable by ``run.py`` before it knows ``src`` exists.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from proc import run_process

LEDGER_DIR = Path(__file__).resolve().parent
REPO_DIR = LEDGER_DIR.parent
SRC_DIR = REPO_DIR / "src"
#: Traces and documents land here; scratch files (sweep caches, figure data)
#: under ``tmp`` are removed as soon as they have been checked.
OUT_DIR = LEDGER_DIR / "out"
TMP_DIR = OUT_DIR / "tmp"

SYSTEMS = ("ssp", "geotp")
SWEEP_SCENARIO = "load_sweep"
SWEEP_POINTS = 15


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: The fixed parameters, as documented in README.md and the document.
    params: Dict[str, Any]
    #: ``params`` overrides at ``--toy`` scale.
    toy: Dict[str, Any]
    #: Distinct sub-seeds per run: repeat ``i`` simulates sub-seed
    #: ``i % ensemble``, and the simulated-result metrics are the means over
    #: exactly the first ``ensemble`` repeats, so they do not depend on how
    #: many repeats the host had time for.
    ensemble: int = 8
    kind: str = "sim"                 # "sim" (run_experiment) or "sweep" (CLI)

    def scaled(self, toy: bool) -> Dict[str, Any]:
        return {**self.params, **self.toy} if toy else dict(self.params)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="ycsb_closed",
        why="closed loop at the paper's default YCSB setting: little lock "
            "waiting, so kernel, middleware/coordinator and network do most "
            "of the work",
        params={"loop": "closed", "workload": "ycsb", "terminals": 64,
                "skew": 0.9, "ops_per_txn": 5, "duration_ms": 60_000.0,
                "warmup_ms": 2_000.0, "topology": "paper_default"},
        toy={"terminals": 8, "duration_ms": 3_000.0, "warmup_ms": 500.0}),
    Workload(
        name="tpcc_closed",
        why="closed loop TPC-C: same protocol path with 3.6x the statements, "
            "so storage, the lock grant path, parsing and TPC-C generation "
            "dominate and the kernel share falls",
        params={"loop": "closed", "workload": "tpcc", "terminals": 64,
                "duration_ms": 30_000.0, "warmup_ms": 2_000.0,
                "topology": "paper_default"},
        toy={"terminals": 8, "duration_ms": 3_000.0, "warmup_ms": 500.0}),
    Workload(
        name="ycsb_open_overload",
        why="open loop past both systems' knees: lock wait/timeout path and "
            "timer wheel instead of grants, client-pool shedding, reservoir "
            "metrics and admission control are active",
        params={"loop": "open", "workload": "ycsb", "arrival": "poisson",
                "rate_tps": 250.0, "max_clients": 256, "skew": 0.9,
                "ops_per_txn": 5, "records_per_node": 10_000,
                "preload_rows_per_node": 10_000, "duration_ms": 60_000.0,
                "warmup_ms": 2_000.0, "metrics": "streaming",
                "topology": "paper_default"},
        toy={"max_clients": 32, "duration_ms": 3_000.0, "warmup_ms": 500.0}),
    Workload(
        name="sweep_pipeline",
        why="the end-to-end CLI path: pool start-up, summary pickling, cache "
            "write then all-hit resume, figure checks; work the bench layer "
            "does nowhere else",
        params={"loop": "open", "command": "python -m repro.bench figures "
                "load_sweep --workers 2 --cache-dir <tmp> --output-dir <tmp> "
                "--data-only --seed <sub-seed>, then the same with --resume",
                "points": SWEEP_POINTS},
        toy={"duration_ms": 1_500.0, "warmup_ms": 300.0},
        ensemble=6, kind="sweep"),
)}


def sub_seed(seed: int, index: int) -> int:
    """The ``index``-th simulation seed derived from the benchmark seed."""
    digest = hashlib.sha256(f"perf_ledger:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ------------------------------------------------------------------ sim points
def configs(workload: Workload, seed: int, toy: bool = False) -> List[Any]:
    """The ``ExperimentConfig`` of each point of a ``sim`` workload."""
    from repro import ExperimentConfig, YCSBConfig
    from repro.workloads.arrivals import ArrivalConfig

    p = workload.scaled(toy)
    common = dict(workload=p["workload"], duration_ms=p["duration_ms"],
                  warmup_ms=p["warmup_ms"], seed=seed)
    out = []
    for system in SYSTEMS:
        if p["workload"] == "tpcc":
            config = ExperimentConfig(system=system, terminals=p["terminals"],
                                      **common)
        elif p["loop"] == "closed":
            config = ExperimentConfig(
                system=system, terminals=p["terminals"],
                ycsb=YCSBConfig(skew=p["skew"],
                                operations_per_transaction=p["ops_per_txn"]),
                **common)
        else:
            config = ExperimentConfig(
                system=system,
                ycsb=YCSBConfig(
                    skew=p["skew"], operations_per_transaction=p["ops_per_txn"],
                    records_per_node=p["records_per_node"],
                    preload_rows_per_node=p["preload_rows_per_node"]),
                arrival=ArrivalConfig(process=p["arrival"],
                                      rate_tps=p["rate_tps"],
                                      max_clients=p["max_clients"]),
                **common)
        out.append(config)
    return out


def build_and_load(config: Any) -> Any:
    """Build the cluster of one point and load its tables (the set-up work
    ``run_experiment`` does before the simulation starts)."""
    from repro import TopologyConfig, build_cluster
    from repro.bench.runner import make_workload

    topology = TopologyConfig.paper_default()
    workload = make_workload(config, topology.node_names())
    cluster = build_cluster(config.system, topology, workload.make_partitioner(),
                            seed=config.seed)
    cluster.load_workload(workload)
    return cluster


# --------------------------------------------------------------------- checks
def digest(summary: Any) -> List[Any]:
    """The simulated result of one point that must repeat exactly per seed."""
    return [summary.committed, summary.aborted, summary.events_processed,
            repr(summary.throughput_tps), repr(summary.p99_latency_ms),
            sorted(summary.abort_reasons.items())]


def failed_invariants(report: Optional[Dict[str, Dict[str, str]]]) -> List[str]:
    """The failed entries of a ``summary.invariants`` report."""
    return [f"invariant {name} failed: {entry.get('detail', '')}"
            for name, entry in (report or {}).items()
            if entry.get("status") == "failed"]


SIM_METRICS = ("sim_tps_geotp", "sim_p99_ms_geotp", "sim_abort_rate",
               "sim_geotp_speedup")


def sim_metrics(summaries: List[Any]) -> Dict[str, float]:
    """The simulated-time results of one repeat (all its points)."""
    geotp = [s for s in summaries if s.system == "geotp"]
    ssp = [s for s in summaries if s.system == "ssp"]
    finished = sum(s.committed + s.aborted for s in summaries)
    ssp_tps = sum(s.throughput_tps for s in ssp)
    return {
        "sim_tps_geotp": sum(s.throughput_tps for s in geotp) / len(geotp),
        "sim_p99_ms_geotp": sum(s.p99_latency_ms for s in geotp) / len(geotp),
        "sim_abort_rate": sum(s.aborted for s in summaries) / max(finished, 1),
        "sim_geotp_speedup":
            sum(s.throughput_tps for s in geotp) / ssp_tps if ssp_tps else 0.0,
    }


@dataclass
class Repeat:
    """What one repeat of a workload produced."""

    seed: int
    wall_s: float = 0.0
    #: ``sweep`` only: wall of the all-cache-hit ``--resume`` command.
    resume_s: Optional[float] = None
    committed: int = 0
    points: int = 0
    #: One entry per point; empty means the point is fine.
    failures: List[List[str]] = field(default_factory=list)
    digests: List[Any] = field(default_factory=list)
    sim: Dict[str, float] = field(default_factory=dict)

    def finish(self, summaries: List[Any]) -> None:
        self.points = len(summaries)
        self.committed = sum(s.committed for s in summaries)
        self.digests = [digest(s) for s in summaries]
        self.failures = [failed_invariants(s.invariants) for s in summaries]
        self.sim = sim_metrics(summaries)

    def check_against(self, expected: List[Any]) -> None:
        """Fail every point whose digest differs from the first run of its seed."""
        for failures, got, want in zip(self.failures, self.digests, expected):
            if got != want:
                failures.append(f"digest {got} differs from the first run of "
                                f"this seed {want}")

    def fail_all(self, points: int, reason: str) -> None:
        """Mark every point of the repeat failed (the command itself failed)."""
        self.points = points
        self.failures = [[reason] for _ in range(points)]

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def run_sim_repeat(workload: Workload, seed: int, toy: bool = False,
                   keep_cluster: bool = False) -> Tuple[Repeat, List[Any]]:
    """Run every point of a ``sim`` workload once; only ``run_experiment`` is
    timed.  Returns the repeat and the raw results (for the traced run)."""
    from repro import run_experiment

    repeat = Repeat(seed=seed)
    points = configs(workload, seed, toy)
    results = []
    try:
        started = time.perf_counter()
        for config in points:
            results.append(run_experiment(config, keep_cluster=keep_cluster))
        repeat.wall_s = time.perf_counter() - started
        repeat.finish([result.summary() for result in results])
    except Exception as exc:  # the boundary: a raising point is a failed point
        repeat.fail_all(len(points), f"raised {type(exc).__name__}: {exc}")
    return repeat, results


# ------------------------------------------------------------- sweep pipeline
def sweep_command(workload: Workload, seed: int, cache_dir: Path,
                  output_dir: Path, workers: int = 2, resume: bool = False,
                  toy: bool = False) -> List[str]:
    """Arguments of ``python -m repro.bench`` for one pipeline command."""
    args = ["figures", SWEEP_SCENARIO, "--workers", str(workers),
            "--cache-dir", str(cache_dir), "--output-dir", str(output_dir),
            "--data-only", "--seed", str(seed)]
    if toy:
        p = workload.scaled(True)
        args += ["--duration-ms", str(p["duration_ms"]),
                 "--warmup-ms", str(p["warmup_ms"])]
    if resume:
        args.append("--resume")
    return args


def sweep_summaries(workload: Workload, seed: int, cache_dir: Path,
                    toy: bool = False) -> Tuple[List[Any], int]:
    """The cached summaries of the sweep's points, and how many were hits."""
    from repro.bench.cache import SweepCache
    from repro.bench.scenarios import get_scenario

    overrides = {"seed": seed}
    if toy:
        p = workload.scaled(True)
        overrides.update(duration_ms=p["duration_ms"], warmup_ms=p["warmup_ms"])
    cache = SweepCache(str(cache_dir))
    hits = [cache.lookup(SWEEP_SCENARIO, point)
            for point in get_scenario(SWEEP_SCENARIO).sweep(**overrides).points()]
    return [hit.summary for hit in hits if hit is not None], cache.hits


def _cache_entries(cache_dir: Path) -> Dict[str, Tuple[int, int]]:
    stats = {path.name: path.stat() for path in cache_dir.rglob("*.pkl")}
    return {name: (st.st_ino, st.st_mtime_ns) for name, st in stats.items()}


def _read_dir(directory: Path) -> Dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def run_cli(args: List[str]) -> Tuple[int, float, str]:
    """Run ``python -m repro.bench <args>``; returns (exit, wall s, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    code, wall, _out, stderr = run_process(
        [sys.executable, "-m", "repro.bench", *args], env, timeout_s=150)
    return code, wall, stderr


def run_sweep_repeat(workload: Workload, seed: int, toy: bool = False) -> Repeat:
    """Cold pipeline command, then the same with ``--resume``, both checked."""
    repeat = Repeat(seed=seed)
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="sweep_", dir=TMP_DIR))
    try:
        cache, cold_out, warm_out = tmp / "cache", tmp / "cold", tmp / "resume"
        code, repeat.wall_s, stderr = run_cli(
            sweep_command(workload, seed, cache, cold_out, toy=toy))
        if code != 0:
            repeat.fail_all(SWEEP_POINTS, f"cold command exited {code}: "
                                          f"{stderr.strip()[-300:]}")
            return repeat
        before = _cache_entries(cache)
        summaries, hits = sweep_summaries(workload, seed, cache, toy)
        if hits != SWEEP_POINTS:
            repeat.fail_all(SWEEP_POINTS, f"cold command cached {hits} of "
                                          f"{SWEEP_POINTS} points")
            return repeat
        repeat.finish(summaries)
        code, repeat.resume_s, stderr = run_cli(
            sweep_command(workload, seed, cache, warm_out, resume=True, toy=toy))
        problem = None
        if code != 0:
            problem = f"resume command exited {code}: {stderr.strip()[-300:]}"
        elif _cache_entries(cache) != before:
            # A re-simulated point is stored again under a new inode.
            problem = f"resume did not hit all {SWEEP_POINTS} cached points"
        elif _read_dir(warm_out) != _read_dir(cold_out):
            problem = "resumed figure documents differ from the cold ones"
        if problem:
            repeat.fail_all(SWEEP_POINTS, problem)
        return repeat
    except (OSError, subprocess.TimeoutExpired) as exc:
        repeat.fail_all(SWEEP_POINTS, f"raised {type(exc).__name__}: {exc}")
        return repeat
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
