"""Shared golden-pin configurations and snapshot helpers.

The byte-identical golden pins and the same-seed determinism checks live in
``tests/``, but the *configurations* they pin are defined here so that the
same runs can be reproduced outside a pytest session.  The module doubles as a
command-line entry point::

    python -m repro.bench.goldens snapshot contended_geotp
    python -m repro.bench.goldens determinism
    python -m repro.bench.goldens resume
    python -m repro.bench.goldens equivalence \
        --reference tests/bench/data/equivalence_reference.json

Every subcommand prints a single JSON document on stdout.  All snapshot values
are plain JSON scalars (floats survive the dump/load round trip exactly), so a
printed snapshot compares byte for byte with the pinned constants.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Any, Dict, List, Optional

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.workloads.ycsb import YCSBConfig


def golden_snapshot(config: ExperimentConfig) -> Dict[str, Any]:
    """Run one experiment and reduce it to the golden-pin summary dict.

    ``latency_sha256`` digests every latency sample, so two snapshots are
    equal only if the runs were bit-identical.
    """
    result = run_experiment(config)
    latency = result.latency
    samples = list(latency.samples)
    return {
        "throughput_tps": result.throughput_tps,
        "committed": result.committed,
        "aborted": result.aborted,
        "average_latency_ms": result.average_latency_ms,
        "p50": latency.p50 if len(latency) else None,
        "p99": latency.p99 if len(latency) else None,
        "abort_rate": result.abort_rate,
        "abort_reasons": result.collector.abort_reasons(),
        "n_samples": len(samples),
        "latency_sha256": hashlib.sha256(repr(samples).encode()).hexdigest(),
    }


# ------------------------------------------------------- pinned configurations
def contended_config(system: str) -> ExperimentConfig:
    """The high-contention pin: lock waits, timeouts and admission aborts."""
    return ExperimentConfig(
        system=system, terminals=24, duration_ms=9_000.0, warmup_ms=1_000.0,
        ycsb=YCSBConfig(skew=1.1, distributed_ratio=0.5,
                        records_per_node=100, preload_rows_per_node=100),
        seed=7)


def scale_config() -> ExperimentConfig:
    """The medium-scale pin: heap compaction and lock-timer churn territory."""
    return ExperimentConfig(
        system="geotp", terminals=32, duration_ms=10_000.0, warmup_ms=1_000.0,
        ycsb=YCSBConfig(skew=0.9, distributed_ratio=0.2))


def determinism_config() -> ExperimentConfig:
    """The same-seed byte-determinism check (tests/sim/test_fast_paths.py)."""
    return ExperimentConfig(
        system="geotp", terminals=8, duration_ms=3_000.0, warmup_ms=500.0,
        ycsb=YCSBConfig(skew=1.0, distributed_ratio=0.5,
                        records_per_node=100, preload_rows_per_node=100),
        seed=13)


def fleet_failover_config() -> ExperimentConfig:
    """The fleet determinism pin: three middlewares, one killed mid-run.

    Derived from the registered ``fleet_failover`` scenario at smoke scale so
    the determinism check exercises the whole failover machinery — routing,
    refusal-driven detection, the health probe, retry jitter and recovery.
    """
    from repro.bench.scenarios import get_scenario

    sweep = get_scenario("fleet_failover").sweep(
        axes={"system": ["geotp"]},
        duration_ms=4_000.0, warmup_ms=800.0, terminals=6)
    return sweep.points()[0].config


def load_sweep_config() -> ExperimentConfig:
    """The open-system determinism pin: one saturated ``load_sweep`` point.

    Derived from the registered scenario at reduced scale, past the knee
    (the arrival generator, the bounded pool's shed/reuse churn and the
    collector's reservoirs all must replay bit for bit).
    """
    from repro.bench.scenarios import get_scenario

    sweep = get_scenario("load_sweep").sweep(
        axes={"system": ["geotp"], "rate_tps": [320.0]},
        duration_ms=5_000.0, warmup_ms=1_000.0,
        ycsb__records_per_node=1_000, ycsb__preload_rows_per_node=200,
        arrival__max_clients=128)
    return sweep.points()[0].config


def chaos_config() -> ExperimentConfig:
    """The chaos determinism pin: one generated composed-fault point.

    Derived from a generated ``chaos_*`` scenario at smoke scale — a dual
    (outage-inside-partition) plan under drifting DynamicLatency schedules
    and Poisson arrivals, so plan execution, parked-delivery re-interception,
    recovery and the invariant evaluation all must replay bit for bit.
    """
    from repro.bench.scenarios import get_scenario

    sweep = get_scenario("chaos_dual_drift_poisson_ycsb").sweep(
        axes={"system": ["geotp"]},
        duration_ms=4_000.0, warmup_ms=800.0, terminals=4,
        ycsb__records_per_node=1_000, ycsb__preload_rows_per_node=200)
    return sweep.points()[0].config


#: Named same-seed determinism runs (``determinism [name]``).
DETERMINISM_CONFIGS = {
    "default": determinism_config,
    "fleet_failover": fleet_failover_config,
    "load_sweep": load_sweep_config,
    "chaos": chaos_config,
}


def smoke_snapshots() -> Dict[str, Dict[str, Any]]:
    """Per-system snapshots of the registered ``smoke`` scenario."""
    from repro.bench.scenarios import get_scenario

    return {point.params["system"]: golden_snapshot(point.config)
            for point in get_scenario("smoke").sweep().points()}


#: Named golden runs; each produces one snapshot dict.
GOLDEN_RUNS = {
    "contended_geotp": lambda: golden_snapshot(contended_config("geotp")),
    "contended_ssp": lambda: golden_snapshot(contended_config("ssp")),
    "scale": lambda: golden_snapshot(scale_config()),
}


def run_named(name: str) -> Dict[str, Any]:
    """Evaluate one named golden run (``smoke`` yields a per-system dict)."""
    if name == "smoke":
        return smoke_snapshots()
    try:
        runner = GOLDEN_RUNS[name]
    except KeyError:
        raise KeyError(f"unknown golden run {name!r}; choose one of "
                       f"{['smoke', *GOLDEN_RUNS]}") from None
    return runner()


# ------------------------------------------------- command document builders
def snapshot_document(name: str) -> Dict[str, Any]:
    """The ``snapshot`` subcommand's JSON document, built in-process."""
    return {"name": name, "snapshot": run_named(name)}


def determinism_snapshot(config: ExperimentConfig) -> Dict[str, Any]:
    """One comparable same-seed run: the equivalence fields plus the fleet report.

    Field-compatible with :func:`repro.bench.equivalence.snapshot`; fleet runs
    additionally carry the full fleet summary (routing counters, health
    transitions, down episodes) so two runs only compare equal when the
    failover machinery behaved bit-identically too.
    """
    result = run_experiment(config)
    samples = list(result.latency.samples)
    document = {
        "committed": result.committed,
        "aborted": result.aborted,
        "throughput_tps": result.throughput_tps,
        "abort_rate": result.abort_rate,
        "abort_reasons": result.collector.abort_reasons(),
        "n_samples": len(samples),
        "latency_sha256": hashlib.sha256(repr(samples).encode()).hexdigest(),
    }
    if result.fleet is not None:
        document["fleet"] = result.fleet
    return document


def determinism_document(name: str = "default") -> Dict[str, Any]:
    """The ``determinism`` subcommand's JSON document, built in-process."""
    try:
        config_fn = DETERMINISM_CONFIGS[name]
    except KeyError:
        raise KeyError(f"unknown determinism run {name!r}; choose one of "
                       f"{sorted(DETERMINISM_CONFIGS)}") from None
    first = determinism_snapshot(config_fn())
    second = determinism_snapshot(config_fn())
    return {"name": name, "identical": first == second,
            "first": first, "second": second}


def resume_sweep():
    """A 2×2 mini ``load_sweep`` (two systems × two rates) at smoke scale.

    Small enough to run twice in a test, but a real open-system sweep: the
    resume check below uses it to prove an interrupted-then-resumed sweep is
    byte-identical to an uninterrupted one.
    """
    from repro.bench.scenarios import get_scenario

    return get_scenario("load_sweep").sweep(
        axes={"system": ["geotp", "ssp"], "rate_tps": [160.0, 320.0]},
        duration_ms=1_500.0, warmup_ms=300.0,
        ycsb__records_per_node=1_000, ycsb__preload_rows_per_node=200,
        arrival__max_clients=64)


def _sweep_payload(result) -> List[Dict[str, Any]]:
    """The deterministic comparison payload of a sweep result.

    Per-point params plus the default (environment-free) summary dict — the
    fields that must be byte-identical whether a point was simulated now or
    restored from the cache; wall-clock and RSS legitimately differ.
    """
    return [{"params": point.params, **point.summary.to_dict()}
            for point in result]


def resume_document(cache_dir: Optional[str] = None,
                    interrupt_after: int = 2) -> Dict[str, Any]:
    """The ``resume`` subcommand's JSON document, built in-process.

    Simulates the kill-and-resume workflow end to end: run the mini sweep
    uncached, then execute only its first ``interrupt_after`` points into a
    cache (exactly what a killed ``--cache-dir`` run leaves behind), then run
    the full sweep with ``resume=True`` against that cache.  The document
    reports whether the resumed result is byte-identical to the fresh one and
    how many points were served from cache vs simulated — the resumed run
    must execute exactly ``points - interrupt_after`` simulations.
    """
    import tempfile

    from repro.bench.cache import SweepCache
    from repro.bench.parallel import SweepRunner, run_sweep_point

    fresh = SweepRunner().run(resume_sweep())
    with tempfile.TemporaryDirectory() as scratch:
        directory = cache_dir or scratch
        interrupted = SweepCache(directory)
        sweep = resume_sweep()
        for point in sweep.points()[:interrupt_after]:
            interrupted.store(sweep.name, point, run_sweep_point(point))
        cache = SweepCache(directory)
        resumed = SweepRunner(cache=cache, resume=True).run(resume_sweep())
    fresh_payload = json.dumps(_sweep_payload(fresh), sort_keys=True)
    resumed_payload = json.dumps(_sweep_payload(resumed), sort_keys=True)
    return {
        "name": "load_sweep_mini",
        "points": len(fresh),
        "interrupt_after": interrupt_after,
        "hits": cache.hits,
        "misses": cache.misses,
        "invalidations": cache.invalidations,
        "identical": fresh_payload == resumed_payload,
        "fresh_sha256": hashlib.sha256(fresh_payload.encode()).hexdigest(),
        "resumed_sha256": hashlib.sha256(resumed_payload.encode()).hexdigest(),
    }


def equivalence_document(reference_path: str,
                         case_names: Optional[List[str]] = None
                         ) -> Dict[str, Any]:
    """The ``equivalence`` subcommand's JSON document, built in-process."""
    from repro.bench.equivalence import CASES, load_reference, run_equivalence

    cases = CASES
    if case_names:
        by_name = {case.name: case for case in CASES}
        unknown = [name for name in case_names if name not in by_name]
        if unknown:
            raise KeyError(f"unknown equivalence case(s) {unknown}; "
                           f"registered: {sorted(by_name)}")
        cases = tuple(by_name[name] for name in case_names)
    report = run_equivalence(load_reference(reference_path), cases)
    return {"ok": report.ok, "cases": [case.name for case in cases],
            "violations": report.violations}


# -------------------------------------------------------------- CLI plumbing
def _cmd_snapshot(args: argparse.Namespace) -> Dict[str, Any]:
    return snapshot_document(args.name)


def _cmd_determinism(args: argparse.Namespace) -> Dict[str, Any]:
    return determinism_document(args.name)


def _cmd_equivalence(args: argparse.Namespace) -> Dict[str, Any]:
    return equivalence_document(args.reference, args.cases)


def _cmd_resume(args: argparse.Namespace) -> Dict[str, Any]:
    return resume_document(args.cache_dir, args.interrupt_after)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.goldens",
        description="Reproduce the golden-pin runs and print JSON.")
    commands = parser.add_subparsers(dest="command", required=True)

    snap = commands.add_parser("snapshot", help="evaluate one named golden run")
    snap.add_argument("name", choices=["smoke", *GOLDEN_RUNS])
    snap.set_defaults(fn=_cmd_snapshot)

    determinism = commands.add_parser(
        "determinism", help="run a same-seed config twice and compare")
    determinism.add_argument("name", nargs="?", default="default",
                             choices=sorted(DETERMINISM_CONFIGS))
    determinism.set_defaults(fn=_cmd_determinism)

    equivalence = commands.add_parser(
        "equivalence", help="run the statistical-equivalence checks")
    equivalence.add_argument("--reference", required=True,
                             help="reference JSON captured on the "
                                  "ordering-strict engine")
    equivalence.add_argument("--cases", nargs="+", default=None,
                             help="subset of registered case names "
                                  "(default: all)")
    equivalence.set_defaults(fn=_cmd_equivalence)

    resume = commands.add_parser(
        "resume", help="prove interrupted+resumed sweep == fresh sweep "
                       "(byte-identical)")
    resume.add_argument("--cache-dir", default=None,
                        help="cache directory (default: a temp dir)")
    resume.add_argument("--interrupt-after", type=int, default=2,
                        help="points the 'killed' run completed (default 2)")
    resume.set_defaults(fn=_cmd_resume)

    args = parser.parse_args(argv)
    try:
        document = args.fn(args)
    except (KeyError, OSError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    print(json.dumps(document, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
