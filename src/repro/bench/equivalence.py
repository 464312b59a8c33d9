"""Statistical-equivalence harness for ordering-relaxed engine changes.

The byte-identical golden pins (``tests/bench/test_golden_summary.py``) freeze
one event interleaving forever, which forbids the reordering class of engine
optimizations (run-to-first-yield processes, same-time microqueue dispatch,
coarse timer wheels).  This module is the safety net that *replaces* exact
ordering as the primary guarantee: instead of "same bytes", it checks that the
engine still simulates the same *system*.

Three properties are checked, on small contended WAN configurations across
several seeds:

1. **Per-seed bit-determinism** — the same config and seed must produce the
   exact same summary (including a SHA-256 digest over every latency sample)
   twice in a row.  Relaxing *which* interleaving the engine picks must never
   make the chosen interleaving nondeterministic.
2. **Paper-trend invariants** — GeoTP must outperform SSP on contended
   distributed workloads *in aggregate across seeds*, and on a majority of
   individual seeds.  (Per-seed strict ordering does not hold even on the
   ordering-strict engine: at this scale single seeds are noisy — e.g. seed 11
   favours SSP on both engines — so the invariant is statistical by nature.)
3. **Tolerance bands** — aggregate committed counts and the committed/abort
   mix must stay within a relative band of a *reference capture* taken on the
   ordering-strict engine (``tests/bench/data/equivalence_reference.json``).
   A reordering optimization may legally shift individual runs, but if the
   aggregate drifts outside the band it changed system behaviour, not just
   event interleaving.

Capturing a new reference (only when engine semantics deliberately change)::

    PYTHONPATH=src python -c "from repro.bench.equivalence import capture_reference; \
        capture_reference('tests/bench/data/equivalence_reference.json', 'note')"

See EXPERIMENTS.md ("Statistical equivalence") for the full re-pin procedure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.bench.runner import ExperimentConfig, ExperimentSummary, run_experiment
from repro.workloads.ycsb import YCSBConfig

#: Systems whose ordering the paper trend asserts, *strongest first*:
#: GeoTP >= SSP under contention (Fig. 5/7 directionality).  A case's
#: ``systems`` tuple inherits this convention — ``check_trend`` compares its
#: first entry against its second.
TREND_SYSTEMS = ("geotp", "ssp")

#: Seeds every case runs; >= 3 per the harness contract, 5 for stability.
DEFAULT_SEEDS = (3, 7, 11, 19, 27)

#: Allowed relative drift of aggregate committed counts vs the reference.
COMMITTED_REL_TOL = 0.25
#: Allowed absolute drift of the aggregate abort rate vs the reference.
ABORT_RATE_ABS_TOL = 0.10


@dataclass(frozen=True)
class EquivalenceCase:
    """One contended configuration family checked across systems and seeds."""

    name: str
    description: str
    config: Callable[[str, int], ExperimentConfig]
    seeds: Tuple[int, ...] = DEFAULT_SEEDS
    systems: Tuple[str, ...] = TREND_SYSTEMS


def _contended_wan(system: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        system=system, terminals=16, duration_ms=6_000.0, warmup_ms=1_000.0,
        ycsb=YCSBConfig(skew=1.1, distributed_ratio=0.5, records_per_node=100),
        seed=seed)


def _contended_wan_wide(system: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        system=system, terminals=24, duration_ms=6_000.0, warmup_ms=1_000.0,
        ycsb=YCSBConfig(skew=0.9, distributed_ratio=0.8, records_per_node=200),
        seed=seed)


#: The registered equivalence cases: high-skew narrow table and moderate-skew
#: high-distribution, both heavily exercising lock waits, timeouts and aborts.
CASES: Tuple[EquivalenceCase, ...] = (
    EquivalenceCase(
        name="contended_wan",
        description="skew 1.1, 50% distributed, 100-row tables, 16 terminals",
        config=_contended_wan),
    EquivalenceCase(
        name="contended_wan_wide",
        description="skew 0.9, 80% distributed, 200-row tables, 24 terminals",
        config=_contended_wan_wide),
)


def reduce(summary: ExperimentSummary) -> Dict[str, Any]:
    """Reduce one run's summary to a comparable dict.

    The one reduction every comparison uses: the exact pins of
    ``tests/bench/data/pins.json``, the same-seed determinism checks and the
    equivalence cases.  ``latency_sha256`` digests every latency sample, so
    two reductions are equal only if the runs were bit-identical.  A fault
    run also carries its fault report and a fleet run its fleet report
    (routing counters, health transitions, down episodes), so recovery and
    failover must replay bit for bit too.
    """
    samples = list(summary.latency_samples)
    latency = summary.latency
    document = {
        "throughput_tps": summary.throughput_tps,
        "committed": summary.committed,
        "aborted": summary.aborted,
        "average_latency_ms": summary.average_latency_ms,
        "p50": latency.p50 if samples else None,
        "p99": latency.p99 if samples else None,
        "abort_rate": summary.abort_rate,
        "abort_reasons": summary.abort_reasons,
        "n_samples": len(samples),
        "latency_sha256": hashlib.sha256(repr(samples).encode()).hexdigest(),
        "events_processed": summary.events_processed,
        "timeline": summary.timeline,
    }
    if summary.faults is not None:
        document["faults"] = summary.faults
    if summary.fleet is not None:
        document["fleet"] = summary.fleet
    return document


def snapshot(config: ExperimentConfig) -> Dict[str, Any]:
    """Run one experiment and :func:`reduce` it."""
    return reduce(run_experiment(config))


def run_case(case: EquivalenceCase) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Snapshot every (system, seed) combination of ``case``."""
    return {system: {str(seed): snapshot(case.config(system, seed))
                     for seed in case.seeds}
            for system in case.systems}


def run_all(cases: Sequence[EquivalenceCase] = CASES) -> Dict[str, Any]:
    """Snapshot every registered case."""
    return {case.name: run_case(case) for case in cases}


# ----------------------------------------------------------------- reference
def capture_reference(path: str, note: str = "") -> Dict[str, Any]:
    """Run every case on the *current* engine and write the reference file.

    Only do this when a deliberate engine-semantics change lands (and say so
    in ``note`` and the commit message): the reference is the yardstick the
    tolerance bands measure against, so refreshing it casually would let
    behaviour drift one re-pin at a time.
    """
    document = {
        "kind": "repro-equivalence-reference",
        "note": note,
        "cases": run_all(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def load_reference(path: str) -> Dict[str, Any]:
    """Load a reference document written by :func:`capture_reference`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -------------------------------------------------------------------- checks
@dataclass
class EquivalenceReport:
    """Outcome of the three checks; ``violations`` empty means equivalent."""

    results: Dict[str, Any]
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _aggregate(per_seed: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    committed = sum(s["committed"] for s in per_seed.values())
    aborted = sum(s["aborted"] for s in per_seed.values())
    total = committed + aborted
    return {
        "committed": committed,
        "aborted": aborted,
        "abort_rate": aborted / total if total else 0.0,
    }


def check_determinism(case: EquivalenceCase, results: Dict[str, Any],
                      violations: List[str]) -> None:
    """Same config + seed twice must be bit-identical (first seed per system).

    The first run is taken from ``results`` (already captured by
    :func:`run_case`), so only one extra run per system is paid.
    """
    for system in case.systems:
        seed = case.seeds[0]
        first = results[system][str(seed)]
        second = snapshot(case.config(system, seed))
        if first != second:
            violations.append(
                f"{case.name}/{system}/seed={seed}: two runs of the same seed "
                f"diverged ({first} != {second})")


def check_trend(case: EquivalenceCase, results: Dict[str, Any],
                violations: List[str]) -> None:
    """The case's first system must beat its second (GeoTP >= SSP by
    default) in aggregate, and on a majority of seeds."""
    stronger_name, weaker_name = case.systems[0], case.systems[1]
    stronger = results[stronger_name]
    weaker = results[weaker_name]
    agg_stronger = _aggregate(stronger)["committed"]
    agg_weaker = _aggregate(weaker)["committed"]
    if agg_stronger < agg_weaker:
        violations.append(
            f"{case.name}: aggregate {stronger_name} committed "
            f"({agg_stronger}) fell below {weaker_name} ({agg_weaker}) — the "
            f"paper's headline ordering inverted")
    wins = sum(1 for seed in stronger
               if stronger[seed]["committed"] >= weaker[seed]["committed"])
    if wins * 2 < len(stronger):
        violations.append(
            f"{case.name}: {stronger_name} beat {weaker_name} on only "
            f"{wins}/{len(stronger)} seeds")


def check_tolerance(case: EquivalenceCase, results: Dict[str, Any],
                    reference: Dict[str, Any],
                    violations: List[str],
                    committed_rel_tol: float = COMMITTED_REL_TOL,
                    abort_rate_abs_tol: float = ABORT_RATE_ABS_TOL) -> None:
    """Aggregate committed/abort mix must stay near the reference capture."""
    ref_case = reference["cases"].get(case.name)
    if ref_case is None:
        violations.append(f"{case.name}: missing from the reference capture")
        return
    for system in case.systems:
        got = _aggregate(results[system])
        want = _aggregate(ref_case[system])
        if want["committed"]:
            rel = abs(got["committed"] - want["committed"]) / want["committed"]
            if rel > committed_rel_tol:
                violations.append(
                    f"{case.name}/{system}: aggregate committed drifted "
                    f"{rel:.1%} from the reference "
                    f"({got['committed']} vs {want['committed']}, "
                    f"tol {committed_rel_tol:.0%})")
        drift = abs(got["abort_rate"] - want["abort_rate"])
        if drift > abort_rate_abs_tol:
            violations.append(
                f"{case.name}/{system}: abort rate drifted {drift:.3f} from "
                f"the reference ({got['abort_rate']:.3f} vs "
                f"{want['abort_rate']:.3f}, tol {abort_rate_abs_tol})")


def run_equivalence(reference: Dict[str, Any],
                    cases: Sequence[EquivalenceCase] = CASES) -> EquivalenceReport:
    """Run every check against ``reference``; empty violations == equivalent."""
    report = EquivalenceReport(results={})
    for case in cases:
        results = run_case(case)
        report.results[case.name] = results
        check_determinism(case, results, report.violations)
        check_trend(case, results, report.violations)
        check_tolerance(case, results, reference, report.violations)
    return report
