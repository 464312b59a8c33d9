"""Perf-regression harness for the simulation core.

``python -m repro.bench perf`` times registered scenarios through the same
:class:`~repro.bench.parallel.SweepRunner` every other caller uses, collects
engine-level throughput metrics (events/sec, committed txns/sec, peak RSS) and
compares the wall clock against a committed baseline (``BENCH_baseline.json``)
with a configurable regression threshold.  CI runs ``perf --quick`` on every
push and fails when a scenario slows down by more than the threshold.

Methodology notes
-----------------

* Every scenario is run ``repeats`` times and the **best** wall clock is kept:
  minimum-of-N is the standard way to suppress scheduler noise when measuring
  a single-threaded workload.
* The comparison is wall-clock based and therefore machine-sensitive.  The
  committed baseline was produced on the development container (single CPU
  core); regenerate it with ``perf --update-baseline`` when switching
  hardware, and read CI failures near the threshold with that caveat in mind.
* ``events_per_sec`` divides the total simulation queue entries dispatched
  (``ExperimentSummary.events_processed``) by the wall clock, which makes it
  insensitive to scenario composition — it is the purest measure of engine
  speed this harness reports.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.parallel import SweepRunner
from repro.bench.scenarios import get_scenario
from repro.metrics.resources import process_peak_rss_bytes
from repro.sim.engine import active_engine

#: Scenarios timed by ``perf --quick`` (the CI gate).
QUICK_SUITE = ("smoke", "perf_scale")
#: Scenarios timed by a full ``perf`` run.
FULL_SUITE = ("smoke", "perf_scale", "fig6_breakdown")

#: Default committed-baseline location (repo root).
DEFAULT_BASELINE = "BENCH_baseline.json"
#: Default allowed slowdown before a run counts as a regression (30 %).
DEFAULT_THRESHOLD = 0.30
#: Default perf-trajectory log: one JSON line appended per ``perf`` run.
DEFAULT_HISTORY = "BENCH_history.jsonl"


#: Peak resident set size of this process, in bytes (canonical helper lives
#: in :mod:`repro.metrics.resources` so the runner can record per-experiment
#: RSS without importing the bench-suite machinery).
peak_rss_bytes = process_peak_rss_bytes


@dataclass
class PerfMetrics:
    """Measured performance of one scenario sweep (serial by default)."""

    scenario: str
    points: int
    repeats: int
    #: Best-of-``repeats`` wall clock for the whole sweep, in seconds.
    wall_clock_s: float
    #: Wall clock of every repeat, best first not guaranteed (run order).
    all_wall_clocks_s: List[float]
    #: Simulation queue entries dispatched per wall-clock second.
    events_per_sec: float
    #: Committed transactions per wall-clock second.
    committed_per_sec: float
    #: Total events / committed transactions across all points (per repeat).
    events_processed: int
    committed: int
    peak_rss_bytes: int

    def to_dict(self) -> Dict[str, Any]:
        """The ``metrics`` entry of a ``BENCH_<tag>.json`` document."""
        return {
            "scenario": self.scenario,
            "points": self.points,
            "repeats": self.repeats,
            "wall_clock_s": round(self.wall_clock_s, 5),
            "all_wall_clocks_s": [round(w, 5) for w in self.all_wall_clocks_s],
            "events_per_sec": round(self.events_per_sec, 1),
            "committed_per_sec": round(self.committed_per_sec, 2),
            "events_processed": self.events_processed,
            "committed": self.committed,
            "peak_rss_bytes": self.peak_rss_bytes,
        }


def measure_scenario(name: str, repeats: int = 3, max_workers: int = 1,
                     **overrides: Any) -> PerfMetrics:
    """Time one registered scenario; keyword overrides shrink it for tests.

    ``overrides`` are forwarded to :meth:`ScenarioSpec.sweep` (e.g.
    ``duration_ms=1_000.0, terminals=4``), so unit tests can exercise the
    harness in milliseconds while the CLI times the scenario as registered.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    sweep = get_scenario(name).sweep(**overrides)
    runner = SweepRunner(max_workers=max_workers)
    walls: List[float] = []
    events = committed = 0
    points = 0
    for _ in range(repeats):
        started = time.perf_counter()
        result = runner.run(sweep)
        walls.append(time.perf_counter() - started)
        summaries = result.summaries()
        points = len(summaries)
        events = sum(s.events_processed for s in summaries)
        committed = sum(s.committed for s in summaries)
    best = min(walls)
    return PerfMetrics(
        scenario=name,
        points=points,
        repeats=repeats,
        wall_clock_s=best,
        all_wall_clocks_s=walls,
        events_per_sec=events / best if best > 0 else 0.0,
        committed_per_sec=committed / best if best > 0 else 0.0,
        events_processed=events,
        committed=committed,
        peak_rss_bytes=peak_rss_bytes(),
    )


@dataclass
class Comparison:
    """One scenario's wall clock *and peak RSS* measured against the baseline."""

    scenario: str
    wall_clock_s: float
    baseline_wall_clock_s: Optional[float]
    #: current / baseline; > 1 means slower than the baseline.
    ratio: Optional[float]
    regression: bool
    #: Peak RSS of the current run / the baseline's, same threshold as wall
    #: clock — a streaming-metrics leak shows up here long before it shows up
    #: in wall time.
    peak_rss_bytes: int = 0
    baseline_peak_rss_bytes: Optional[int] = None
    rss_ratio: Optional[float] = None
    rss_regression: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """The ``baseline_comparison`` entry of a ``BENCH_<tag>.json`` document."""
        return {
            "scenario": self.scenario,
            "wall_clock_s": round(self.wall_clock_s, 5),
            "baseline_wall_clock_s": (
                round(self.baseline_wall_clock_s, 5)
                if self.baseline_wall_clock_s is not None else None),
            "ratio": round(self.ratio, 3) if self.ratio is not None else None,
            "regression": self.regression,
            "peak_rss_bytes": self.peak_rss_bytes,
            "baseline_peak_rss_bytes": self.baseline_peak_rss_bytes,
            "rss_ratio": (round(self.rss_ratio, 3)
                          if self.rss_ratio is not None else None),
            "rss_regression": self.rss_regression,
        }


def compare_to_baseline(metrics: Sequence[PerfMetrics], baseline: Dict[str, Any],
                        threshold: float = DEFAULT_THRESHOLD) -> List[Comparison]:
    """Compare measured wall clocks and peak RSS against a loaded baseline.

    A scenario regresses when it is more than ``threshold`` slower than its
    baseline entry (ratio > 1 + threshold); peak RSS gets the same gate
    independently (``rss_regression``).  Scenarios absent from the baseline
    are reported with null ratios and never count as regressions, as are
    baselines recorded before the RSS fields existed.
    """
    by_name = {m["scenario"]: m for m in baseline.get("metrics", [])}
    out: List[Comparison] = []
    for metric in metrics:
        base = by_name.get(metric.scenario)
        if base is None or not base.get("wall_clock_s"):
            out.append(Comparison(metric.scenario, metric.wall_clock_s,
                                  None, None, False,
                                  peak_rss_bytes=metric.peak_rss_bytes))
            continue
        ratio = metric.wall_clock_s / base["wall_clock_s"]
        comparison = Comparison(metric.scenario, metric.wall_clock_s,
                                base["wall_clock_s"], ratio,
                                ratio > 1.0 + threshold,
                                peak_rss_bytes=metric.peak_rss_bytes)
        base_rss = base.get("peak_rss_bytes")
        if base_rss:
            comparison.baseline_peak_rss_bytes = base_rss
            comparison.rss_ratio = metric.peak_rss_bytes / base_rss
            comparison.rss_regression = comparison.rss_ratio > 1.0 + threshold
        out.append(comparison)
    return out


def load_baseline(path: str) -> Dict[str, Any]:
    """Load a baseline document written by :func:`build_document`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def build_document(tag: str, metrics: Sequence[PerfMetrics],
                   comparisons: Optional[Sequence[Comparison]] = None,
                   threshold: float = DEFAULT_THRESHOLD,
                   reference: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble the ``BENCH_<tag>.json`` document."""
    doc: Dict[str, Any] = {
        "kind": "repro-bench-perf",
        "tag": tag,
        "python": sys.version.split()[0],
        "platform": sys.platform,
        "engine": active_engine(),
        "threshold": threshold,
        "metrics": [m.to_dict() for m in metrics],
    }
    if comparisons is not None:
        doc["baseline_comparison"] = [c.to_dict() for c in comparisons]
        doc["regressions"] = sorted(c.scenario for c in comparisons if c.regression)
        doc["rss_regressions"] = sorted(c.scenario for c in comparisons
                                        if c.rss_regression)
    if reference:
        doc["reference"] = dict(reference)
    return doc


def run_perf(scenarios: Sequence[str], repeats: int = 3, max_workers: int = 1,
             tag: str = "local", baseline_path: Optional[str] = None,
             threshold: float = DEFAULT_THRESHOLD,
             reference: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Measure ``scenarios`` and build the result document.

    When ``baseline_path`` names a readable baseline, a comparison section is
    included; the caller decides what to do about ``doc["regressions"]``.  A
    baseline that cannot be loaded is recorded as ``doc["baseline_error"]``
    instead of being silently ignored, so the regression gate never fails
    open without a trace.
    """
    metrics = [measure_scenario(name, repeats=repeats, max_workers=max_workers)
               for name in scenarios]
    comparisons = None
    baseline_error = None
    if baseline_path:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError) as exc:
            baseline_error = f"cannot load baseline {baseline_path!r}: {exc}"
        else:
            comparisons = compare_to_baseline(metrics, baseline, threshold)
    doc = build_document(tag, metrics, comparisons, threshold,
                         reference=reference)
    if baseline_error is not None:
        doc["baseline_error"] = baseline_error
    return doc


# ------------------------------------------------------------------- history
def append_history(document: Dict[str, Any],
                   path: str = DEFAULT_HISTORY) -> Dict[str, Any]:
    """Append one compact line for ``document`` to the perf-trajectory log.

    The log is JSON Lines (one run per line) so the trajectory can be plotted
    or diffed without parsing full BENCH documents; CI uploads it as an
    artifact on every push.
    """
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "tag": document.get("tag", "local"),
        "python": document.get("python"),
        "platform": document.get("platform"),
        "engine": document.get("engine"),
        "metrics": {
            metric["scenario"]: {
                "wall_clock_s": metric["wall_clock_s"],
                "events_per_sec": metric["events_per_sec"],
                "committed_per_sec": metric["committed_per_sec"],
            }
            for metric in document.get("metrics", [])
        },
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_history(path: str = DEFAULT_HISTORY) -> List[Dict[str, Any]]:
    """Parse the perf-trajectory log (empty list if the file is missing)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]
    except OSError:
        return []


# ------------------------------------------------------------------- profile
#: Profile rows reported per scenario (sorted by cumulative time).
DEFAULT_PROFILE_TOP_N = 25


def profile_scenario(name: str, top_n: int = DEFAULT_PROFILE_TOP_N,
                     **overrides: Any) -> Dict[str, Any]:
    """cProfile one serial pass of a scenario; returns the top-N hot functions.

    The sweep runs in-process (profiling a worker pool would only profile the
    dispatch loop), sorted by *cumulative* time so the engine's dispatch and
    resume frames surface even when their self-time is spread across callees.
    The result is JSON-serialisable and lands in the ``profiles`` section of
    the BENCH document next to the timing metrics, so hot-kernel claims are
    measured rather than asserted.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    sweep = get_scenario(name).sweep(**overrides)
    runner = SweepRunner(max_workers=1)
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    runner.run(sweep)
    profiler.disable()
    wall = time.perf_counter() - started
    stats = pstats.Stats(profiler)
    rows: List[Dict[str, Any]] = []
    ranked = sorted(stats.stats.items(),  # type: ignore[attr-defined]
                    key=lambda item: item[1][3], reverse=True)
    for (filename, lineno, funcname), (cc, nc, tt, ct, _callers) in ranked[:top_n]:
        rows.append({
            "function": f"{filename}:{lineno}({funcname})",
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime_s": round(tt, 5),
            "cumtime_s": round(ct, 5),
        })
    return {
        "scenario": name,
        "engine": active_engine(),
        "sort": "cumulative",
        "top_n": top_n,
        "wall_clock_s": round(wall, 5),
        "rows": rows,
    }


def format_profile(profile: Dict[str, Any]) -> str:
    """Render one :func:`profile_scenario` result as an aligned text table."""
    header = (f"{'cumtime s':>10} {'tottime s':>10} {'ncalls':>12}  function")
    lines = [f"scenario {profile['scenario']} "
             f"(engine={profile.get('engine', '?')}, "
             f"wall={profile.get('wall_clock_s', 0.0):.3f}s, "
             f"top {profile['top_n']} by {profile['sort']})",
             header, "-" * len(header)]
    for row in profile["rows"]:
        lines.append(f"{row['cumtime_s']:>10.4f} {row['tottime_s']:>10.4f} "
                     f"{row['ncalls']:>12}  {row['function']}")
    return "\n".join(lines)


# ------------------------------------------------------------------- compare
#: Metadata keys that make two BENCH documents comparable; differing values
#: mean the wall-clock delta measures the environment, not the code.
COMPARABLE_METADATA = ("python", "platform", "engine")


def document_metadata_mismatches(doc_a: Dict[str, Any], doc_b: Dict[str, Any],
                                 labels: Tuple[str, str] = ("A", "B"),
                                 ) -> List[str]:
    """Human-readable warnings for BENCH documents that are not comparable.

    Checks the :data:`COMPARABLE_METADATA` keys (interpreter version,
    platform, engine).  A key missing from a document — e.g. a baseline
    recorded before the ``engine`` field existed — is reported too, as
    ``<missing>``: silently treating old pure-engine baselines as comparable
    to compiled-engine runs is exactly the mix-up this guard exists for.
    """
    warnings: List[str] = []
    for key in COMPARABLE_METADATA:
        value_a = doc_a.get(key, "<missing>")
        value_b = doc_b.get(key, "<missing>")
        if value_a != value_b:
            warnings.append(
                f"{key} differs: {labels[0]}={value_a} vs {labels[1]}={value_b}"
                f" — wall-clock deltas measure the environment, not the code")
    return warnings


def compare_documents(doc_a: Dict[str, Any],
                      doc_b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-scenario deltas between two BENCH documents (B measured vs A).

    ``speedup`` is A's wall clock over B's (> 1 means B is faster); scenarios
    present in only one document get null deltas instead of being dropped.
    """
    metrics_a = {m["scenario"]: m for m in doc_a.get("metrics", [])}
    metrics_b = {m["scenario"]: m for m in doc_b.get("metrics", [])}
    rows: List[Dict[str, Any]] = []
    for scenario in list(metrics_a) + [name for name in metrics_b
                                       if name not in metrics_a]:
        a, b = metrics_a.get(scenario), metrics_b.get(scenario)
        row: Dict[str, Any] = {
            "scenario": scenario,
            "wall_clock_a_s": a["wall_clock_s"] if a else None,
            "wall_clock_b_s": b["wall_clock_s"] if b else None,
            "events_per_sec_a": a["events_per_sec"] if a else None,
            "events_per_sec_b": b["events_per_sec"] if b else None,
            "peak_rss_a_bytes": a.get("peak_rss_bytes") if a else None,
            "peak_rss_b_bytes": b.get("peak_rss_bytes") if b else None,
            "speedup": None,
            "events_per_sec_delta": None,
            "peak_rss_delta": None,
        }
        if a and b and b["wall_clock_s"]:
            row["speedup"] = round(a["wall_clock_s"] / b["wall_clock_s"], 3)
        if a and b and a["events_per_sec"]:
            row["events_per_sec_delta"] = round(
                (b["events_per_sec"] - a["events_per_sec"])
                / a["events_per_sec"], 3)
        if (a and b and a.get("peak_rss_bytes")
                and b.get("peak_rss_bytes") is not None):
            row["peak_rss_delta"] = round(
                (b["peak_rss_bytes"] - a["peak_rss_bytes"])
                / a["peak_rss_bytes"], 3)
        rows.append(row)
    return rows


def format_comparison(rows: Sequence[Dict[str, Any]],
                      labels: Tuple[str, str] = ("A", "B")) -> str:
    """Render :func:`compare_documents` rows as an aligned text table."""
    header = (f"{'scenario':<24} {'wall ' + labels[0]:>10} "
              f"{'wall ' + labels[1]:>10} {'speedup':>8} "
              f"{'ev/s ' + labels[0]:>12} {'ev/s ' + labels[1]:>12} "
              f"{'ev/s delta':>10} "
              f"{'rss ' + labels[0]:>9} {'rss ' + labels[1]:>9} "
              f"{'rss delta':>9}")
    lines = [header, "-" * len(header)]
    for row in rows:
        def fmt(value, pattern):
            return pattern.format(value) if value is not None else "-"

        def fmt_rss(value):
            return f"{value / 2**20:.1f}M" if value is not None else "-"
        lines.append(
            f"{row['scenario']:<24} {fmt(row['wall_clock_a_s'], '{:.4f}'):>10} "
            f"{fmt(row['wall_clock_b_s'], '{:.4f}'):>10} "
            f"{fmt(row['speedup'], '{:.2f}x'):>8} "
            f"{fmt(row['events_per_sec_a'], '{:,.0f}'):>12} "
            f"{fmt(row['events_per_sec_b'], '{:,.0f}'):>12} "
            f"{fmt(row['events_per_sec_delta'], '{:+.1%}'):>10} "
            f"{fmt_rss(row.get('peak_rss_a_bytes')):>9} "
            f"{fmt_rss(row.get('peak_rss_b_bytes')):>9} "
            f"{fmt(row.get('peak_rss_delta'), '{:+.1%}'):>9}")
    return "\n".join(lines)
