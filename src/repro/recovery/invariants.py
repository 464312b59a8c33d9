"""Post-run robustness invariants for chaos and fault experiments.

Fault runs (the ``chaos`` scenario, the config fuzz test) are only useful if
"the run completed" can be upgraded to "the run provably stayed safe".  This
module is that upgrade: a small, pluggable catalog of invariants evaluated
against every :class:`~repro.bench.runner.ExperimentSummary` the runner
produces, surfaced as ``summary.invariants`` and through the CLI JSON.

Design rules:

* Checkers are pure functions of the summary — no cluster access, no
  simulation state — so they are deterministic, engine-independent, and can
  re-run on an unpickled summary (what the sweep cache returns) just as well
  as on a live run.
* An invariant that does not apply to a run (e.g. open-system books on a
  closed-loop run) reports ``skipped``, never ``passed`` — a green report
  means every *applicable* safety property actually held.
* Failure details are actionable: they carry the observed numbers, not just
  a boolean, so a CI log alone localises the violation.

The catalog (see ``INVARIANTS``):

``books_balance``
    Open-system arrival books: ``offered == started + dropped`` and
    ``started == completed + in_flight_at_end``.
``no_lost_transactions``
    Every completed session is recorded exactly once by the metrics
    collector: ``completed == committed + aborted + warmup_samples``.
    Catches both lost and duplicated transactions.
``attribution_sums``
    Fleet abort/commit attribution sums across middlewares to the run
    totals — no transaction credited to two coordinators, none to zero.
``abort_reasons_bounded``
    The abort-reason histogram never exceeds the abort count and holds no
    negative entries.
``throughput_accounting``
    ``throughput_tps`` is exactly ``committed / measured_duration`` — a
    duplicated-commit detector on cached summaries.
``availability_recovers``
    After every repaired fault with enough post-heal runway, throughput
    returns to the recovery band (half the pre-fault baseline, the
    ``time_to_recover_ms`` contract) before the run ends.
``wal_in_doubt_empty``
    The drained end state of a fault run (every heal, restart and recovery
    pass done): no PREPARED branch, no crashed node still down and no
    transaction still live, except on a node whose fault never heals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Invariant",
    "INVARIANTS",
    "register_invariant",
    "invariant",
    "check_invariants",
    "violations",
    "all_passed",
]

#: status values a check can produce
PASSED = "passed"
FAILED = "failed"
SKIPPED = "skipped"

# A checker returns None when the invariant holds, or a human-actionable
# failure message when it does not.
Checker = Callable[[Any], Optional[str]]
Applies = Callable[[Any], bool]


@dataclass(frozen=True)
class Invariant:
    """One pluggable robustness invariant."""

    name: str
    description: str
    applies: Applies
    check: Checker


#: Registry, in evaluation order.  Plugins may :func:`register_invariant`
#: additional entries; names are unique (re-registration replaces).
INVARIANTS: Dict[str, Invariant] = {}


def register_invariant(inv: Invariant) -> Invariant:
    INVARIANTS[inv.name] = inv
    return inv


def invariant(name: str, description: str,
              applies: Applies = lambda summary: True):
    """Decorator form of :func:`register_invariant`."""

    def decorate(fn: Checker) -> Checker:
        register_invariant(Invariant(name, description, applies, fn))
        return fn

    return decorate


# --------------------------------------------------------------------- runner

def check_invariants(summary: Any) -> Dict[str, Dict[str, str]]:
    """Evaluate every registered invariant against ``summary``.

    Returns ``{name: {"status": "passed"|"failed"|"skipped", "detail": str}}``
    in registration order.  A checker that raises is reported as a failure
    (with the exception text) rather than aborting the run — a malformed
    summary is itself a violation worth surfacing.
    """
    report: Dict[str, Dict[str, str]] = {}
    for inv in INVARIANTS.values():
        try:
            if not inv.applies(summary):
                report[inv.name] = {"status": SKIPPED, "detail": ""}
                continue
            detail = inv.check(summary)
        except Exception as exc:  # noqa: BLE001 - surfaced, not swallowed
            detail = f"checker crashed: {type(exc).__name__}: {exc}"
        if detail is None:
            report[inv.name] = {"status": PASSED, "detail": ""}
        else:
            report[inv.name] = {"status": FAILED, "detail": detail}
    return report


def violations(report: Optional[Dict[str, Dict[str, str]]]) -> List[str]:
    """``["name: detail", ...]`` for every failed invariant in ``report``."""
    if not report:
        return []
    return [f"{name}: {entry['detail']}"
            for name, entry in report.items()
            if entry.get("status") == FAILED]


def all_passed(report: Optional[Dict[str, Dict[str, str]]]) -> bool:
    """True when no applicable invariant failed (skips are fine)."""
    return not violations(report)


# -------------------------------------------------------------------- helpers

def _faults(summary: Any) -> Optional[Dict[str, Any]]:
    return getattr(summary, "faults", None)


def _repaired_events(faults: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Plan entries with a heal (duration > 0), in plan order.

    ``time_to_recover_ms`` is keyed by ``event.describe()`` strings built in
    the same order, so zipping the two is safe on round-tripped JSON too.
    """
    return [event for event in faults.get("plan", ())
            if float(event.get("duration_ms", 0.0)) > 0.0]


# -------------------------------------------------------------------- catalog

@invariant(
    "books_balance",
    "open-system arrival books: offered == started + dropped and "
    "started == completed + in_flight_at_end",
    applies=lambda s: getattr(s, "open_loop", None) is not None)
def _books_balance(summary: Any) -> Optional[str]:
    books = summary.open_loop
    offered = books["offered"]
    started, dropped = books["started"], books["dropped"]
    completed, in_flight = books["completed"], books["in_flight_at_end"]
    if offered != started + dropped:
        return (f"offered={offered} != started+dropped={started}+{dropped}"
                f"={started + dropped} (arrivals lost or double-counted)")
    if started != completed + in_flight:
        return (f"started={started} != completed+in_flight_at_end="
                f"{completed}+{in_flight}={completed + in_flight} "
                f"(sessions vanished mid-run)")
    return None


@invariant(
    "no_lost_transactions",
    "every completed session is recorded exactly once: "
    "completed == committed + aborted + warmup_samples",
    applies=lambda s: getattr(s, "open_loop", None) is not None)
def _no_lost_transactions(summary: Any) -> Optional[str]:
    completed = summary.open_loop["completed"]
    recorded = summary.committed + summary.aborted + summary.warmup_samples
    if completed != recorded:
        kind = "lost" if completed > recorded else "duplicated"
        return (f"pool completed {completed} sessions but the collector "
                f"recorded {recorded} (committed={summary.committed} + "
                f"aborted={summary.aborted} + warmup={summary.warmup_samples})"
                f" — {abs(completed - recorded)} transaction(s) {kind}")
    return None


@invariant(
    "attribution_sums",
    "fleet commit/abort attribution sums across middlewares to the run totals",
    applies=lambda s: bool(getattr(s, "fleet", None))
    and "attribution" in s.fleet)
def _attribution_sums(summary: Any) -> Optional[str]:
    attribution = summary.fleet["attribution"]
    committed = sum(row.get("committed", 0) for row in attribution.values())
    aborted = sum(row.get("aborted", 0) for row in attribution.values())
    if committed != summary.committed:
        return (f"per-middleware committed sums to {committed}, run total is "
                f"{summary.committed} (transaction credited to "
                f"{'multiple' if committed > summary.committed else 'no'} "
                f"coordinator)")
    if aborted != summary.aborted:
        return (f"per-middleware aborted sums to {aborted}, run total is "
                f"{summary.aborted}")
    return None


@invariant(
    "abort_reasons_bounded",
    "abort-reason histogram never exceeds the abort count, no negative bins")
def _abort_reasons_bounded(summary: Any) -> Optional[str]:
    reasons = summary.abort_reasons or {}
    negative = {k: v for k, v in reasons.items() if v < 0}
    if negative:
        return f"negative abort-reason bins: {negative}"
    total = sum(reasons.values())
    if total > summary.aborted:
        return (f"abort reasons sum to {total} but only {summary.aborted} "
                f"aborts were recorded (reasons double-counted)")
    return None


@invariant(
    "throughput_accounting",
    "throughput_tps equals committed / measured_duration",
    applies=lambda s: s.measured_duration_ms > 0)
def _throughput_accounting(summary: Any) -> Optional[str]:
    expected = summary.committed / (summary.measured_duration_ms / 1000.0)
    if abs(expected - summary.throughput_tps) > max(1e-6 * expected, 1e-9):
        return (f"throughput_tps={summary.throughput_tps:.6f} but "
                f"committed/measured = {summary.committed}/"
                f"{summary.measured_duration_ms:.0f}ms = {expected:.6f} tps "
                f"(commit count and rate disagree)")
    return None


@invariant(
    "availability_recovers",
    "after every repaired fault with post-heal runway, throughput returns "
    "to the recovery band (>= half the pre-fault baseline) before run end",
    applies=lambda s: _faults(s) is not None
    and "time_to_recover_ms" in _faults(s))
def _availability_recovers(summary: Any) -> Optional[str]:
    faults = _faults(summary)
    availability = faults.get("availability", {})
    bucket_ms = float(availability.get("bucket_ms", 1000.0))
    series = availability.get("series", [])
    observed_end = (series[-1][0] + bucket_ms) if series else 0.0
    repaired = _repaired_events(faults)
    recover = faults.get("time_to_recover_ms", {})
    baselines = faults.get("recovery_baseline_tps", {})
    failures = []
    for event, (label, ttr) in zip(repaired, recover.items()):
        heal_at = float(event["at_ms"]) + float(event["duration_ms"])
        # Need at least two full buckets after the heal for "recovered" to
        # be observable at all; shorter runways are a skip, not a failure.
        if observed_end - heal_at < 2 * bucket_ms:
            continue
        # A fault that struck before the first full bucket has no measurable
        # pre-fault baseline — there is nothing to recover *to*.
        if baselines.get(label, 0.0) <= 0.0:
            continue
        if ttr is None:
            failures.append(
                f"{label}: throughput never returned to the recovery band "
                f"in the {observed_end - heal_at:.0f}ms after the heal")
    if failures:
        return "; ".join(failures)
    return None


@invariant(
    "wal_in_doubt_empty",
    "once the fault run has drained, no PREPARED branch is left, no crashed "
    "node is still down and no transaction is still live",
    applies=lambda s: _faults(s) is not None
    and "wal_in_doubt" in _faults(s))
def _wal_in_doubt_empty(summary: Any) -> Optional[str]:
    census = _faults(summary)["wal_in_doubt"]
    branches = [f"{b['xid']}@{b['datasource']} ("
                f"{'logged ' + b['decision'] if b['decision'] else 'no decision'})"
                for b in census["prepared"]]
    problems = [f"{len(items)} {what}: {', '.join(items[:5])}"
                for what, items in (
                    ("prepared branch(es) left in doubt", branches),
                    ("node(s) still down after the heal", census["down"]),
                    ("transaction(s) still live after the drain",
                     census["live"]))
                if items]
    return "; ".join(problems) or None
