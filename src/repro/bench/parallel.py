"""Parallel execution of scenario sweeps.

Every :class:`~repro.bench.scenarios.SweepPoint` is an independent simulation
(its config is a private deep copy, the simulator is fully seeded), so a sweep
is embarrassingly parallel.  :class:`SweepRunner` expands a sweep and fans the
points out over a :class:`concurrent.futures.ProcessPoolExecutor`; workers
return the detached :class:`~repro.bench.runner.ExperimentSummary` (its live
collector and cluster dropped by ``summary()``), and results are re-ordered by point index so the output
is byte-identical no matter which worker finished first.

``max_workers=1`` (the default, unless ``REPRO_BENCH_WORKERS`` says otherwise)
runs every point in-process — that is what the unit tests and any caller that
wants strict single-core determinism use; the parallel path produces the same
results because each point is seeded from its own config, not from shared
state.  If the platform cannot spawn worker processes (some sandboxes forbid
it) the runner logs a warning and falls back to the serial path instead of
failing the sweep.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.bench.cache import SweepCache
from repro.bench.runner import ExperimentSummary, run_experiment
from repro.bench.scenarios import ScenarioSpec, SweepPoint

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV_VAR = "REPRO_BENCH_WORKERS"


def resolve_worker_count(max_workers: Optional[int] = None) -> int:
    """Resolve the worker count: explicit value, else env var, else serial."""
    if max_workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            max_workers = int(raw)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV_VAR} must be an integer "
                             f"(got {raw!r})") from None
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1 (got {max_workers})")
    return max_workers


@dataclass
class PointResult:
    """One executed sweep point: its axis values and the result summary."""

    index: int
    params: Dict[str, Any]
    summary: ExperimentSummary
    wall_clock_s: float


@dataclass
class SweepResult:
    """All point results of one sweep, ordered by point index."""

    sweep_name: str
    results: List[PointResult]
    wall_clock_s: float
    workers: int = 1
    #: Sweep-cache accounting of this run (all zero without a cache): points
    #: served from cache, points actually simulated, and stale/corrupt
    #: entries that were discarded.  ``hits + misses == len(results)``
    #: whenever a cache is attached, however many sweeps the runner ran.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0

    def __post_init__(self) -> None:
        self.results = sorted(self.results, key=lambda r: r.index)

    def __iter__(self) -> Iterator[PointResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> PointResult:
        return self.results[index]

    def summaries(self) -> List[ExperimentSummary]:
        """The per-point summaries, in point order."""
        return [result.summary for result in self.results]

    def select(self, **params: Any) -> List[PointResult]:
        """All point results whose params match every given key/value."""
        return [result for result in self.results
                if all(result.params.get(k) == v for k, v in params.items())]

    def get(self, **params: Any) -> ExperimentSummary:
        """The unique summary matching the given params (raises otherwise)."""
        matches = self.select(**params)
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} points match {params!r} "
                           f"in sweep {self.sweep_name!r}")
        return matches[0].summary


def run_sweep_point(point: SweepPoint) -> PointResult:
    """Execute one sweep point and summarise it (the worker entry point).

    Module-level on purpose: worker processes import it by qualified name, and
    both the argument (a :class:`SweepPoint`) and the return value (a
    :class:`PointResult`) must stay picklable.
    """
    started = time.perf_counter()
    summary = run_experiment(point.config).summary()
    return PointResult(index=point.index, params=dict(point.params),
                       summary=summary,
                       wall_clock_s=time.perf_counter() - started)


class SweepRunner:
    """Expands a sweep into points and executes them, serially or in parallel.

    With a :class:`~repro.bench.cache.SweepCache` attached, every executed
    point is persisted as soon as its result arrives (so a killed sweep keeps
    everything it finished), and ``resume=True`` additionally consults the
    cache *before* dispatching — only the missing points are simulated, and
    the assembled :class:`SweepResult` is byte-identical to an uncached run
    because cached summaries are the pickled originals.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 cache: Optional[SweepCache] = None, resume: bool = False):
        self.max_workers = resolve_worker_count(max_workers)
        self.cache = cache
        self.resume = resume and cache is not None

    def run(self, sweep: ScenarioSpec) -> SweepResult:
        """Run every point of ``sweep`` and return the ordered results.

        ``SweepResult.workers`` records the worker count that actually ran the
        points (1 when the pool was unavailable and the serial fallback ran).
        """
        points = sweep.points()
        started = time.perf_counter()
        before = self._cache_counts()
        cached: List[PointResult] = []
        pending = points
        if self.resume:
            assert self.cache is not None
            pending = []
            for point in points:
                hit = self.cache.lookup(sweep.name, point)
                if hit is not None:
                    cached.append(hit)
                else:
                    pending.append(point)
        if self.max_workers <= 1 or len(pending) <= 1:
            computed = [self._store(sweep.name, p, run_sweep_point(p))
                        for p in pending]
            used_workers = 1
        else:
            computed, used_workers = self._run_parallel(sweep.name, pending)
        # The cache's counters run over its whole life: report this run's share.
        hits, misses, invalidations = (
            now - then for now, then in zip(self._cache_counts(), before))
        return SweepResult(sweep_name=sweep.name, results=cached + computed,
                           wall_clock_s=time.perf_counter() - started,
                           workers=used_workers, cache_hits=hits,
                           cache_misses=misses, cache_invalidations=invalidations)

    def _cache_counts(self) -> Tuple[int, int, int]:
        cache = self.cache
        if cache is None:
            return 0, 0, 0
        return cache.hits, cache.misses, cache.invalidations

    def _store(self, sweep_name: str, point: SweepPoint,
               result: PointResult) -> PointResult:
        """Persist one simulated point, if a cache is attached."""
        if self.cache is not None:
            # Points not routed through lookup() (cache attached without
            # --resume) still count as misses: they were simulated.
            if not self.resume:
                self.cache.misses += 1
            self.cache.store(sweep_name, point, result)
        return result

    def _run_parallel(self, sweep_name: str, points: List[SweepPoint]):
        # Imported here: the pool machinery (multiprocessing, logging, ...) is
        # ~10% of ``import repro.bench``, and serial launches never need it.
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        workers = min(self.max_workers, len(points))
        completed: List[PointResult] = []
        by_index = {point.index: point for point in points}
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(run_sweep_point, point) for point in points]
                for future in as_completed(futures):
                    # Persist as results arrive, not at sweep end: a killed
                    # run keeps every finished point.
                    result = future.result()
                    completed.append(self._store(
                        sweep_name, by_index[result.index], result))
            return completed, workers
        except (BrokenProcessPool, OSError, PermissionError) as exc:
            if completed:
                # The pool worked and then died mid-sweep (e.g. a worker was
                # OOM-killed): that is a real failure — surface it instead of
                # silently re-running everything serially.
                raise
            warnings.warn(f"process pool unavailable ({exc!r}); "
                          f"falling back to serial execution", RuntimeWarning)
            return [self._store(sweep_name, point, run_sweep_point(point))
                    for point in points], 1
