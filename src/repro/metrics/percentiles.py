"""Percentile and CDF helpers for latency analysis (Figure 8).

Two distribution classes share one accessor API:

* :class:`LatencyDistribution` retains every sample — exact percentiles, O(n)
  memory.  The closed-loop experiments (bounded transaction counts) use it,
  and the byte-identical golden pins are built on its exact values.
* :class:`StreamingLatencyDistribution` keeps a fixed-size uniform reservoir
  (Vitter's Algorithm R) plus *exact* streaming count/mean/min/max — O(1)
  memory regardless of run length.  Open-system runs (10⁶+ transactions per
  point) select it automatically; while the stream still fits in the
  reservoir its percentiles are bit-identical to the exact ones, and beyond
  that the rank error is bounded by the reservoir size (~0.8 % standard
  error on the median at the default 4096; property-tested).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple


def _interpolate(ordered: Sequence[float], fraction: float) -> float:
    """Linear-interpolated quantile of an already-sorted sample list."""
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    low, high = ordered[lower], ordered[upper]
    # Clamp: the interpolation can land one ulp outside [low, high] (e.g.
    # v*(1-w) + v*w < v for tiny w), which would report a quantile outside
    # the sample range.
    return min(max(low * (1.0 - weight) + high * weight, low), high)


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile of ``values`` using linear interpolation.

    ``fraction`` is in [0, 1]; an empty input raises ``ValueError`` so callers
    never silently report a latency of zero.
    """
    if not values:
        raise ValueError("cannot take a percentile of no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    return _interpolate(sorted(values), fraction)


class LatencyDistribution:
    """A collection of latency samples with percentile / CDF accessors.

    The sorted view is computed once and cached; ``add`` invalidates it, so
    aggregation loops that interleave many percentile reads (``p50``/``p99``/
    ``p999``/``cdf``) pay for a single sort instead of one per call.
    """

    __slots__ = ("_samples", "_sorted", "_view", "_total")

    def __init__(self, samples: Sequence[float] = ()):
        self._samples: List[float] = list(samples)
        self._sorted: List[float] = None
        self._view: Tuple[float, ...] = None
        # A left-to-right fold, exactly what add() accumulates: builtin sum()
        # is compensated on CPython >= 3.12, which moves the mean by ulps and
        # with it the golden pins.
        total = 0.0
        for value in self._samples:
            total += value
        self._total: float = total

    def add(self, value: float) -> None:
        """Record one latency sample (milliseconds)."""
        self._samples.append(value)
        self._total += value
        self._sorted = None
        self._view = None

    def __len__(self) -> int:
        return len(self._samples)

    def _ordered(self) -> List[float]:
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self._samples)
        return ordered

    @property
    def samples(self) -> Tuple[float, ...]:
        """All recorded samples, in insertion order (read-only view)."""
        view = self._view
        if view is None:
            view = self._view = tuple(self._samples)
        return view

    @property
    def mean(self) -> float:
        """Average latency; 0.0 when empty."""
        if not self._samples:
            return 0.0
        return self._total / len(self._samples)

    def p(self, fraction: float) -> float:
        """Latency at the given quantile (e.g. ``p(0.99)``)."""
        if not self._samples:
            raise ValueError("cannot take a percentile of no samples")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        return _interpolate(self._ordered(), fraction)

    @property
    def p50(self) -> float:
        return self.p(0.50)

    @property
    def p99(self) -> float:
        return self.p(0.99)

    @property
    def p999(self) -> float:
        return self.p(0.999)

    def summary_stats(self) -> dict:
        """Count/mean/percentiles in one pass over a single sorted view."""
        if not self._samples:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p99": 0.0, "p999": 0.0}
        ordered = self._ordered()
        return {
            "count": len(ordered),
            "mean": self._total / len(ordered),
            "min": ordered[0],
            "max": ordered[-1],
            "p50": _interpolate(ordered, 0.50),
            "p99": _interpolate(ordered, 0.99),
            "p999": _interpolate(ordered, 0.999),
        }

    def cdf(self, points: int = 100) -> List[Tuple[float, float]]:
        """Return (latency, cumulative_fraction) pairs for CDF plots.

        ``points`` evenly spaced quantiles are reported, which is what the
        Figure 8 reproduction prints.
        """
        if not self._samples:
            return []
        ordered = self._ordered()
        count = len(ordered)
        out: List[Tuple[float, float]] = []
        for i in range(1, points + 1):
            fraction = i / points
            index = min(int(round(fraction * count)) - 1, count - 1)
            index = max(index, 0)
            out.append((ordered[index], fraction))
        return out


#: Default reservoir capacity: ~0.8 % standard rank error on the median,
#: 32 KiB of floats per distribution — three distributions per run.
DEFAULT_RESERVOIR_SIZE = 4096


class StreamingLatencyDistribution:
    """Bounded-memory drop-in for :class:`LatencyDistribution`.

    ``count``/``mean``/``min``/``max`` are exact streaming aggregates;
    percentiles and the CDF are estimated over a fixed-size uniform sample of
    the stream maintained with Vitter's **Algorithm R**: the first
    ``capacity`` values fill the reservoir, after which the *n*-th value
    replaces a uniformly chosen slot with probability ``capacity / n``.  Every
    prefix of the stream is therefore represented uniformly, with no bias
    toward early or late samples.

    While ``len(self) <= capacity`` the reservoir *is* the full sample set, so
    every percentile matches the exact distribution bit for bit — the
    equivalence the opt-in migration of closed-loop consumers relies on.

    Replacement draws come from a dedicated ``random.Random(seed)``, never the
    workload's RNG, so enabling streaming metrics cannot perturb a simulation.
    """

    __slots__ = ("capacity", "_reservoir", "_count", "_total", "_min", "_max",
                 "_random", "_sorted")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_SIZE, seed: int = 0):
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = capacity
        self._reservoir: List[float] = []
        self._count = 0
        self._total = 0.0
        self._min = 0.0
        self._max = 0.0
        self._random = random.Random(seed)
        self._sorted: List[float] = None

    def add(self, value: float) -> None:
        """Record one latency sample (milliseconds)."""
        count = self._count = self._count + 1
        self._total += value
        if count == 1:
            self._min = self._max = value
        elif value < self._min:
            self._min = value
        elif value > self._max:
            self._max = value
        reservoir = self._reservoir
        if count <= self.capacity:
            reservoir.append(value)
            self._sorted = None
        else:
            slot = self._random.randrange(count)
            if slot < self.capacity:
                reservoir[slot] = value
                self._sorted = None

    def __len__(self) -> int:
        """Exact number of samples seen (not the reservoir occupancy)."""
        return self._count

    @property
    def reservoir_len(self) -> int:
        """How many samples the reservoir currently holds."""
        return len(self._reservoir)

    @property
    def samples(self) -> Tuple[float, ...]:
        """The *reservoir* contents (a uniform sample of the stream).

        Unlike :attr:`LatencyDistribution.samples` this is neither complete
        nor in insertion order once the stream exceeds the capacity; it is
        what summaries ship across process boundaries instead of O(n) lists.
        """
        return tuple(self._reservoir)

    @property
    def mean(self) -> float:
        """Exact streaming mean; 0.0 when empty."""
        if not self._count:
            return 0.0
        return self._total / self._count

    @property
    def min(self) -> float:
        """Exact minimum; 0.0 when empty."""
        return self._min

    @property
    def max(self) -> float:
        """Exact maximum; 0.0 when empty."""
        return self._max

    def _ordered(self) -> List[float]:
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self._reservoir)
        return ordered

    def p(self, fraction: float) -> float:
        """Estimated latency at the given quantile (exact while ≤ capacity)."""
        if not self._count:
            raise ValueError("cannot take a percentile of no samples")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        return _interpolate(self._ordered(), fraction)

    @property
    def p50(self) -> float:
        return self.p(0.50)

    @property
    def p99(self) -> float:
        return self.p(0.99)

    @property
    def p999(self) -> float:
        return self.p(0.999)

    def summary_stats(self) -> dict:
        """Same shape as :meth:`LatencyDistribution.summary_stats`.

        ``count``/``mean``/``min``/``max`` are exact; the percentiles are
        reservoir estimates.
        """
        if not self._count:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p99": 0.0, "p999": 0.0}
        ordered = self._ordered()
        return {
            "count": self._count,
            "mean": self._total / self._count,
            "min": self._min,
            "max": self._max,
            "p50": _interpolate(ordered, 0.50),
            "p99": _interpolate(ordered, 0.99),
            "p999": _interpolate(ordered, 0.999),
        }

    def cdf(self, points: int = 100) -> List[Tuple[float, float]]:
        """Estimated (latency, cumulative_fraction) pairs for CDF plots."""
        if not self._reservoir:
            return []
        ordered = self._ordered()
        count = len(ordered)
        out: List[Tuple[float, float]] = []
        for i in range(1, points + 1):
            fraction = i / points
            index = min(int(round(fraction * count)) - 1, count - 1)
            index = max(index, 0)
            out.append((ordered[index], fraction))
        return out
