"""Percentile and CDF helpers for latency analysis (Figure 8).

:class:`LatencyDistribution` is the one distribution.  Count, mean, min and
max are always exact.  With ``capacity=None`` it keeps every sample — exact
percentiles, O(n) memory; closed-loop runs (bounded transaction counts) and
the byte-identical golden pins use it that way.  With a capacity it keeps a
fixed-size uniform reservoir (Vitter's Algorithm R) — O(1) memory regardless
of run length, which is what open-system runs (10⁶+ transactions per point)
need: while the stream still fits the reservoir its percentiles are
bit-identical to the exact ones, and beyond that the rank error is bounded by
the reservoir size (~0.8 % standard error on the median at the default 4096;
property-tested).  :func:`percentile` is the independent one-shot form the
tests use as the oracle.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple


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


#: Default reservoir capacity: ~0.8 % standard rank error on the median,
#: 32 KiB of floats per distribution.
DEFAULT_RESERVOIR_SIZE = 4096


class LatencyDistribution:
    """Latency samples with exact aggregates and percentile / CDF accessors.

    ``capacity=None`` keeps every sample in insertion order.  A capacity
    bounds the kept samples with Vitter's **Algorithm R**: the first
    ``capacity`` values fill the reservoir, after which the *n*-th value
    replaces a uniformly chosen slot with probability ``capacity / n``, so
    every prefix of the stream is represented uniformly.  While ``len(self)
    <= capacity`` the reservoir *is* the full sample set and every accessor
    matches the unbounded distribution bit for bit.

    Replacement draws come from a dedicated ``random.Random(seed)``, never the
    workload's RNG, so bounding a distribution cannot perturb a simulation.

    The sorted view is computed once and cached; ``add`` invalidates it only
    when the kept samples change, so aggregation loops that interleave many
    percentile reads (``p50``/``p99``/``p999``/``cdf``) pay for a single sort.
    """

    __slots__ = ("capacity", "_samples", "_count", "_total", "_min", "_max",
                 "_random", "_sorted", "_view")

    def __init__(self, samples: Sequence[float] = (),
                 capacity: Optional[int] = None, seed: int = 0):
        if capacity is not None and capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = capacity
        self._random = random.Random(seed) if capacity is not None else None
        self._samples: List[float] = []
        self._count = 0
        self._total = 0.0
        self._min = 0.0
        self._max = 0.0
        self._sorted: List[float] = None
        self._view: Tuple[float, ...] = None
        if capacity is not None:
            for value in samples:
                self.add(value)
            return
        # Bulk path (summaries rebuild a distribution from their shipped
        # sample tuple on every access): one copy and a left-to-right fold,
        # exactly what add() accumulates — builtin sum() is compensated on
        # CPython >= 3.12, which moves the mean by ulps and with it the
        # golden pins.
        kept = self._samples = list(samples)
        total = 0.0
        for value in kept:
            total += value
        self._total = total
        self._count = len(kept)

    def add(self, value: float) -> None:
        """Record one latency sample (milliseconds)."""
        count = self._count = self._count + 1
        self._total += value
        capacity = self.capacity
        if capacity is None:
            self._samples.append(value)
        else:
            # Samples will be dropped, so the extremes are tracked here; an
            # unbounded distribution reads them off its sorted view instead.
            if count == 1:
                self._min = self._max = value
            elif value < self._min:
                self._min = value
            elif value > self._max:
                self._max = value
            if count <= capacity:
                self._samples.append(value)
            else:
                slot = self._random.randrange(count)
                if slot >= capacity:
                    return
                self._samples[slot] = value
        self._sorted = None
        self._view = None

    def __len__(self) -> int:
        """Exact number of samples seen (not the number kept)."""
        return self._count

    def _ordered(self) -> List[float]:
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self._samples)
        return ordered

    @property
    def samples(self) -> Tuple[float, ...]:
        """The kept samples (cached read-only view).

        Every sample in insertion order while ``len(self) <= capacity`` (always,
        when unbounded); a uniform sample of the stream beyond that —
        ``len(dist.samples) < len(dist)`` tells which.  This is what summaries
        ship across process boundaries.
        """
        view = self._view
        if view is None:
            view = self._view = tuple(self._samples)
        return view

    @property
    def mean(self) -> float:
        """Exact average latency; 0.0 when empty."""
        if not self._count:
            return 0.0
        return self._total / self._count

    @property
    def min(self) -> float:
        """Exact minimum; 0.0 when empty."""
        if self.capacity is None and self._count:
            return self._ordered()[0]
        return self._min

    @property
    def max(self) -> float:
        """Exact maximum; 0.0 when empty."""
        if self.capacity is None and self._count:
            return self._ordered()[-1]
        return self._max

    def p(self, fraction: float) -> float:
        """Latency at the given quantile (e.g. ``p(0.99)``).

        Exact while every sample is kept, a reservoir estimate beyond.
        """
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
        """Count/mean/min/max (exact) and percentiles over one sorted view."""
        if not self._count:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p99": 0.0, "p999": 0.0}
        ordered = self._ordered()
        return {
            "count": self._count,
            "mean": self._total / self._count,
            "min": self.min,
            "max": self.max,
            "p50": _interpolate(ordered, 0.50),
            "p99": _interpolate(ordered, 0.99),
            "p999": _interpolate(ordered, 0.999),
        }

    def cdf(self, points: int = 100) -> List[Tuple[float, float]]:
        """Return (latency, cumulative_fraction) pairs for CDF plots.

        ``points`` evenly spaced quantiles are reported, which is what the
        Figure 8 reproduction prints.
        """
        if not self._count:
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
