"""Seeded random number utilities for workload generation.

All stochastic behaviour in the reproduction flows through a :class:`SeededRNG`
so that experiments are repeatable.  The :class:`ZipfianGenerator` reproduces
the YCSB-style skewed key distribution controlled by the paper's *skew factor*
(theta): 0.3 = low, 0.9 = medium, 1.5 = high contention.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import List, Optional, Sequence, TypeVar

T = TypeVar("T")


class SeededRNG:
    """Thin wrapper over :class:`random.Random` with convenience helpers."""

    def __init__(self, seed: Optional[int] = 0):
        self.seed = seed
        self._random = random.Random(seed)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly pick one element of ``seq``."""
        return self._random.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        """Pick ``k`` distinct elements of ``seq``."""
        return self._random.sample(seq, k)

    def shuffle(self, seq: list) -> None:
        """Shuffle ``seq`` in place."""
        self._random.shuffle(seq)

    def gauss(self, mean: float, std: float) -> float:
        """Normally distributed float."""
        return self._random.gauss(mean, std)

    def exponential(self, mean: float) -> float:
        """Exponentially distributed float with the given mean."""
        return self._random.expovariate(1.0 / mean) if mean > 0 else 0.0

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability."""
        return self._random.random() < probability

    def getstate(self) -> object:
        """Opaque snapshot of the stream position (equal iff nothing was drawn)."""
        return self._random.getstate()

    def spawn(self, salt: int) -> "SeededRNG":
        """Derive an independent child generator (stable for a given salt)."""
        base = self.seed if self.seed is not None else 0
        return SeededRNG(seed=(base * 1_000_003 + salt) & 0x7FFFFFFF)


class ZipfianGenerator:
    """Zipfian-distributed integers over ``[0, item_count)``.

    Uses the rejection-free inverse-CDF approximation from Gray et al. (the
    same method as the original YCSB ``ZipfianGenerator``), so generation is
    O(1) per sample regardless of the key-space size.
    """

    def __init__(self, item_count: int, theta: float, rng: Optional[SeededRNG] = None):
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self.item_count = item_count
        self.theta = theta
        self._rng = rng or SeededRNG(0)
        #: pow(0.5, theta), precomputed: ``next`` consults it on every draw.
        self._half_pow_theta = math.pow(0.5, theta)

        if theta == 0:
            # Degenerates to uniform; handled separately in next().
            self._zetan = float(item_count)
            self._alpha = 1.0
            self._eta = 1.0
            self._zeta2 = 1.0
            return

        self._zeta2 = self._zeta(2, theta)
        self._zetan = self._zeta(item_count, theta)
        self._alpha = 1.0 / (1.0 - theta) if theta != 1.0 else float("inf")
        # With item_count == 2 the zetas coincide and eta's 0/0 is never
        # consulted: next() resolves both items through its closed-form
        # branches before reaching eta, so any finite value is safe.
        denominator = 1.0 - self._zeta2 / self._zetan
        self._eta = ((1.0 - math.pow(2.0 / item_count, 1.0 - theta)) / denominator
                     if theta != 1.0 and denominator != 0.0 else 0.0)

    @staticmethod
    @lru_cache(maxsize=64)
    def _zeta(n: int, theta: float) -> float:
        # Memoised (a pure function of two numbers): every generator of a sweep
        # asks for the same few (item count, skew) pairs, and each exact sum
        # is up to 10 000 ``pow`` calls.
        # For very large n the exact harmonic sum is too slow; use the integral
        # approximation, which is accurate enough for workload skew purposes.
        if n <= 10_000:
            return sum(1.0 / math.pow(i, theta) for i in range(1, n + 1))
        head = sum(1.0 / math.pow(i, theta) for i in range(1, 10_001))
        if theta == 1.0:
            tail = math.log(n) - math.log(10_000)
        else:
            tail = (math.pow(n, 1.0 - theta) - math.pow(10_000, 1.0 - theta)) / (1.0 - theta)
        return head + tail

    def next(self) -> int:
        """Draw the next Zipfian-distributed item index (0 is the hottest)."""
        if self.theta == 0:
            return self._rng.randint(0, self.item_count - 1)

        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + self._half_pow_theta:
            return 1
        if self.theta == 1.0:
            # Inverse CDF is not closed-form at theta == 1; fall back to a
            # harmonic-series inversion via exponentiation of the uniform draw.
            return int(self.item_count ** u) - 1 if self.item_count ** u >= 1 else 0
        value = int(self.item_count * math.pow(
            self._eta * u - self._eta + 1.0, self._alpha))
        return min(max(value, 0), self.item_count - 1)

    def sample_many(self, count: int, distinct: bool = False) -> List[int]:
        """Draw ``count`` items, optionally forcing them to be distinct."""
        if not distinct:
            return [self.next() for _ in range(count)]
        if count > self.item_count:
            raise ValueError("cannot draw more distinct items than the key space holds")
        seen = set()
        out: List[int] = []
        while len(out) < count:
            item = self.next()
            if item not in seen:
                seen.add(item)
                out.append(item)
        return out
