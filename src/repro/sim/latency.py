"""Latency models for simulated network links.

The paper emulates WAN latency with ``tc`` between a middleware host and data
sources located in Beijing, Shanghai, Singapore and London (round-trip times of
0, 27, 73 and 251 ms) and additionally studies spread-out, random and
time-varying latencies (Figures 10 and 11).  Each model here answers a single
question: *what is the one-way delay of a message sent at simulated time t?*

All models express latency as round-trip time (RTT) in milliseconds, matching
the paper's presentation; one-way delay is RTT / 2.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.sim.rng import SeededRNG


class LatencyModel:
    """Base class: a distribution of round-trip times over simulated time."""

    def rtt_at(self, now: float) -> float:
        """Nominal (mean) RTT in ms at simulated time ``now``."""
        raise NotImplementedError

    def sample_one_way(self, now: float) -> float:
        """One-way delay in ms for a message sent at time ``now``."""
        return self.rtt_at(now) / 2.0

    def describe(self) -> str:
        """Human-readable summary used in experiment reports."""
        return type(self).__name__


class ConstantLatency(LatencyModel):
    """Fixed RTT, the default model for the paper's main topology."""

    def __init__(self, rtt_ms: float):
        if rtt_ms < 0:
            raise ValueError("rtt_ms must be non-negative")
        self.rtt_ms = float(rtt_ms)

    def rtt_at(self, now: float) -> float:
        return self.rtt_ms

    def sample_one_way(self, now: float) -> float:
        # The base class's arithmetic without its ``rtt_at`` call: this is
        # the model of nearly every simulated message.
        return self.rtt_ms / 2.0

    def describe(self) -> str:
        return f"constant(rtt={self.rtt_ms:.1f}ms)"


class RandomLatency(LatencyModel):
    """RTT drawn uniformly from a band around a base value (Fig. 11a).

    The paper lets "the network latency randomly fluctuate by a factor of 1.5
    for some nodes"; this model multiplies the base RTT by a factor drawn
    uniformly from ``[1, max_factor]`` per message.
    """

    def __init__(self, base_rtt_ms: float, max_factor: float = 1.5,
                 rng: Optional[SeededRNG] = None):
        if base_rtt_ms < 0:
            raise ValueError("base_rtt_ms must be non-negative")
        if max_factor < 1.0:
            raise ValueError("max_factor must be >= 1")
        self.base_rtt_ms = float(base_rtt_ms)
        self.max_factor = float(max_factor)
        self._rng = rng or SeededRNG(0)

    def rtt_at(self, now: float) -> float:
        return self.base_rtt_ms * (1.0 + self.max_factor) / 2.0

    def sample_one_way(self, now: float) -> float:
        factor = self._rng.uniform(1.0, self.max_factor)
        return self.base_rtt_ms * factor / 2.0

    def describe(self) -> str:
        return f"random(base={self.base_rtt_ms:.1f}ms, max_factor={self.max_factor:.2f})"


class DynamicLatency(LatencyModel):
    """RTT that follows a piecewise-constant schedule over simulated time.

    Used for the online-adaptivity experiment (Fig. 11b), where the paper
    re-draws link latencies every 40 seconds over a 320-second run.  The
    schedule is a list of ``(start_time_ms, rtt_ms)`` pairs sorted by start
    time; before the first entry the first RTT applies.
    """

    def __init__(self, schedule: Sequence[Tuple[float, float]]):
        if not schedule:
            raise ValueError("schedule must contain at least one entry")
        entries: List[Tuple[float, float]] = sorted(
            (float(t), float(rtt)) for t, rtt in schedule)
        for _, rtt in entries:
            if rtt < 0:
                raise ValueError("rtt values must be non-negative")
        self.schedule = entries
        # Precomputed parallel arrays for bisect: rtt_at runs once per
        # message, and a linear scan over a fine-grained schedule (e.g. the
        # fig11b_fine scenario's 320 one-second phases) made every send
        # O(phases).
        self._starts: List[float] = [start for start, _ in entries]
        self._rtts: List[float] = [rtt for _, rtt in entries]

    def rtt_at(self, now: float) -> float:
        index = bisect_right(self._starts, now) - 1
        # Before the first entry the first RTT applies; ties on equal start
        # times resolve to the last entry, exactly like the old linear scan.
        return self._rtts[index] if index >= 0 else self._rtts[0]

    def describe(self) -> str:
        points = ", ".join(f"{t:.0f}ms→{rtt:.0f}ms" for t, rtt in self.schedule[:4])
        suffix = ", ..." if len(self.schedule) > 4 else ""
        return f"dynamic({points}{suffix})"
