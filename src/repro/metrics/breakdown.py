"""Per-phase latency breakdown (the Figure 6c reproduction)."""

from __future__ import annotations

from typing import Dict, List, Optional


class PhaseBreakdown:
    """Averages per-phase durations across many transactions."""

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._count = 0

    def record(self, phase_durations: Optional[Dict[str, float]]) -> None:
        """Add one transaction's phase timings."""
        if not phase_durations:
            return
        self._count += 1
        for phase, duration in phase_durations.items():
            self._totals[phase] = self._totals.get(phase, 0.0) + duration

    @property
    def transaction_count(self) -> int:
        """How many transactions contributed."""
        return self._count

    def average(self) -> Dict[str, float]:
        """Average milliseconds per phase across contributing transactions."""
        if self._count == 0:
            return {}
        return {phase: total / self._count for phase, total in self._totals.items()}

    def phases(self) -> List[str]:
        """Phase names seen so far."""
        return list(self._totals)
