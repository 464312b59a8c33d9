"""Per-transaction context objects kept by the middleware.

The :class:`TransactionContext` tracks the state the coordinator needs across
phases: the participants touched so far, their latest execution results, and
the time spent in each phase (which feeds the latency breakdown of Figure 6c).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from repro.common import SubtxnResult
from repro.middleware.statements import TransactionSpec


class TransactionPhase(enum.Enum):
    """Coordinator-side phases of a distributed transaction."""

    ANALYSIS = "analysis"
    EXECUTION = "execution"
    PREPARE = "prepare"
    COMMIT = "commit"
    DONE = "done"


@dataclass(slots=True)
class TransactionContext:
    """Everything the coordinator tracks about one in-flight transaction."""

    txn_id: str
    spec: TransactionSpec
    submitted_at: float
    phase: TransactionPhase = TransactionPhase.ANALYSIS
    #: Participants in first-touch order.  Each holds one XA branch, whose
    #: xid is ``txn_id``: one branch per data source needs no qualifier.
    participants: List[str] = field(default_factory=list)
    #: Execution results per participant (latest round).
    results: Dict[str, SubtxnResult] = field(default_factory=dict)
    #: Wall-clock (simulated) milliseconds spent per phase.
    phase_durations: Dict[str, float] = field(default_factory=dict)
    _phase_started_at: float = 0.0

    def __post_init__(self) -> None:
        self._phase_started_at = self.submitted_at

    # ------------------------------------------------------------ participants
    def touch(self, participant: str) -> None:
        """Register ``participant`` (once, in first-touch order)."""
        if participant not in self.participants:
            self.participants.append(participant)

    @property
    def is_distributed(self) -> bool:
        """True if the transaction touched more than one data source."""
        return len(self.participants) > 1

    # ------------------------------------------------------------------ phases
    def enter_phase(self, phase: TransactionPhase, now: float) -> None:
        """Record the end of the current phase and start a new one."""
        elapsed = now - self._phase_started_at
        key = self.phase.value
        self.phase_durations[key] = self.phase_durations.get(key, 0.0) + elapsed
        self.phase = phase
        self._phase_started_at = now
