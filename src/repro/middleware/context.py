"""Per-transaction context objects kept by the middleware.

The :class:`TransactionContext` tracks the state the coordinator needs across
phases: the participants touched so far, the per-participant XA branch ids,
their latest execution results, and the time spent in each phase (which
feeds the latency breakdown of Figure 6c).
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
    #: Participants in first-touch order and their XA branch ids.
    participants: List[str] = field(default_factory=list)
    branch_xids: Dict[str, str] = field(default_factory=dict)
    #: Execution results per participant (latest round).
    results: Dict[str, SubtxnResult] = field(default_factory=dict)
    #: Wall-clock (simulated) milliseconds spent per phase.
    phase_durations: Dict[str, float] = field(default_factory=dict)
    _phase_started_at: float = 0.0

    def __post_init__(self) -> None:
        self._phase_started_at = self.submitted_at

    # ------------------------------------------------------------ participants
    def branch_xid(self, participant: str) -> str:
        """The XA branch id of this transaction on ``participant`` (stable)."""
        if participant not in self.branch_xids:
            index = len(self.branch_xids) + 1
            self.branch_xids[participant] = f"{self.txn_id}.{index}"
        if participant not in self.participants:
            self.participants.append(participant)
        return self.branch_xids[participant]

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
