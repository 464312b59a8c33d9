"""Local (per-data-source) XA transaction state machine.

A subtransaction on a data source moves through the XA states::

    ACTIVE --xa_end--> IDLE --xa_prepare--> PREPARED --commit--> COMMITTED
       \\                                        |
        \\--rollback--> ABORTED <---rollback-----/

Illegal transitions raise :class:`IllegalTransitionError`; the correctness
tests assert that the data source never commits a subtransaction that has not
been prepared (atomicity property AC3/AC4 of the paper's §V-B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class TxnState(enum.Enum):
    """XA states of a subtransaction on one data source."""

    ACTIVE = "active"
    IDLE = "idle"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


class IllegalTransitionError(Exception):
    """An XA verb was applied in a state where it is not allowed."""

    def __init__(self, xid: str, state: TxnState, verb: str):
        super().__init__(f"txn {xid}: cannot {verb} in state {state.value}")
        self.xid = xid
        self.state = state
        self.verb = verb


_ALLOWED = {
    "end": {TxnState.ACTIVE},
    "prepare": {TxnState.IDLE, TxnState.ACTIVE},
    "commit": {TxnState.PREPARED},
    "commit_one_phase": {TxnState.ACTIVE, TxnState.IDLE},
    "rollback": {TxnState.ACTIVE, TxnState.IDLE, TxnState.PREPARED},
}


@dataclass(slots=True)
class LocalTransaction:
    """State of one subtransaction executing on a data source."""

    #: The branch's XA xid: its global transaction id.  A transaction holds
    #: at most one branch per data source, so no branch qualifier is needed.
    xid: str
    state: TxnState = TxnState.ACTIVE
    started_at: float = 0.0
    finished_at: Optional[float] = None
    #: Time of the first lock acquisition (start of the lock contention span).
    first_lock_at: Optional[float] = None

    def can(self, verb: str) -> bool:
        """True if ``verb`` is allowed in the current state."""
        return self.state in _ALLOWED[verb]

    def _check(self, verb: str) -> None:
        if not self.can(verb):
            raise IllegalTransitionError(self.xid, self.state, verb)

    def mark_end(self) -> None:
        """XA END: execution finished, no further statements accepted."""
        self._check("end")
        self.state = TxnState.IDLE

    def mark_prepared(self) -> None:
        """XA PREPARE: transaction state and WAL persisted, vote YES."""
        self._check("prepare")
        self.state = TxnState.PREPARED

    def mark_committed(self, now: float) -> None:
        """Final commit after a successful prepare."""
        self._check("commit")
        self.state = TxnState.COMMITTED
        self.finished_at = now

    def mark_committed_one_phase(self, now: float) -> None:
        """One-phase commit used for centralized (single-source) transactions."""
        self._check("commit_one_phase")
        self.state = TxnState.COMMITTED
        self.finished_at = now

    def mark_aborted(self, now: float) -> None:
        """Rollback from any non-final state."""
        self._check("rollback")
        self.state = TxnState.ABORTED
        self.finished_at = now

    @property
    def is_finished(self) -> bool:
        """True once the subtransaction reached COMMITTED or ABORTED."""
        return self.state in (TxnState.COMMITTED, TxnState.ABORTED)

    @property
    def lock_contention_span_ms(self) -> Optional[float]:
        """LCS per Eq. (1): first lock acquisition to final release (finish)."""
        if self.first_lock_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.first_lock_at
