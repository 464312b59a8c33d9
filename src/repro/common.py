"""Shared value types used across the storage, middleware and core packages.

Keeping these small dataclasses and enums in one leaf module avoids import
cycles between the data-source layer and the middleware layer, which both need
to talk about operations, votes and transaction outcomes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple


class OpType(enum.Enum):
    """The kind of a single data operation within a (sub)transaction."""

    READ = "read"
    WRITE = "write"          # blind write / insert
    UPDATE = "update"        # read-modify-write (takes an X lock like WRITE)


class Vote(enum.Enum):
    """A participant's answer to the prepare phase."""

    YES = "yes"
    NO = "no"


class TxnOutcome(enum.Enum):
    """Final outcome of a transaction as observed by the client."""

    COMMITTED = "committed"
    ABORTED = "aborted"


class AbortReason(enum.Enum):
    """Why a transaction aborted (used for abort-rate breakdowns)."""

    LOCK_TIMEOUT = "lock_timeout"
    DEADLOCK = "deadlock"
    ADMISSION_BLOCKED = "admission_blocked"
    PEER_ABORT = "peer_abort"
    PREPARE_FAILED = "prepare_failed"
    USER_ABORT = "user_abort"
    FAILURE = "failure"
    #: The coordinator or a data source was crashed / unreachable (fault
    #: injection); clients back off briefly before retrying.
    UNAVAILABLE = "unavailable"


@dataclass(slots=True)
class Operation:
    """One read/write against a single record.

    ``table`` and ``key`` identify the record; ``value`` is the payload for
    writes/updates (ignored for reads).  ``is_hot_hint`` lets workloads mark
    operations that target known hotspots (used only by the QURO baseline's
    reordering and by tests; GeoTP itself learns hotness from statistics).
    ``record_id`` is the globally unique ``(table, key)`` identifier, built
    once: routing, the lock table, the write set and the hotspot statistics
    all key on this one tuple.
    """

    op_type: OpType
    table: str
    key: Hashable
    value: Any = None
    is_hot_hint: bool = False
    record_id: Tuple[str, Hashable] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.record_id = (self.table, self.key)

    @property
    def is_write(self) -> bool:
        """True if this operation takes an exclusive lock."""
        return self.op_type is not OpType.READ


@dataclass(slots=True)
class OperationResult:
    """Result of executing one operation on a data source."""

    operation: Operation
    success: bool
    value: Any = None
    error: Optional[str] = None


@dataclass(slots=True)
class SubtxnResult:
    """Result of executing a batch of operations of one subtransaction."""

    xid: str
    datasource: str
    success: bool
    results: List[OperationResult] = field(default_factory=list)
    error: Optional[str] = None
    abort_reason: Optional[AbortReason] = None
    #: Local execution latency (ms) spent inside the data source, including
    #: lock waits — the quantity GeoTP's forecasting model estimates.
    local_execution_ms: float = 0.0
    #: True if the data source also prepared the branch before replying
    #: (execute-and-prepare merging, used by the Chiller baseline).
    prepared: bool = False
    #: The distinct (table, key) ids a successful batch executed, in
    #: first-touch order (GeoTP's hotspot statistics spread
    #: ``local_execution_ms`` over them); left empty on failure.
    records: List[Tuple[str, Hashable]] = field(default_factory=list)


@dataclass(slots=True)
class TransactionResult:
    """What the client sees once a transaction finishes."""

    txn_id: str
    outcome: TxnOutcome
    start_time: float
    end_time: float
    is_distributed: bool
    abort_reason: Optional[AbortReason] = None
    #: Milliseconds spent in each coordinator phase, e.g. execution/prepare/commit.
    phase_breakdown: Dict[str, float] = field(default_factory=dict)
    #: Number of data sources the transaction touched.
    participant_count: int = 1
    #: True for a *clean refusal*: the middleware was already crashed when the
    #: submission arrived, so nothing was coordinated and no branch exists
    #: anywhere.  Only these results are safe to fail over to another
    #: middleware; an interrupted in-flight coordination (also
    #: ``UNAVAILABLE``) may still be committed by recovery, so resubmitting
    #: it could duplicate the work.
    rejected: bool = False

    @property
    def latency_ms(self) -> float:
        """End-to-end latency observed by the client."""
        return self.end_time - self.start_time

    @property
    def committed(self) -> bool:
        """True if the transaction committed."""
        return self.outcome is TxnOutcome.COMMITTED
