"""Shared value types used across the storage, middleware and core packages.

Keeping these small dataclasses and enums in one leaf module avoids import
cycles between the data-source layer and the middleware layer, which both need
to talk about operations, votes, outcomes and service times (:data:`COSTS`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Hashable, List, Optional, Tuple


@dataclass(frozen=True, slots=True)
class CostModel:
    """Every service time the model charges, in simulated milliseconds.

    Declared here once; every layer reads :data:`COSTS`.  ARCHITECTURE.md's
    "Cost model" table says where each field is charged and which Fig. 6c
    slice it lands in.  Statement, prepare, commit and local-abort costs are
    per engine (Table I mixes MySQL and PostgreSQL nodes).
    """

    mysql_read_ms: float = 0.4
    mysql_write_ms: float = 0.8
    mysql_prepare_ms: float = 2.0
    mysql_commit_ms: float = 1.0
    mysql_abort_ms: float = 0.5
    postgresql_read_ms: float = 0.5
    postgresql_write_ms: float = 0.9
    postgresql_prepare_ms: float = 2.5
    postgresql_commit_ms: float = 1.2
    postgresql_abort_ms: float = 0.6
    datasource_request_ms: float = 0.1
    node_restart_ms: float = 1.0
    analysis_ms: float = 0.5
    log_flush_ms: float = 1.0
    middleware_request_ms: float = 0.2
    agent_forward_ms: float = 0.1
    scalardb_state_write_ms: float = 1.0

    def engine(self, name: str) -> Tuple[float, ...]:
        """Engine ``name``'s read, write, prepare, commit and local-abort costs.

        An engine exists exactly when it has a ``<name>_read_ms`` row; any
        other name raises :class:`ValueError` listing the known engines.
        """
        try:
            return tuple(getattr(self, f"{name}_{step}_ms")
                         for step in ("read", "write", "prepare", "commit", "abort"))
        except AttributeError:
            known = [f.name[:-len("_read_ms")] for f in fields(self)
                     if f.name.endswith("_read_ms")]
            raise ValueError(f"unknown engine {name!r}; known engines: "
                             f"{', '.join(known)}") from None


COSTS = CostModel()


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

    def rendered_sql(self) -> str:
        """The operation as one SQL statement that ``SqlParser`` parses back."""
        if self.op_type is OpType.READ:
            return f"SELECT value FROM {self.table} WHERE key = '{self.key}';"
        return (f"UPDATE {self.table} SET value = '{self.value}' "
                f"WHERE key = '{self.key}';")


@dataclass(slots=True)
class SubtxnResult:
    """The verdict on one subtransaction's statement batch: it succeeded, or
    why it failed.  A read's value stays inside the data source's engine."""

    datasource: str
    success: bool
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
