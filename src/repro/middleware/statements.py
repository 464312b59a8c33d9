"""Statements and transaction specifications submitted to the middleware.

A client transaction is a :class:`TransactionSpec`: an ordered list of
*rounds*, each round being the batch of statements the client sends together
before waiting for results (the paper's "interaction rounds", Fig. 14).  The
last statement of a transaction may carry the annotation the paper relies on
(``/*+ LAST */``) so that GeoTP's decentralized prepare can fire as soon as it
has executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.common import Operation, OpType

_spec_ids = count(1)


@dataclass(slots=True)
class Statement:
    """One SQL statement: the parsed operation plus annotations."""

    operation: Operation
    sql: Optional[str] = None
    #: Client-provided annotation marking the transaction's last statement.
    is_last: bool = False

    @property
    def record_id(self) -> Tuple[str, Hashable]:
        """The (table, key) the statement touches."""
        return self.operation.record_id

    def rendered_sql(self) -> str:
        """The SQL text, synthesising one from the operation if none was given."""
        if self.sql is not None:
            return self.sql
        op = self.operation
        if op.op_type is OpType.READ:
            return f"SELECT value FROM {op.table} WHERE key = '{op.key}';"
        return f"UPDATE {op.table} SET value = '{op.value}' WHERE key = '{op.key}';"


@dataclass(slots=True)
class TransactionSpec:
    """A client transaction: rounds of statements plus bookkeeping metadata."""

    rounds: List[List[Statement]]
    txn_type: str = "generic"
    metadata: Dict = field(default_factory=dict)
    spec_id: int = field(default_factory=_spec_ids.__next__)
    #: Memo of :meth:`record_ids`: admission, settlement and validation each
    #: ask for it, and the rounds do not change once the spec is submitted.
    _record_ids: Optional[List[Tuple[str, Hashable]]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.rounds or not any(self.rounds):
            raise ValueError("a transaction must contain at least one statement")

    # ------------------------------------------------------------- inspection
    @property
    def all_statements(self) -> List[Statement]:
        """Every statement across all rounds, in submission order."""
        return [stmt for round_ in self.rounds for stmt in round_]

    @property
    def round_count(self) -> int:
        """Number of client interaction rounds."""
        return len(self.rounds)

    @property
    def statement_count(self) -> int:
        """Total number of statements (the paper's "transaction length")."""
        return sum(map(len, self.rounds))

    def record_ids(self) -> List[Tuple[str, Hashable]]:
        """All (table, key) pairs the transaction accesses, in order.

        The list is built once and shared between callers: read it, don't
        mutate it.
        """
        ids = self._record_ids
        if ids is None:
            self._record_ids = ids = [stmt.operation.record_id
                                      for round_ in self.rounds for stmt in round_]
        return ids

    def tables(self) -> Set[str]:
        """The set of tables touched."""
        return {stmt.operation.table for stmt in self.all_statements}

    # ------------------------------------------------------------ annotations
    def mark_last_statements(self) -> None:
        """Annotate every statement of the final round as a last statement.

        The paper assumes the client (or a preprocessing step) marks the last
        statement; when several statements are batched in the final round they
        may each be the last one their target data source sees, so all of them
        carry the hint.
        """
        for stmt in self.rounds[-1]:
            stmt.is_last = True

    # -------------------------------------------------------------- factories
    @classmethod
    def from_operations(cls, operations: Iterable[Operation], txn_type: str = "generic",
                        rounds: int = 1, metadata: Optional[Dict] = None) -> "TransactionSpec":
        """Build a spec from a flat list of operations split into ``rounds`` batches."""
        ops = list(operations)
        if not ops:
            raise ValueError("a transaction must contain at least one operation")
        rounds = max(1, min(rounds, len(ops)))
        per_round = (len(ops) + rounds - 1) // rounds
        batches: List[List[Statement]] = []
        for start in range(0, len(ops), per_round):
            batch = [Statement(operation=op) for op in ops[start:start + per_round]]
            batches.append(batch)
        spec = cls(rounds=batches, txn_type=txn_type, metadata=dict(metadata or {}))
        spec.mark_last_statements()
        return spec
