"""Statements and transaction specifications submitted to the middleware.

A client transaction is a :class:`TransactionSpec`: an ordered list of
*rounds*, each round being the batch of statements — plain
:class:`~repro.common.Operation` objects — the client sends together before
waiting for results (the paper's "interaction rounds", Fig. 14).
GeoTP's decentralized prepare fires on the final round's batches, which the
coordinator knows from the round index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.common import Operation


@dataclass(slots=True)
class TransactionSpec:
    """A client transaction: rounds of statements plus bookkeeping metadata."""

    rounds: List[List[Operation]]
    txn_type: str = "generic"
    metadata: Dict = field(default_factory=dict)
    #: Memo of :meth:`record_ids`: admission, settlement and validation each
    #: ask for it, and the rounds do not change once the spec is submitted.
    _record_ids: Optional[List[Tuple[str, Hashable]]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.rounds or not any(self.rounds):
            raise ValueError("a transaction must contain at least one statement")

    # ------------------------------------------------------------- inspection
    @property
    def all_statements(self) -> List[Operation]:
        """Every statement across all rounds, in submission order."""
        return [op for round_ in self.rounds for op in round_]

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
            self._record_ids = ids = [op.record_id
                                      for round_ in self.rounds for op in round_]
        return ids

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
        batches = [ops[start:start + per_round]
                   for start in range(0, len(ops), per_round)]
        return cls(rounds=batches, txn_type=txn_type, metadata=dict(metadata or {}))
