"""Rewriting client statements into per-data-source subtransaction plans.

The rewriter groups the statements of one interaction round by target data
source (as decided by the :class:`~repro.middleware.router.Partitioner`) and
renders engine-specific SQL for each group: reads are rewritten to
``SELECT ... FOR SHARE`` for dialects that need it (PostgreSQL, §VII-A), and
the XA framing statements are produced from the dialect profiles — this is the
``T1 -> T11 / T12`` translation of Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.common import Operation, OpType
from repro.middleware.router import Partitioner
from repro.middleware.statements import Statement
from repro.storage.dialects import Dialect


@dataclass(slots=True)
class SubtransactionPlan:
    """The statements of one round destined for one data source.

    Built by :meth:`add`, which keeps the three lists parallel; they are
    shared with the execute payload and the scheduler — read, don't mutate.
    """

    datasource: str
    statements: List[Statement] = field(default_factory=list)
    #: True if this batch contains a statement annotated as the transaction's last.
    contains_last: bool = False
    #: The operations to execute, in order, and the record id of each.
    operations: List[Operation] = field(default_factory=list)
    record_ids: List[Tuple[str, Hashable]] = field(default_factory=list)

    def add(self, stmt: Statement) -> None:
        """Append one statement (and its operation and record id)."""
        self.statements.append(stmt)
        self.operations.append(stmt.operation)
        self.record_ids.append(stmt.operation.record_id)
        if stmt.is_last:
            self.contains_last = True

    def rendered_sql(self, dialect: Optional[Dialect] = None) -> List[str]:
        """Engine-specific SQL text for this batch (reads rewritten if needed)."""
        lines = []
        for stmt in self.statements:
            sql = stmt.rendered_sql()
            if dialect is not None and stmt.operation.op_type is OpType.READ:
                sql = dialect.rewrite_read(sql)
            lines.append(sql)
        return lines


class Rewriter:
    """Groups round statements by data source and renders dialect SQL."""

    def __init__(self, partitioner: Partitioner):
        self.partitioner = partitioner

    def plan_round(self, statements: List[Statement]) -> Dict[str, SubtransactionPlan]:
        """Split one round into per-data-source subtransaction plans."""
        plans: Dict[str, SubtransactionPlan] = {}
        locate = self.partitioner.locate
        for stmt in statements:
            operation = stmt.operation
            target = locate(operation.table, operation.key)
            plan = plans.get(target)
            if plan is None:
                plan = plans[target] = SubtransactionPlan(datasource=target)
            plan.add(stmt)
        return plans

    def participants(self, statements: List[Statement]) -> List[str]:
        """The distinct data sources a list of statements touches, in first-use order."""
        seen: List[str] = []
        for stmt in statements:
            target = self.partitioner.locate(stmt.operation.table, stmt.operation.key)
            if target not in seen:
                seen.append(target)
        return seen

    def render_subtransaction(self, xid: str, plan: SubtransactionPlan,
                              dialect: Dialect) -> List[str]:
        """Full SQL script for one subtransaction (begin + DML + end/prepare).

        This mirrors the rewrite shown in Figure 3 of the paper; it is used for
        logging/inspection and by the parser round-trip tests — the simulated
        data sources consume structured operations rather than SQL text.
        """
        script = list(dialect.begin_statements(xid))
        script.extend(plan.rendered_sql(dialect))
        script.extend(dialect.end_prepare_statements(xid))
        return script
