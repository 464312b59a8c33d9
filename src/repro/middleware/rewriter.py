"""Rewriting client statements into per-data-source subtransaction plans.

The rewriter groups the statements of one interaction round by target data
source (as decided by the :class:`~repro.middleware.router.Partitioner`):
the ``T1 -> T11 / T12`` split of Figure 3.  A plan carries the operations the
data source executes; what differs between a MySQL and a PostgreSQL node is
its row of :class:`~repro.common.CostModel`, not SQL text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

from repro.common import Operation
from repro.middleware.router import Partitioner


@dataclass(slots=True)
class SubtransactionPlan:
    """The operations of one round destined for one data source.

    Built by :meth:`add`, which keeps the two lists parallel; they are
    shared with the execute payload and the scheduler — read, don't mutate.
    """

    datasource: str
    #: The operations to execute, in order, and the record id of each.
    operations: List[Operation] = field(default_factory=list)
    record_ids: List[Tuple[str, Hashable]] = field(default_factory=list)

    def add(self, operation: Operation) -> None:
        """Append one operation and its record id."""
        self.operations.append(operation)
        self.record_ids.append(operation.record_id)


class Rewriter:
    """Groups round statements by data source."""

    def __init__(self, partitioner: Partitioner):
        self.partitioner = partitioner

    def plan_round(self, operations: List[Operation]) -> Dict[str, SubtransactionPlan]:
        """Split one round into per-data-source subtransaction plans."""
        plans: Dict[str, SubtransactionPlan] = {}
        locate = self.partitioner.locate
        for operation in operations:
            target = locate(operation.table, operation.key)
            plan = plans.get(target)
            if plan is None:
                plan = plans[target] = SubtransactionPlan(datasource=target)
            plan.add(operation)
        return plans
