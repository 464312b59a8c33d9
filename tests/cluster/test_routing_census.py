"""Routing census: every system routes each operation once.

ARCHITECTURE.md's rule (2), "a record is resolved once per operation", puts
routing in ``Rewriter.plan_round`` and nowhere else: a coordinator that asks
``Partitioner.locate`` again for a read, a conditional write or a finalize
pays the lookup two or three times per operation.  This census runs every
registered system on YCSB and on TPC-C, counts the ``locate`` calls and the
operations submitted, and fails, naming the system and the workload, when
the calls outnumber the operations.  A transaction that admission control
blocks before its first round routes nothing, so a system may route fewer.
"""

import pytest

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.middleware import MiddlewareBase, ModuloPartitioner, WarehousePartitioner
from repro.plugins import system_names

#: The partitioners the two workloads route with.
PARTITIONERS = (ModuloPartitioner, WarehousePartitioner)


def routing_census(monkeypatch, system, workload):
    """``(locate calls, operations submitted)`` in one short seeded run."""
    counts = {"locate": 0, "operations": 0}
    for partitioner in PARTITIONERS:
        def locate(self, *args, _locate=partitioner.locate, **kwargs):
            counts["locate"] += 1
            return _locate(self, *args, **kwargs)
        monkeypatch.setattr(partitioner, "locate", locate)
    submit = MiddlewareBase.submit

    def counting_submit(self, spec):
        counts["operations"] += spec.statement_count
        return submit(self, spec)

    monkeypatch.setattr(MiddlewareBase, "submit", counting_submit)
    run_experiment(ExperimentConfig(system=system, workload=workload, terminals=8,
                                    duration_ms=3_000.0, seed=1))
    return counts["locate"], counts["operations"]


@pytest.mark.parametrize("workload", ["ycsb", "tpcc"])
@pytest.mark.parametrize("system", system_names())
def test_no_system_routes_an_operation_twice(monkeypatch, system, workload):
    calls, operations = routing_census(monkeypatch, system, workload)
    assert operations > 0 and calls > 0
    assert calls <= operations, (
        f"{system} on {workload}: {calls} locate calls for {operations} "
        f"operations ({calls / operations:.2f} per operation)")
