"""Every registered system runs through a data-source and a middleware crash.

The fault scenarios sweep only a few systems; this runs all of them, so a
coordinator change that breaks one baseline under a crash fails by name.
Besides the robustness invariants, each run must reach one decision per
global transaction: no data source commits a branch of a transaction whose
branch another data source aborted.
"""

from collections import defaultdict

import pytest

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.plugins import system_names
from repro.recovery.failures import FaultPlan
from repro.recovery.invariants import violations
from repro.storage.wal import LogRecordType

DURATION_MS = 4_000.0

#: Systems that do not promise atomic commit, with the reason.
NOT_ATOMIC = {
    # Commits each branch without a prepare; its module says atomicity is
    # not guaranteed (that gap is the point of the baseline).
    "ssp_local",
}


def split_decisions(cluster):
    """Global ids with both a COMMIT and an ABORT branch record in some WAL."""
    decisions = defaultdict(set)
    for datasource in cluster.datasources.values():
        assert datasource.wal.checkpoints == 0, "a checkpoint dropped records"
        for record in datasource.wal.records():
            if record.record_type is not LogRecordType.PREPARE:
                gid = record.xid.rpartition(".")[0]  # branch xid "{gid}.{n}"
                decisions[gid].add(record.record_type)
    return sorted(gid for gid, kinds in decisions.items() if len(kinds) > 1)


@pytest.mark.parametrize("fault", ["ds_crash", "mw_crash"])
@pytest.mark.parametrize("system", system_names())
def test_no_invariant_fails_under_a_crash(system, fault):
    summary = run_experiment(ExperimentConfig(
        system=system, terminals=8, duration_ms=DURATION_MS, seed=5,
        fault_plan=FaultPlan.named(fault, DURATION_MS)), keep_cluster=True)
    try:
        assert summary.faults["injected"], summary.faults
        assert summary.invariants and not violations(summary.invariants)
        if system not in NOT_ATOMIC:
            assert split_decisions(summary.cluster) == []
    finally:
        summary.cluster.close()
