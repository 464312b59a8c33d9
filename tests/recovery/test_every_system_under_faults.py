"""Every registered system runs through a data-source and a middleware crash.

The fault scenarios sweep only a few systems; this runs all of them, so a
coordinator change that breaks one baseline under a crash fails by name.
Besides the robustness invariants, each run must reach one decision per
global transaction: no data source commits a branch of a transaction whose
branch another data source aborted, whether that branch was rolled back or
lost to a crash.
"""

from collections import defaultdict
from types import SimpleNamespace

import pytest

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.plugins import system_names
from repro.recovery.failures import FaultPlan, fault_window
from repro.recovery.invariants import violations
from repro.sim import Network
from repro.storage.datasource import DataSource
from repro.storage.transaction import LocalTransaction, TxnState

DURATION_MS = 4_000.0
#: Finished branches each data source keeps: far more than a run finishes,
#: so every branch's final state stays readable.
RETENTION = 1_000_000

#: Systems that do not promise atomic commit, with the reason.
NOT_ATOMIC = {
    # Commits each branch without a prepare; its module says atomicity is
    # not guaranteed (that gap is the point of the baseline).
    "ssp_local",
}
#: (system, fault) -> a global transaction the run must report as split:
#: the check's positive control.  Under the middleware crash ssp_local has
#: committed dm-t39's branch on ds2 when the crash kills its session on ds3.
KNOWN_SPLITS = {("ssp_local", "mw_crash"): "dm-t39"}


@pytest.fixture
def full_retention(monkeypatch):
    """Build clusters whose data sources evict no finished branch."""
    monkeypatch.setattr(DataSource, "FINISHED_TXN_RETENTION", RETENTION)


def split_decisions(cluster):
    """Xids (global ids) with a COMMITTED and an ABORTED branch across data sources."""
    decisions = defaultdict(set)
    for datasource in cluster.datasources.values():
        assert len(datasource._finished_xids) < RETENTION, "a branch was evicted"
        for xid, txn in datasource.transactions.items():
            if txn.state in (TxnState.COMMITTED, TxnState.ABORTED):
                decisions[xid].add(txn.state)
    return sorted(xid for xid, states in decisions.items() if len(states) > 1)


def leftovers(cluster):
    """Executor slots held or queued for, and footprint accesses not ended:
    after the drain no transaction is live, so both must be zero."""
    middlewares = cluster.middlewares
    return {"slots": sum(m.coordinator_slots - m._free_slots + len(m._slot_waiters)
                         for m in middlewares if hasattr(m, "_slot_waiters")),
            "a_cnt": sum(entry.a_cnt for m in middlewares if hasattr(m, "footprint")
                         for entry in m.footprint._entries.values())}


@pytest.mark.parametrize("fault", ["ds_crash", "mw_crash"])
@pytest.mark.parametrize("system", system_names())
def test_no_invariant_fails_under_a_crash(full_retention, system, fault):
    summary = run_experiment(ExperimentConfig(
        system=system, terminals=8, duration_ms=DURATION_MS, seed=5,
        fault_plan=FaultPlan.named(fault, DURATION_MS)), keep_cluster=True)
    try:
        assert summary.faults["injected"], summary.faults
        assert summary.invariants and not violations(summary.invariants)
        assert leftovers(summary.cluster) == {"slots": 0, "a_cnt": 0}
        splits = split_decisions(summary.cluster)
        if system not in NOT_ATOMIC:
            assert splits == []
        if (system, fault) in KNOWN_SPLITS:
            assert KNOWN_SPLITS[system, fault] in splits, splits
    finally:
        summary.cluster.close()


@pytest.mark.parametrize("system", ["scalardb", "scalardb_plus"])
def test_a_crash_frees_every_executor_slot_with_more_in_flight_than_slots(system):
    # 32 terminals keep transactions queued for the 24 executor slots, so
    # the crash interrupts some of them while they wait.
    summary = run_experiment(ExperimentConfig(
        system=system, terminals=32, duration_ms=DURATION_MS, seed=5,
        fault_plan=FaultPlan.named("mw_crash", DURATION_MS)), keep_cluster=True)
    try:
        assert leftovers(summary.cluster) == {"slots": 0, "a_cnt": 0}
        assert not violations(summary.invariants)
    finally:
        summary.cluster.close()


@pytest.mark.parametrize("system", system_names())
def test_a_crashed_middleware_sends_nothing_while_it_is_down(monkeypatch, system):
    # A timer armed before the crash (a postponed batch, say) must find the
    # transaction gone and send nothing; the restart's recovery pass starts
    # when the window closes.
    sent = []
    send = Network.send

    def recording_send(self, message):
        sent.append((self.env.now, message.sender, message.msg_type))
        return send(self, message)

    monkeypatch.setattr(Network, "send", recording_send)
    duration_ms = 6_000.0
    summary = run_experiment(ExperimentConfig(
        system=system, terminals=32, duration_ms=duration_ms, seed=5,
        fault_plan=FaultPlan.named("mw_crash", duration_ms)), keep_cluster=True)
    try:
        crashed = summary.cluster.middlewares[0].name
    finally:
        summary.cluster.close()
    at_ms, down_ms = fault_window(duration_ms)
    while_down = [(now, verb) for now, sender, verb in sent
                  if sender == crashed and at_ms <= now < at_ms + down_ms]
    assert summary.faults["injected"]["middleware"] == 1
    assert while_down == []


def test_split_decisions_flags_a_committed_and_an_aborted_branch():
    def datasource(**states):
        transactions = {}
        for gid, state in states.items():
            xid = f"dm-{gid}"
            transactions[xid] = LocalTransaction(xid=xid, state=state)
        return SimpleNamespace(_finished_xids=(), transactions=transactions)

    cluster = SimpleNamespace(datasources={
        "ds0": datasource(t1=TxnState.COMMITTED, t2=TxnState.COMMITTED,
                          t3=TxnState.PREPARED, t4=TxnState.ABORTED),
        # t1 was rolled back or lost to a crash here; t3 is still in doubt.
        "ds1": datasource(t1=TxnState.ABORTED, t2=TxnState.COMMITTED,
                          t3=TxnState.ABORTED, t4=TxnState.ABORTED),
    })
    assert split_decisions(cluster) == ["dm-t1"]
