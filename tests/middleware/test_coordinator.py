"""Integration tests: the SSP coordinator driving simulated data sources."""

import pytest

from repro import protocol
from repro.common import COSTS, Operation, OpType, TxnOutcome
from repro.middleware import (
    ModuloPartitioner,
    ParticipantHandle,
    TransactionSpec,
    TwoPhaseCommitCoordinator,
)
from repro.sim import ConstantLatency, Environment, Network
from repro.storage import DataSource, DataSourceConfig


def build_ssp_cluster(rtts=(10.0, 100.0), lock_wait_timeout_ms=5000.0):
    """Two data sources behind one SSP middleware with the given RTTs."""
    env = Environment()
    net = Network(env)
    names = [f"ds{i}" for i in range(len(rtts))]
    datasources = {}
    participants = {}
    for name, rtt in zip(names, rtts):
        ds = DataSource(env, net, DataSourceConfig(
            name=name, lock_wait_timeout_ms=lock_wait_timeout_ms))
        ds.load_table("usertable", {key: {"v": 0} for key in range(200)})
        datasources[name] = ds
        participants[name] = ParticipantHandle(name=name, endpoint=name)
        net.set_link("dm", name, ConstantLatency(rtt))
    partitioner = ModuloPartitioner(names)
    dm = TwoPhaseCommitCoordinator(env, net, "dm", participants, partitioner)
    return env, net, dm, datasources, partitioner


def update(key, value=1):
    return Operation(op_type=OpType.UPDATE, table="usertable", key=key, value={"v": value})


def read(key):
    return Operation(op_type=OpType.READ, table="usertable", key=key)


def run_txn(env, dm, spec):
    proc = dm.submit(spec)
    env.run(until=proc)
    return proc.value


def test_centralized_transaction_commits_with_single_round_trip():
    env, net, dm, datasources, partitioner = build_ssp_cluster(rtts=(10.0, 100.0))
    # Keys 0 and 2 both live on ds0 (modulo partitioning over 2 nodes).
    spec = TransactionSpec.from_operations([update(0), update(2)], txn_type="ycsb")
    result = run_txn(env, dm, spec)
    assert result.outcome is TxnOutcome.COMMITTED
    assert not result.is_distributed
    # Execution RT (10) + one-phase commit RT (10) plus small local costs.
    assert 20 <= result.latency_ms <= 40
    assert datasources["ds0"].engine.read("p", "usertable", 0).value == {"v": 1}


def test_distributed_transaction_takes_three_wan_round_trips():
    env, net, dm, datasources, partitioner = build_ssp_cluster(rtts=(10.0, 100.0))
    spec = TransactionSpec.from_operations([update(0), update(1)], txn_type="ycsb")
    result = run_txn(env, dm, spec)
    assert result.outcome is TxnOutcome.COMMITTED
    assert result.is_distributed
    # Slowest link RTT is 100 ms and SSP pays execution + prepare + commit.
    assert result.latency_ms >= 300
    assert result.latency_ms <= 330
    assert datasources["ds1"].engine.read("p", "usertable", 1).value == {"v": 1}


def test_distributed_transaction_phase_breakdown_recorded():
    env, net, dm, datasources, partitioner = build_ssp_cluster()
    spec = TransactionSpec.from_operations([update(0), update(1)])
    result = run_txn(env, dm, spec)
    breakdown = result.phase_breakdown
    assert breakdown["execution"] >= 100
    assert breakdown["prepare"] >= 100
    assert breakdown["commit"] >= 100


def test_multi_round_transaction_commits():
    env, net, dm, datasources, partitioner = build_ssp_cluster()
    spec = TransactionSpec.from_operations(
        [update(0), update(1), update(2), update(3)], rounds=2)
    result = run_txn(env, dm, spec)
    assert result.outcome is TxnOutcome.COMMITTED
    # Two execution rounds + prepare + commit, each bounded by the 100 ms link.
    assert result.latency_ms >= 400


def test_read_only_transaction_returns_values():
    env, net, dm, datasources, partitioner = build_ssp_cluster()
    datasources["ds0"].load_table("usertable", {0: {"v": 77}})
    spec = TransactionSpec.from_operations([read(0)])
    result = run_txn(env, dm, spec)
    assert result.outcome is TxnOutcome.COMMITTED


def test_lock_conflict_timeout_aborts_and_rolls_back_all_participants():
    env, net, dm, datasources, partitioner = build_ssp_cluster(
        rtts=(10.0, 100.0), lock_wait_timeout_ms=100.0)

    blocker = TransactionSpec.from_operations([update(0, value=1), update(1, value=1)])
    victim = TransactionSpec.from_operations([update(0, value=2), update(3, value=2)])

    results = {}

    def client_blocker():
        proc = dm.submit(blocker)
        result = yield proc
        results["blocker"] = result

    def client_victim():
        # Arrive while the blocker still holds the lock on key 0 at ds0.
        yield env.timeout(30)
        proc = dm.submit(victim)
        result = yield proc
        results["victim"] = result

    env.process(client_blocker())
    env.process(client_victim())
    env.run()

    assert results["blocker"].outcome is TxnOutcome.COMMITTED
    assert results["victim"].outcome is TxnOutcome.ABORTED
    # The victim's write on ds1 (key 3) must have been rolled back.
    assert datasources["ds1"].engine.read("p", "usertable", 3).value == {"v": 0}
    assert dm.stats.aborted == 1
    assert dm.stats.committed == 1


def test_middleware_stats_track_commits_and_work():
    env, net, dm, datasources, partitioner = build_ssp_cluster()
    for i in range(3):
        spec = TransactionSpec.from_operations([update(i * 2), update(i * 2 + 1)])
        run_txn(env, dm, spec)
    assert dm.stats.submitted == 3
    assert dm.stats.committed == 3
    assert dm.stats.work_units > 0
    assert dm.stats.wan_messages >= 3 * 6  # exec x2 + prepare x2 + commit x2


def test_concurrent_non_conflicting_transactions_all_commit():
    env, net, dm, datasources, partitioner = build_ssp_cluster()
    outcomes = []

    def client(key_base):
        spec = TransactionSpec.from_operations(
            [update(key_base), update(key_base + 1)])
        result = yield dm.submit(spec)
        outcomes.append(result.outcome)

    for i in range(5):
        env.process(client(10 + i * 2))
    env.run()
    assert outcomes.count(TxnOutcome.COMMITTED) == 5


def test_decision_log_flushed_before_commit_dispatch():
    env, net, dm, datasources, partitioner = build_ssp_cluster()
    spec = TransactionSpec.from_operations([update(0), update(1)])
    result = run_txn(env, dm, spec)
    assert result.committed
    decisions = [r for r in dm.wal.records() if r.xid == result.txn_id]
    assert len(decisions) == 1


def test_concurrent_distributed_rounds_are_not_serialised():
    """Rounds of transactions on disjoint keys travel side by side: no batch
    waits for another transaction's batch to the same data source."""
    env, net, dm, datasources, partitioner = build_ssp_cluster(rtts=(10.0, 40.0))
    procs = [dm.submit(TransactionSpec.from_operations(
        [update(2 * i), update(2 * i + 1)], rounds=2)) for i in range(3)]
    env.run()
    assert [p.value.outcome for p in procs] == [TxnOutcome.COMMITTED] * 3
    assert len({p.value.latency_ms for p in procs}) == 1


def test_a_batch_whose_coordinator_crashed_while_it_waited_is_not_sent():
    env, net, dm, datasources, partitioner = build_ssp_cluster()
    dm.submit(TransactionSpec.from_operations([update(0), update(1)]))
    # Past the analysis cost, inside the request overhead: both batches are
    # waiting to be sent when a crash clears the coordinator's contexts.
    env.run(until=COSTS.analysis_ms + COSTS.middleware_request_ms / 2)
    dm.active_contexts.clear()
    env.run(until=1_000.0)
    assert protocol.MSG_EXECUTE not in net.stats.messages_by_type
    assert all(not ds.transactions for ds in datasources.values())
