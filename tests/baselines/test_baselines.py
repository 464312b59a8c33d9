"""Behavioural tests for the baseline coordinators."""

import pytest

from repro.baselines import (
    ChillerCoordinator,
    QUROCoordinator,
    SSPLocalCoordinator,
    ScalarDBCoordinator,
    ScalarDBPlusCoordinator,
    YugabyteCoordinator,
)
from repro import protocol
from repro.baselines.quro import reorder_statements
from repro.baselines.ssp import SSPCoordinator
from repro.common import AbortReason, Operation, OpType, TxnOutcome
from repro.middleware import (
    ModuloPartitioner,
    ParticipantHandle,
    Rewriter,
    TransactionSpec,
)
from repro.sim import ConstantLatency, Environment, Network
from repro.storage import DataSource, DataSourceConfig, TxnState


def build(coordinator_cls, rtts=(10.0, 100.0)):
    env = Environment()
    net = Network(env)
    names = [f"ds{i}" for i in range(len(rtts))]
    datasources, participants = {}, {}
    for name, rtt in zip(names, rtts):
        ds = DataSource(env, net, DataSourceConfig(name=name))
        ds.load_table("usertable", {key: {"v": 0} for key in range(100)})
        datasources[name] = ds
        participants[name] = ParticipantHandle(name=name, endpoint=name)
        net.set_link("dm", name, ConstantLatency(rtt))
    dm = coordinator_cls(env, net, "dm", participants, ModuloPartitioner(names))
    return env, dm, datasources


def update(key, value=1):
    return Operation(op_type=OpType.UPDATE, table="usertable", key=key, value={"v": value})


def read(key):
    return Operation(op_type=OpType.READ, table="usertable", key=key)


def run_txn(env, dm, spec):
    proc = dm.submit(spec)
    env.run(until=proc)
    return proc.value


def test_ssp_local_commits_with_single_round_trip():
    env, dm, datasources = build(SSPLocalCoordinator)
    result = run_txn(env, dm, TransactionSpec.from_operations([update(0), update(1)]))
    assert result.outcome is TxnOutcome.COMMITTED
    # No prepare phase: execution RT (100) + commit RT (100) only.
    assert result.latency_ms < 230
    assert datasources["ds1"].engine.read("p", "usertable", 1).value == {"v": 1}


def test_quro_reorders_writes_after_reads():
    operations = [
        update(1),
        read(2),
        Operation(OpType.UPDATE, "usertable", 3, value=1, is_hot_hint=True),
        read(4),
    ]
    reordered = reorder_statements(operations)
    kinds = [(op.is_write, op.is_hot_hint) for op in reordered]
    assert kinds == [(False, False), (False, False), (True, False), (True, True)]


def test_quro_coordinator_still_commits():
    env, dm, datasources = build(QUROCoordinator)
    spec = TransactionSpec.from_operations([update(0), read(1), update(2)])
    result = run_txn(env, dm, spec)
    assert result.outcome is TxnOutcome.COMMITTED
    assert dm.stats.committed == 1


def test_chiller_commits_distributed_transaction_with_merged_prepare():
    env, dm, datasources = build(ChillerCoordinator)
    result = run_txn(env, dm, TransactionSpec.from_operations([update(0), update(1)]))
    assert result.outcome is TxnOutcome.COMMITTED
    # Both branches were prepared during execution (no separate prepare round
    # trip): neither data source received an ``xa_prepare``.
    assert protocol.MSG_XA_PREPARE not in dm.network.stats.messages_by_type
    assert datasources["ds0"].stats.prepares == 1
    assert datasources["ds1"].stats.prepares == 1
    # Serial outer-then-inner execution plus one commit round trip:
    # well below SSP's ~305 ms but above GeoTP's ~210 ms.
    assert 200 <= result.latency_ms <= 330


def test_chiller_inner_region_is_lowest_latency_node():
    env, dm, datasources = build(ChillerCoordinator)
    outer, inner = dm.dispatch_groups({"ds0": "plan0", "ds1": "plan1"})
    assert inner == ["plan0"]
    assert outer == ["plan1"]


def test_a_single_participant_chiller_round_is_planned_once(monkeypatch):
    env, dm, datasources = build(ChillerCoordinator)
    planned = []
    plan_round = Rewriter.plan_round

    def counting_plan_round(rewriter, statements):
        planned.append(len(statements))
        return plan_round(rewriter, statements)

    monkeypatch.setattr(Rewriter, "plan_round", counting_plan_round)
    result = run_txn(env, dm, TransactionSpec.from_operations([update(0), read(2)]))
    assert result.outcome is TxnOutcome.COMMITTED and not result.is_distributed
    assert planned == [2]


def test_scalardb_commits_and_pays_per_operation_round_trips():
    env, dm, datasources = build(ScalarDBCoordinator)
    result = run_txn(env, dm, TransactionSpec.from_operations(
        [update(0), update(1), read(2)]))
    assert result.outcome is TxnOutcome.COMMITTED
    # Three sequential storage reads (10 + 100 + 10 ms RTT) plus a prepare
    # round bounded by the slowest link: at least ~220 ms end to end.
    assert result.latency_ms > 200
    assert result.phase_breakdown["execution"] >= 110


def test_scalardb_conflicting_writers_abort_on_validation(monkeypatch):
    monkeypatch.setattr(ScalarDBCoordinator, "coordinator_slots", 8)
    env, dm, datasources = build(ScalarDBCoordinator)
    outcomes = []

    def client(value):
        spec = TransactionSpec.from_operations([update(0, value), update(1, value)])
        result = yield dm.submit(spec)
        outcomes.append(result.outcome)

    env.process(client(1))
    env.process(client(2))
    env.run()
    assert TxnOutcome.COMMITTED in outcomes
    assert TxnOutcome.ABORTED in outcomes


def test_scalardb_executor_slots_bound_concurrency(monkeypatch):
    monkeypatch.setattr(ScalarDBCoordinator, "coordinator_slots", 1)
    env, dm, datasources = build(ScalarDBCoordinator)
    finish_times = []

    def client(key):
        result = yield dm.submit(TransactionSpec.from_operations([update(key)]))
        finish_times.append(env.now)

    env.process(client(0))
    env.process(client(2))
    env.run()
    # With a single slot the second transaction starts only after the first
    # finishes, so completions are strictly serialised.
    assert len(finish_times) == 2
    assert abs(finish_times[1] - finish_times[0]) > 15


def test_scalardb_executor_hands_its_slot_over_in_submission_order(monkeypatch):
    monkeypatch.setattr(ScalarDBCoordinator, "coordinator_slots", 1)
    env, dm, datasources = build(ScalarDBCoordinator)
    finished = []

    def client(name, key):
        result = yield dm.submit(TransactionSpec.from_operations([update(key)]))
        finished.append((name, result.outcome))

    for name, key in (("first", 0), ("second", 2), ("third", 4)):
        env.process(client(name, key))
    env.run()
    # A last-in-first-out hand-over would finish the third before the second.
    assert finished == [("first", TxnOutcome.COMMITTED),
                        ("second", TxnOutcome.COMMITTED),
                        ("third", TxnOutcome.COMMITTED)]
    assert dm._free_slots == 1 and not dm._slot_waiters


def test_scalardb_executor_withdraws_a_waiter_a_crash_interrupts(monkeypatch):
    monkeypatch.setattr(ScalarDBCoordinator, "coordinator_slots", 1)
    env, dm, datasources = build(ScalarDBCoordinator)
    processes = [dm.submit(TransactionSpec.from_operations([update(key)]))
                 for key in (0, 2, 4)]
    env.run(until=1.0)      # analysis paid: the first holds the slot, two wait
    assert dm._free_slots == 0 and len(dm._slot_waiters) == 2
    processes[1].interrupt("middleware crash")
    env.run()
    # Had the dead waiter stayed queued, the first's release would have gone
    # to it and the third would still be waiting.
    assert [(p.value.outcome, p.value.abort_reason) for p in processes] == [
        (TxnOutcome.COMMITTED, None),
        (TxnOutcome.ABORTED, AbortReason.UNAVAILABLE),
        (TxnOutcome.COMMITTED, None)]
    assert dm._free_slots == 1 and not dm._slot_waiters


def test_scalardb_taking_a_free_executor_slot_adds_no_event(monkeypatch):
    def events_of_one_transaction():
        env, dm, datasources = build(ScalarDBCoordinator)
        run_txn(env, dm, TransactionSpec.from_operations([update(0), update(1)]))
        env.run()
        return env.events_processed

    with_executor = events_of_one_transaction()
    monkeypatch.setattr(ScalarDBCoordinator, "_run_transaction",
                        lambda self, ctx: self._run_occ(ctx))
    assert with_executor == events_of_one_transaction()


def test_scalardb_plus_keeps_occ_semantics_and_uses_scheduling():
    env, dm, datasources = build(ScalarDBPlusCoordinator)
    result = run_txn(env, dm, TransactionSpec.from_operations([update(0), update(1)]))
    assert result.outcome is TxnOutcome.COMMITTED
    # The latency-aware batched execution makes it faster than plain ScalarDB
    # on the same transaction shape.
    env2, dm2, _ = build(ScalarDBCoordinator)
    plain = run_txn(env2, dm2, TransactionSpec.from_operations([update(0), update(1)]))
    assert result.latency_ms < plain.latency_ms


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known ScalarDB+ defect: MiddlewareBase._coordinate runs "
    "on_transaction_finished before enter_phase(DONE) closes the prepare "
    "phase, so settled_latency_ms is 0 for a transaction that failed "
    "validation and only committed transactions feed w_lat"))
def test_scalardb_plus_samples_a_failed_prepare_into_w_lat(monkeypatch):
    monkeypatch.setattr(ScalarDBPlusCoordinator, "coordinator_slots", 8)
    settles = []
    settle = ScalarDBPlusCoordinator.on_transaction_finished

    def recording(self, ctx, outcome, reason):
        settles.append((reason, self.settled_latency_ms(ctx)))
        settle(self, ctx, outcome, reason)

    monkeypatch.setattr(ScalarDBPlusCoordinator, "on_transaction_finished",
                        recording)
    env, dm, datasources = build(ScalarDBPlusCoordinator)
    for value in (1, 2):
        dm.submit(TransactionSpec.from_operations([update(0, value),
                                                   update(1, value)]))
    env.run()
    reasons = {reason for reason, _ in settles}
    if len(settles) != 2 or reasons != {None, AbortReason.PREPARE_FAILED}:
        raise RuntimeError(f"expected one commit and one failed prepare: {settles}")
    # Both transactions ran a prepare phase, so both give a latency sample.
    assert all(latency_ms > 0 for _, latency_ms in settles), settles


@pytest.mark.parametrize("coordinator_cls", [ScalarDBCoordinator,
                                             ScalarDBPlusCoordinator])
def test_scalardb_read_refused_by_a_crashed_node_aborts(coordinator_cls):
    """A crashed node refuses the read; that is not "row absent"."""
    env, dm, datasources = build(coordinator_cls)
    injector = dm.network.interface("failure-injector")
    env.run(until=injector.request("ds1", protocol.MSG_CRASH, {}))
    result = run_txn(env, dm, TransactionSpec.from_operations(
        [read(0), read(1)]))
    assert result.outcome is TxnOutcome.ABORTED
    assert result.abort_reason is AbortReason.UNAVAILABLE


def test_yugabyte_single_shard_fast_path_is_cheap():
    env, dm, datasources = build(YugabyteCoordinator, rtts=(0.0, 100.0))
    result = run_txn(env, dm, TransactionSpec.from_operations([update(0), update(2)]))
    assert result.outcome is TxnOutcome.COMMITTED
    # Coordinator co-located with ds0 and asynchronous apply: a few ms only.
    assert result.latency_ms < 20


def test_yugabyte_multi_shard_still_atomic():
    env, dm, datasources = build(YugabyteCoordinator, rtts=(0.0, 100.0))
    result = run_txn(env, dm, TransactionSpec.from_operations([update(0), update(1)]))
    assert result.outcome is TxnOutcome.COMMITTED
    env.run()  # let the asynchronous commit messages drain
    assert datasources["ds1"].engine.read("p", "usertable", 1).value == {"v": 1}


@pytest.mark.parametrize("coordinator_cls", [
    SSPCoordinator, QUROCoordinator, ChillerCoordinator, YugabyteCoordinator])
def test_a_no_vote_at_commit_aborts_and_rolls_back_every_branch(coordinator_cls):
    """Round 1 touches only ds0, round 2 only ds1; ds0 loses its branch.

    ds0 crashes (and restarts) while round 2 executes on ds1, so the branch
    it dropped votes NO when the commit prepares it.  Every coordinator that
    prepares at commit must then abort and roll back all branches — Chiller
    included, whose ds1 branch already merge-prepared with its last batch.
    """
    env, dm, datasources = build(coordinator_cls)
    ds0, ds1 = datasources["ds0"], datasources["ds1"]
    injector = dm.network.interface("failure-injector")
    proc = dm.submit(TransactionSpec.from_operations(
        [update(0, 50), update(1, 50)], rounds=2))
    while not ds1.transactions:  # until round 2 reaches ds1
        env.step()
    env.run(until=injector.request("ds0", protocol.MSG_CRASH, {}))
    env.run(until=injector.request("ds0", protocol.MSG_RESTART, {}))
    result = env.run(until=proc)
    env.run()  # drain any asynchronous decision

    assert result.outcome is TxnOutcome.ABORTED
    assert result.abort_reason is AbortReason.PREPARE_FAILED
    branches = [txn for ds in (ds0, ds1) for txn in ds.transactions.values()]
    assert len(branches) == 2
    assert all(txn.state is TxnState.ABORTED for txn in branches)
    assert ds1.engine.read("p", "usertable", 1).value == {"v": 0}


class _RacedScalarDB(ScalarDBCoordinator):
    """Another writer commits key 1 on ds1 between this transaction's reads
    and its prepare, so the prepare's second conditional write conflicts."""

    racer = None

    def _prepare_writes(self, *args):
        self.racer.engine.create_table("usertable").put(1, {"v": 99})
        return (yield from super()._prepare_writes(*args))


def _raced():
    env, dm, datasources = build(_RacedScalarDB)
    dm.racer = datasources["ds1"]
    return env, dm, datasources


def test_scalardb_aborted_prepare_restores_its_installed_writes():
    env, dm, datasources = _raced()
    engine = datasources["ds0"].engine
    before = engine.read(None, "usertable", 0)
    result = run_txn(env, dm, TransactionSpec.from_operations(
        [update(0, 7), update(1, 7)]))
    assert result.outcome is TxnOutcome.ABORTED
    assert result.abort_reason is AbortReason.PREPARE_FAILED
    env.run()                                  # the rollback lands
    assert engine.read(None, "usertable", 0) == before
    assert not engine._tables["usertable"]._records


def test_scalardb_rollback_never_undoes_a_later_writer():
    env, dm, datasources = _raced()
    table = datasources["ds0"].engine.create_table("usertable")
    result = run_txn(env, dm, TransactionSpec.from_operations(
        [update(0, 7), update(1, 7)]))
    assert result.outcome is TxnOutcome.ABORTED
    # A later writer lands after the prepare installed key 0 and before the
    # rollback reaches ds0.
    assert table.read(0).version == 2
    table.put(0, {"v": 42})
    env.run()
    snapshot = table.read(0)
    assert (snapshot.value, snapshot.version) == ({"v": 42}, 3)
