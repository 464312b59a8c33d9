"""Recovery and atomicity tests (§V of the paper).

These tests stage transactions part-way, then make exactly the calls the
fault injector makes: ``MSG_CRASH``/``MSG_RESTART`` requests to a data node,
``DataSource.kill_sessions`` for a dead coordinator's connections, and the one
recovery pass, ``RecoveryManager.resolve_in_doubt``.  They then assert the
atomic-commitment properties: every branch of a transaction ends in the same
state, decisions are never reversed, and transactions without a logged
decision are aborted.
"""

from repro import protocol
from repro.common import Operation, OpType, TxnOutcome
from repro.middleware import (
    ModuloPartitioner,
    ParticipantHandle,
    TransactionSpec,
    TwoPhaseCommitCoordinator,
)
from repro.recovery import RecoveryManager
from repro.sim import ConstantLatency, Environment, Network
from repro.storage import DataSource, DataSourceConfig, TxnState
from repro.storage.wal import LogRecordType


def build_cluster(rtts=(10.0, 100.0)):
    env = Environment()
    net = Network(env)
    names = [f"ds{i}" for i in range(len(rtts))]
    datasources, participants = {}, {}
    for name, rtt in zip(names, rtts):
        ds = DataSource(env, net, DataSourceConfig(name=name))
        ds.load_table("usertable", {key: {"v": 0} for key in range(50)})
        datasources[name] = ds
        participants[name] = ParticipantHandle(name=name, endpoint=name)
        net.set_link("dm", name, ConstantLatency(rtt))
    dm = TwoPhaseCommitCoordinator(env, net, "dm", participants,
                                   ModuloPartitioner(names))
    injector = net.interface("failure-injector")
    return env, net, dm, datasources, injector


def update(key, value=1):
    return Operation(op_type=OpType.UPDATE, table="usertable", key=key, value={"v": value})


def visible(datasource, key):
    return datasource.engine.read("p", "usertable", key).value


def prepare_branch_by_hand(env, net, ds_name, xid, key):
    """Drive a branch to PREPARED directly (simulating a DM that died mid-commit)."""
    client = net.interface("manual-client")
    done = {}

    def driver():
        yield client.request(ds_name, protocol.MSG_EXECUTE,
                             {"xid": xid, "operations": [update(key, 99)],
                              "auto_start": True})
        yield client.request(ds_name, protocol.MSG_XA_PREPARE, {"xid": xid})
        done["ok"] = True

    env.process(driver())
    env.run(until=env.peek() + 10_000)
    assert done.get("ok")


def node_request(env, injector, ds_name, msg_type):
    """Send a node the injector's ``MSG_CRASH``/``MSG_RESTART``; wait for the ack."""
    return env.run(until=injector.request(ds_name, msg_type, {}))


def recover(env, dm, **kwargs):
    """Run one ``resolve_in_doubt`` pass to completion; returns its report."""
    return env.run(until=env.process(
        RecoveryManager(dm).resolve_in_doubt(**kwargs)))


def crash_and_restart_middleware(env, dm, datasources):
    """The injector's middleware crash-and-restart calls.

    The servers roll back the dead coordinator's open sessions, then the
    restarted middleware resolves its in-doubt branches on every data source.
    """
    for datasource in datasources.values():
        datasource.kill_sessions("dm-")
    return recover(env, dm, skip_global_ids=list(dm.active_contexts),
                   owned_prefix="dm-")


def test_middleware_recovery_commits_logged_transactions():
    env, net, dm, datasources, injector = build_cluster()
    net.set_link("manual-client", "ds0", ConstantLatency(1))
    net.set_link("manual-client", "ds1", ConstantLatency(1))

    # Both branches prepared, and the middleware logged a COMMIT decision
    # before crashing: recovery must commit both branches.
    prepare_branch_by_hand(env, net, "ds0", "dm-t77", 0)
    prepare_branch_by_hand(env, net, "ds1", "dm-t77", 1)
    dm.wal.append(LogRecordType.COMMIT, "dm-t77", env.now)

    report = crash_and_restart_middleware(env, dm, datasources)

    assert len(report.committed) == 2
    assert datasources["ds0"].transactions["dm-t77"].state is TxnState.COMMITTED
    assert datasources["ds1"].transactions["dm-t77"].state is TxnState.COMMITTED
    assert visible(datasources["ds0"], 0) == {"v": 99}


def test_middleware_recovery_aborts_undecided_transactions():
    env, net, dm, datasources, injector = build_cluster()
    net.set_link("manual-client", "ds0", ConstantLatency(1))
    net.set_link("manual-client", "ds1", ConstantLatency(1))

    # Branches prepared but no decision logged: the transaction never entered
    # the commit phase, so recovery must abort it (AC3/AC4).
    prepare_branch_by_hand(env, net, "ds0", "dm-t88", 2)
    prepare_branch_by_hand(env, net, "ds1", "dm-t88", 3)

    report = crash_and_restart_middleware(env, dm, datasources)

    assert len(report.rolled_back) == 2
    assert datasources["ds0"].transactions["dm-t88"].state is TxnState.ABORTED
    assert datasources["ds1"].transactions["dm-t88"].state is TxnState.ABORTED
    # The prepared-but-aborted write never became visible.
    assert visible(datasources["ds0"], 2) == {"v": 0}


def test_all_branches_reach_the_same_outcome_after_recovery():
    """AC1: no transaction ends with one branch committed and another aborted."""
    env, net, dm, datasources, injector = build_cluster()
    net.set_link("manual-client", "ds0", ConstantLatency(1))
    net.set_link("manual-client", "ds1", ConstantLatency(1))

    prepare_branch_by_hand(env, net, "ds0", "dm-t90", 4)
    prepare_branch_by_hand(env, net, "ds1", "dm-t90", 5)
    dm.wal.append(LogRecordType.ABORT, "dm-t90", env.now)

    crash_and_restart_middleware(env, dm, datasources)

    states = {datasources["ds0"].transactions["dm-t90"].state,
              datasources["ds1"].transactions["dm-t90"].state}
    assert len(states) == 1
    assert states.pop() is TxnState.ABORTED


def test_datasource_crash_loses_unprepared_work_and_siblings_roll_back():
    """ds0 crashes while its branch executes, under a live coordinator.

    The node drops the lost, unprepared branch itself; the coordinator sees
    the failed execute, aborts the transaction and rolls back the ds1
    sibling.  The restart-time recovery pass then finds nothing to decide.
    """
    env, net, dm, datasources, injector = build_cluster()
    ds0, ds1 = datasources["ds0"], datasources["ds1"]
    proc = dm.submit(TransactionSpec.from_operations([update(6, 50), update(7, 50)]))
    while not ds0.transactions:  # until ds0 starts executing its branch
        env.step()
    (lost,) = ds0.transactions.values()
    assert lost.state is TxnState.ACTIVE

    node_request(env, injector, "ds0", protocol.MSG_CRASH)
    result = env.run(until=proc)

    assert result.outcome is TxnOutcome.ABORTED
    assert ds0.transactions[result.txn_id].state is TxnState.ABORTED
    assert ds1.transactions[result.txn_id].state is TxnState.ABORTED
    assert visible(ds0, 6) == {"v": 0}
    assert visible(ds1, 7) == {"v": 0}

    node_request(env, injector, "ds0", protocol.MSG_RESTART)
    report = recover(env, dm, participant_names=["ds0"],
                     skip_global_ids=list(dm.active_contexts),
                     owned_prefix="dm-")
    assert report.committed == [] and report.rolled_back == []


def test_datasource_crash_with_sibling_mid_prepare_rolls_back_every_branch():
    """The dead-coordinator case: ALL branches roll back, whatever their state.

    The transaction spans three data sources: its branch on ds0 had executed
    but not prepared when ds0 crashed (the node drops it), the sibling on ds1
    is PREPARED, and the sibling on ds2 is still ACTIVE — caught mid-prepare.
    Its coordinator is dead and logged no decision, so the transaction can
    never have entered the commit phase (AC3/AC4).  The middleware's
    crash-and-restart calls roll back both siblings: ``kill_sessions`` the
    active one, the recovery pass the prepared one.
    """
    env, net, dm, datasources, injector = build_cluster(rtts=(10.0, 50.0, 100.0))
    for name in ("ds0", "ds1", "ds2"):
        net.set_link("manual-client", name, ConstantLatency(1))
    client = net.interface("manual-client")

    def stage():
        # ds1: prepared sibling.
        yield client.request("ds1", protocol.MSG_EXECUTE,
                             {"xid": "dm-t95", "operations": [update(10, 7)],
                              "auto_start": True})
        yield client.request("ds1", protocol.MSG_XA_PREPARE, {"xid": "dm-t95"})
        # ds2: active sibling (its XA PREPARE never arrived).
        yield client.request("ds2", protocol.MSG_EXECUTE,
                             {"xid": "dm-t95", "operations": [update(11, 7)],
                              "auto_start": True})
        # ds0: executed-only branch.
        yield client.request("ds0", protocol.MSG_EXECUTE,
                             {"xid": "dm-t95", "operations": [update(9, 7)],
                              "auto_start": True})

    env.run(until=env.process(stage()))
    node_request(env, injector, "ds0", protocol.MSG_CRASH)
    node_request(env, injector, "ds0", protocol.MSG_RESTART)
    assert datasources["ds0"].transactions["dm-t95"].state is TxnState.ABORTED

    report = crash_and_restart_middleware(env, dm, datasources)

    assert report.rolled_back == ["ds1:dm-t95"]
    assert report.committed == []
    for name, branch, key in (("ds0", "dm-t95", 9), ("ds1", "dm-t95", 10),
                              ("ds2", "dm-t95", 11)):
        assert datasources[name].transactions[branch].state is TxnState.ABORTED
        # No sibling's write ever became visible (AC1).
        assert visible(datasources[name], key) == {"v": 0}


def test_datasource_restart_commits_a_prepared_branch_whose_commit_is_logged():
    """Prepared work survives a node crash; the restart pass finishes it.

    A real 2PC run: ds1 crashes between its vote and the commit.  The restart
    pass lists the branch under the transaction's own id, the decision log's
    key, and commits it.
    """
    env, net, dm, datasources, injector = build_cluster()
    ds1 = datasources["ds1"]
    proc = dm.submit(TransactionSpec.from_operations([update(4, 5), update(5, 5)]))
    while not dm.wal.records():  # until the commit decision is logged
        env.step()
    (txn_id,) = dm.active_contexts

    node_request(env, injector, "ds1", protocol.MSG_CRASH)
    assert env.run(until=proc).outcome is TxnOutcome.COMMITTED
    node_request(env, injector, "ds1", protocol.MSG_RESTART)
    branch = ds1.transactions[txn_id]
    assert branch.state is TxnState.PREPARED
    assert visible(ds1, 5) == {"v": 0}

    report = recover(env, dm, participant_names=["ds1"], owned_prefix="dm-")

    assert report.committed == [f"ds1:{txn_id}"]
    assert report.rolled_back == []
    assert branch.state is TxnState.COMMITTED
    assert visible(ds1, 5) == {"v": 5}


def test_resolve_in_doubt_skips_live_and_foreign_transactions():
    """Targeted recovery must not decide what it does not own.

    ``skip_global_ids`` protects transactions whose coordinator is alive and
    mid-prepare; ``owned_prefix`` protects another middleware's branches —
    this decision log knows nothing about either, so rolling them back (the
    no-decision default) would wreck healthy work.
    """
    env, net, dm, datasources, injector = build_cluster()
    net.set_link("manual-client", "ds0", ConstantLatency(1))

    prepare_branch_by_hand(env, net, "ds0", "dm-t96", 12)   # in doubt: ours
    prepare_branch_by_hand(env, net, "ds0", "dm-t97", 13)   # live coordinator
    prepare_branch_by_hand(env, net, "ds0", "dm2-t5", 14)   # other middleware

    report = recover(env, dm, participant_names=["ds0"],
                     skip_global_ids=["dm-t97"], owned_prefix="dm-")

    assert report.rolled_back == ["ds0:dm-t96"]
    assert datasources["ds0"].transactions["dm-t96"].state is TxnState.ABORTED
    assert datasources["ds0"].transactions["dm-t97"].state is TxnState.PREPARED
    assert datasources["ds0"].transactions["dm2-t5"].state is TxnState.PREPARED


def test_recovery_is_idempotent():
    """Running recovery twice must not change outcomes (AC2: decisions stick)."""
    env, net, dm, datasources, injector = build_cluster()
    net.set_link("manual-client", "ds0", ConstantLatency(1))
    prepare_branch_by_hand(env, net, "ds0", "dm-t92", 8)
    dm.wal.append(LogRecordType.COMMIT, "dm-t92", env.now)

    first = crash_and_restart_middleware(env, dm, datasources)
    second = crash_and_restart_middleware(env, dm, datasources)

    assert first.committed == ["ds0:dm-t92"]
    assert datasources["ds0"].transactions["dm-t92"].state is TxnState.COMMITTED
    assert visible(datasources["ds0"], 8) == {"v": 99}
    # The second pass finds nothing prepared and changes nothing.
    assert second.committed == [] and second.rolled_back == []


def test_client_facing_outcome_matches_data_source_state():
    """End-to-end: a committed transaction's writes survive; an aborted one's do not."""
    env, net, dm, datasources, injector = build_cluster()
    spec = TransactionSpec.from_operations([update(0, 5), update(1, 5)])
    proc = dm.submit(spec)
    env.run(until=proc)
    result = proc.value
    assert result.outcome is TxnOutcome.COMMITTED
    for name, key in (("ds0", 0), ("ds1", 1)):
        # The branch's xid is the transaction's id: no per-branch qualifier.
        assert list(datasources[name].transactions) == [result.txn_id]
        assert datasources[name].transactions[result.txn_id].state is TxnState.COMMITTED
