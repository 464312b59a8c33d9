"""Integration tests for the DataSource node (XA verbs over the simulated network)."""

import pytest

from repro import protocol
from repro.common import COSTS, AbortReason, Operation, OpType, Vote
from repro.sim import ConstantLatency, Environment, Network
from repro.storage import DataSource, DataSourceConfig, TxnState


def make_datasource(rtt_ms=10.0, lock_wait_timeout_ms=5000.0):
    env = Environment()
    net = Network(env)
    config = DataSourceConfig(name="ds1", lock_wait_timeout_ms=lock_wait_timeout_ms)
    ds = DataSource(env, net, config)
    net.set_link("client", "ds1", ConstantLatency(rtt_ms))
    client = net.interface("client")
    return env, net, ds, client


def execute(client, xid, *operations):
    """Open branch ``xid`` with its first batch, as every coordinator does."""
    return client.request("ds1", protocol.MSG_EXECUTE, {
        "xid": xid, "operations": list(operations), "auto_start": True})


def read_op(key, table="usertable"):
    return Operation(op_type=OpType.READ, table=table, key=key)


def write_op(key, value, table="usertable"):
    return Operation(op_type=OpType.UPDATE, table=table, key=key, value=value)


def test_xa_commit_cycle_updates_value():
    env, net, ds, client = make_datasource()
    ds.load_table("usertable", {"alice": 100})
    outcome = {}

    def coordinator():
        result = yield execute(client, "x1", write_op("alice", 50))
        assert result.success
        yield client.request("ds1", protocol.MSG_XA_END, {"xid": "x1"})
        vote = yield client.request("ds1", protocol.MSG_XA_PREPARE, {"xid": "x1"})
        assert vote["vote"] is Vote.YES
        yield client.request("ds1", protocol.MSG_XA_COMMIT, {"xid": "x1"})
        outcome["value"] = ds.engine.read("probe", "usertable", "alice").value
        outcome["state"] = ds.transactions["x1"].state

    env.process(coordinator())
    env.run()
    assert outcome["value"] == 50
    assert outcome["state"] is TxnState.COMMITTED
    assert ds.lock_manager.locks_held("x1") == set()


def test_xa_rollback_discards_buffered_write():
    env, net, ds, client = make_datasource()
    ds.load_table("usertable", {"bob": 10})

    def coordinator():
        yield execute(client, "x2", write_op("bob", 999))
        yield client.request("ds1", protocol.MSG_XA_ROLLBACK, {"xid": "x2"})

    env.process(coordinator())
    env.run()
    assert ds.engine.read("probe", "usertable", "bob").value == 10
    assert ds.transactions["x2"].state is TxnState.ABORTED


def test_a_read_batch_locks_its_record_and_result_latency_accounts_cost():
    env, net, ds, client = make_datasource(rtt_ms=20)
    ds.load_table("usertable", {"key": "value"})
    collected = {}

    def coordinator():
        result = yield execute(client, "x3", read_op("key"))
        collected["result"] = result

    env.process(coordinator())
    env.run()
    result = collected["result"]
    assert result.success
    assert ds.lock_manager.locks_held("x3") == {("usertable", "key")}
    assert result.local_execution_ms > 0
    assert ("usertable", "key") in result.records


@pytest.mark.parametrize("engine", ["mysql", "postgresql"])
def test_the_engine_name_picks_the_cost_row_a_batch_pays(engine):
    env = Environment()
    net = Network(env)
    ds = DataSource(env, net, DataSourceConfig(name="ds1", dialect=engine))
    net.set_link("client", "ds1", ConstantLatency(10.0))
    client = net.interface("client")
    ds.load_table("usertable", {"a": 1, "b": 2})
    collected = {}

    def coordinator():
        collected["result"] = yield execute(client, "x5", read_op("a"),
                                            write_op("b", 3))

    env.process(coordinator())
    env.run()
    read_ms, write_ms = COSTS.engine(engine)[:2]
    assert ds.dialect == engine
    assert collected["result"].local_execution_ms == pytest.approx(
        COSTS.datasource_request_ms + read_ms + write_ms)


def test_result_records_are_the_batch_distinct_ids_in_first_touch_order():
    env, net, ds, client = make_datasource()
    ds.load_table("usertable", {"a": 1, "b": 2, "c": 3})
    batch = [read_op("b"), write_op("a", 5), read_op("b"), write_op("c", 7),
             read_op("a")]
    collected = {}

    def coordinator():
        collected["result"] = yield execute(client, "x4", *batch)
        yield client.request("ds1", protocol.MSG_XA_PREPARE, {"xid": "x4"})

    env.process(coordinator())
    env.run()
    result = collected["result"]
    assert result.success and ds.stats.operations_executed == 5
    assert result.records == [("usertable", "b"), ("usertable", "a"),
                              ("usertable", "c")]
    # The very tuples the operations carry; the lock table keys on them too.
    assert result.records[0] is batch[0].record_id
    assert ds.lock_manager.locks_held("x4") == set(result.records)
    assert ds.transactions["x4"].state is TxnState.PREPARED


def test_lock_timeout_aborts_subtransaction():
    env, net, ds, client = make_datasource(lock_wait_timeout_ms=50)
    ds.load_table("usertable", {"hot": 0})
    outcomes = {}

    def holder():
        yield execute(client, "holder", write_op("hot", 1))
        # Keep the lock until well after the waiter times out.
        yield env.timeout(500)
        yield client.request("ds1", protocol.MSG_XA_ROLLBACK, {"xid": "holder"})

    def waiter():
        yield env.timeout(20)
        result = yield execute(client, "waiter", write_op("hot", 2))
        outcomes["waiter"] = result

    env.process(holder())
    env.process(waiter())
    env.run()
    assert not outcomes["waiter"].success
    assert outcomes["waiter"].abort_reason is AbortReason.LOCK_TIMEOUT
    assert outcomes["waiter"].records == []         # filled on success only
    assert ds.transactions["waiter"].state is TxnState.ABORTED


def test_commit_one_phase_for_centralized_transaction():
    env, net, ds, client = make_datasource()
    ds.load_table("usertable", {"k": 1})

    def coordinator():
        yield execute(client, "c1", write_op("k", 2))
        reply = yield client.request("ds1", protocol.MSG_COMMIT_ONE_PHASE, {"xid": "c1"})
        assert reply["status"] == "ok"

    env.process(coordinator())
    env.run()
    assert ds.engine.read("probe", "usertable", "k").value == 2
    assert ds.stats.commits == 1


def test_execute_on_unknown_transaction_fails():
    env, net, ds, client = make_datasource()
    collected = {}

    def coordinator():
        result = yield client.request("ds1", protocol.MSG_EXECUTE,
                                      {"xid": "ghost", "operations": [read_op("k")]})
        collected["result"] = result

    env.process(coordinator())
    env.run()
    assert not collected["result"].success


def test_commit_is_idempotent_for_recovery_retries():
    env, net, ds, client = make_datasource()
    ds.load_table("usertable", {"k": 1})
    replies = []

    def coordinator():
        yield execute(client, "x", write_op("k", 5))
        yield client.request("ds1", protocol.MSG_XA_PREPARE, {"xid": "x"})
        first = yield client.request("ds1", protocol.MSG_XA_COMMIT, {"xid": "x"})
        second = yield client.request("ds1", protocol.MSG_XA_COMMIT, {"xid": "x"})
        replies.extend([first, second])

    env.process(coordinator())
    env.run()
    assert replies[0]["status"] == "ok"
    assert replies[1]["status"] == "ok" and replies[1].get("already")
    assert ds.engine.read("p", "usertable", "k").version == 2  # committed exactly once


def test_rollback_after_commit_is_rejected():
    env, net, ds, client = make_datasource()
    ds.load_table("usertable", {"k": 1})
    replies = {}

    def coordinator():
        yield execute(client, "x", write_op("k", 5))
        yield client.request("ds1", protocol.MSG_XA_PREPARE, {"xid": "x"})
        yield client.request("ds1", protocol.MSG_XA_COMMIT, {"xid": "x"})
        replies["rollback"] = yield client.request("ds1", protocol.MSG_XA_ROLLBACK, {"xid": "x"})

    env.process(coordinator())
    env.run()
    assert replies["rollback"]["status"] == "error"


def test_xa_commit_of_an_unprepared_branch_is_refused():
    """A stray decision gets an error reply; it neither commits nor kills the run."""
    env, net, ds, client = make_datasource()
    ds.load_table("usertable", {"k": 1})
    replies = {}

    def coordinator():
        yield execute(client, "x", write_op("k", 5))
        replies["commit"] = yield client.request("ds1", protocol.MSG_XA_COMMIT,
                                                 {"xid": "x"})
        replies["rollback"] = yield client.request("ds1", protocol.MSG_XA_ROLLBACK,
                                                   {"xid": "x"})

    env.process(coordinator())
    env.run()
    assert replies["commit"] == {"status": "error", "error": "not committable"}
    assert replies["rollback"] == {"status": "ok"}
    assert ds.transactions["x"].state is TxnState.ABORTED
    assert ds.engine.read("p", "usertable", "k").value == 1
    assert ds.stats.commits == 0 and ds.stats.aborts == 1


def test_one_phase_commit_of_a_prepared_branch_is_refused():
    env, net, ds, client = make_datasource()
    ds.load_table("usertable", {"k": 1})
    replies = {}

    def coordinator():
        yield execute(client, "x", write_op("k", 5))
        yield client.request("ds1", protocol.MSG_XA_PREPARE, {"xid": "x"})
        replies["one_phase"] = yield client.request(
            "ds1", protocol.MSG_COMMIT_ONE_PHASE, {"xid": "x"})
        replies["commit"] = yield client.request("ds1", protocol.MSG_XA_COMMIT,
                                                 {"xid": "x"})

    env.process(coordinator())
    env.run()
    assert replies["one_phase"] == {"status": "error", "error": "not committable"}
    assert replies["commit"] == {"status": "ok"}
    assert ds.engine.read("p", "usertable", "k").value == 5


def test_list_prepared_reports_in_doubt_transactions():
    env, net, ds, client = make_datasource()
    ds.load_table("usertable", {"k": 1})
    collected = {}

    def coordinator():
        yield execute(client, "p1", write_op("k", 5))
        yield client.request("ds1", protocol.MSG_XA_PREPARE, {"xid": "p1"})
        reply = yield client.request("ds1", protocol.MSG_LIST_PREPARED, {})
        collected["prepared"] = reply["prepared"]

    env.process(coordinator())
    env.run()
    assert collected["prepared"] == ["p1"]


def test_crash_aborts_active_but_keeps_prepared_transactions():
    env, net, ds, client = make_datasource()
    ds.load_table("usertable", {"a": 1, "b": 2})

    def coordinator():
        # One prepared, one still active.
        yield execute(client, "prep", write_op("a", 10))
        yield client.request("ds1", protocol.MSG_XA_PREPARE, {"xid": "prep"})
        yield execute(client, "active", write_op("b", 20))
        yield client.request("ds1", protocol.MSG_CRASH, {})
        yield client.request("ds1", protocol.MSG_RESTART, {})

    env.process(coordinator())
    env.run()
    assert ds.transactions["prep"].state is TxnState.PREPARED
    assert ds.transactions["active"].state is TxnState.ABORTED
    assert ds.engine.read("p", "usertable", "b").value == 2


def test_crashed_node_refuses_requests_until_restart():
    """A crashed *process* refuses connections instead of staying silent.

    (Silence is the semantics of a network outage — ``Network.disrupt_node`` —
    not of a dead server process, whose OS resets incoming connections.)  The
    refusal shape matches what each verb's caller expects so coordinators can
    abort promptly: a failed SubtxnResult for execute, a NO vote for prepare,
    an error status otherwise.
    """
    env, net, ds, client = make_datasource()
    log = {}

    def coordinator():
        yield client.request("ds1", protocol.MSG_CRASH, {})
        log["ping"] = yield client.request("ds1", protocol.MSG_PING, {})
        log["execute"] = yield execute(client, "x9", write_op("a", 1))
        log["prepare"] = yield client.request("ds1", protocol.MSG_XA_PREPARE,
                                              {"xid": "x9"})
        yield client.request("ds1", protocol.MSG_RESTART, {})
        log["after"] = yield client.request("ds1", protocol.MSG_PING, {})

    env.process(coordinator())
    env.run(until=1000)
    assert log["ping"]["status"] == "error"
    assert not log["execute"].success
    assert log["execute"].abort_reason is AbortReason.UNAVAILABLE
    assert "x9" not in ds.transactions  # the refusal never opened a branch
    assert log["prepare"]["vote"] is Vote.NO
    assert log["after"]["status"] == "ok"  # restart restores normal service


def test_kv_interface_get_put_and_conditional_put():
    env, net, ds, client = make_datasource()
    ds.load_table("kv", {"x": "v0"})
    collected = {}

    def coordinator():
        get1 = yield client.request("ds1", protocol.MSG_KV_GET, {"table": "kv", "key": "x"})
        put = yield client.request("ds1", protocol.MSG_KV_PUT,
                                   {"table": "kv", "key": "x", "value": "v1"})
        conflict = yield client.request(
            "ds1", protocol.MSG_KV_PUT_IF_VERSION,
            {"table": "kv", "key": "x", "value": "v2", "expected_version": 1})
        ok = yield client.request(
            "ds1", protocol.MSG_KV_PUT_IF_VERSION,
            {"table": "kv", "key": "x", "value": "v2", "expected_version": put["version"]})
        missing = yield client.request("ds1", protocol.MSG_KV_GET, {"table": "kv", "key": "nope"})
        collected.update(get1=get1, put=put, conflict=conflict, ok=ok, missing=missing)

    env.process(coordinator())
    env.run()
    assert collected["get1"]["value"] == "v0"
    assert collected["put"]["status"] == "ok"
    assert collected["conflict"]["status"] == "conflict"
    assert collected["ok"]["status"] == "ok"
    assert not collected["missing"]["found"]


def test_unknown_verb_returns_error():
    env, net, ds, client = make_datasource()
    collected = {}

    def coordinator():
        reply = yield client.request("ds1", "bogus_verb", {})
        collected["reply"] = reply

    env.process(coordinator())
    env.run()
    assert collected["reply"]["status"] == "error"


def test_finished_transactions_are_evicted_beyond_retention():
    env, net, ds, client = make_datasource()
    ds.FINISHED_TXN_RETENTION = 8
    ds.load_table("usertable", {"carol": 1})

    def coordinator():
        for i in range(30):
            xid = f"r{i}"
            yield execute(client, xid, write_op("carol", i))
            yield client.request("ds1", protocol.MSG_COMMIT_ONE_PHASE,
                                 {"xid": xid})

    env.process(coordinator())
    env.run()
    # Only the newest `retention` finished transactions remain resident.
    assert len(ds.transactions) == 8
    assert "r29" in ds.transactions and "r0" not in ds.transactions
    # The data outcome of evicted transactions is durable regardless.
    assert ds.engine.read("probe", "usertable", "carol").value == 29


def test_in_doubt_transactions_survive_retention_pressure():
    env, net, ds, client = make_datasource()
    ds.FINISHED_TXN_RETENTION = 4

    def coordinator():
        # One branch parks in PREPARED (in doubt) ...
        yield execute(client, "doubt", write_op("k", 1))
        yield client.request("ds1", protocol.MSG_XA_END, {"xid": "doubt"})
        yield client.request("ds1", protocol.MSG_XA_PREPARE, {"xid": "doubt"})
        # ... while far more than `retention` transactions finish around it.
        for i in range(20):
            xid = f"f{i}"
            yield execute(client, xid, write_op("other", i))
            yield client.request("ds1", protocol.MSG_COMMIT_ONE_PHASE,
                                 {"xid": xid})

    env.process(coordinator())
    env.run()
    # Eviction only ever touches finished branches: the in-doubt one is
    # still resident for recovery, whatever the churn around it.
    assert ds.transactions["doubt"].state is TxnState.PREPARED
    assert len(ds.transactions) <= 4 + 1
