"""Focused unit tests for the geo-agent's forwarding and peer-abort behaviour."""

from repro import protocol
from repro.common import Operation, OpType
from repro.core import GeoAgent
from repro.sim import ConstantLatency, Environment, Network
from repro.storage import DataSource, DataSourceConfig


def build_agent_pair():
    """One data source with its geo-agent plus a fake coordinator endpoint."""
    env = Environment()
    net = Network(env)
    ds = DataSource(env, net, DataSourceConfig(name="ds0"))
    ds.load_table("usertable", {k: {"v": 0} for k in range(10)})
    agent = GeoAgent(env, net, "agent-ds0", "ds0")
    net.set_link("agent-ds0", "ds0", ConstantLatency(0.5))
    net.set_link("dm", "agent-ds0", ConstantLatency(20))
    coordinator = net.interface("dm")
    # The fake coordinator drops the agent's asynchronous state reports
    # unless a test installs its own listener.
    coordinator.inbox.set_consumer(lambda message: None)
    return env, net, ds, agent, coordinator


def update(key, value=1):
    return Operation(op_type=OpType.UPDATE, table="usertable", key=key, value={"v": value})


def test_agent_forwards_plain_xa_verbs_transparently():
    env, net, ds, agent, dm = build_agent_pair()
    replies = {}

    def driver():
        replies["ping"] = yield dm.request("agent-ds0", protocol.MSG_PING, {})
        replies["listing"] = yield dm.request("agent-ds0", protocol.MSG_LIST_PREPARED,
                                              {})

    env.process(driver())
    env.run()
    assert replies["ping"]["status"] == "ok"
    assert replies["listing"] == {"prepared": []}
    assert agent.stats.forwarded == 2


def test_agent_answers_a_verb_nothing_sends_it_as_unknown():
    # A key-value read goes to a data source directly (ScalarDB runs without
    # agents), so an agent forwards no kv verb.
    env, net, ds, agent, dm = build_agent_pair()
    replies = {}

    def driver():
        replies["kv_get"] = yield dm.request("agent-ds0", protocol.MSG_KV_GET,
                                             {"table": "usertable", "key": 1})

    env.process(driver())
    env.run()
    assert replies["kv_get"] == {"status": "error",
                                 "error": f"unknown verb {protocol.MSG_KV_GET}"}
    assert agent.stats.forwarded == 0


def test_agent_execute_with_last_statement_sends_async_prepared_vote():
    # No opt-in flag: ``is_last`` alone starts the decentralized prepare.
    env, net, ds, agent, dm = build_agent_pair()
    votes = []

    def vote_listener(message):
        if message.msg_type == protocol.MSG_AGENT_PREPARE_RESULT:
            votes.append(message.payload["state"])

    dm.inbox.set_consumer(vote_listener)

    def driver():
        result = yield dm.request("agent-ds0", protocol.MSG_AGENT_EXECUTE, {
            "xid": "g1", "operations": [update(1)],
            "auto_start": True, "is_last": True,
            "peers": ["agent-ds1"], "coordinator": "dm"})
        assert result.success

    env.process(driver())
    env.run(until=500)
    assert votes == [protocol.STATE_PREPARED]
    assert agent.stats.decentralized_prepares == 1


def test_agent_centralized_transaction_reports_idle_instead_of_preparing():
    env, net, ds, agent, dm = build_agent_pair()
    votes = []
    dm.inbox.set_consumer(lambda message: votes.append(message.payload["state"]))

    def driver():
        yield dm.request("agent-ds0", protocol.MSG_AGENT_EXECUTE, {
            "xid": "g2", "operations": [update(2)],
            "auto_start": True, "is_last": True,
            "peers": [], "coordinator": "dm"})

    env.process(driver())
    env.run(until=500)
    assert votes == [protocol.STATE_IDLE]
    assert agent.stats.decentralized_prepares == 0


def test_peer_rollback_before_execute_poisons_the_transaction():
    env, net, ds, agent, dm = build_agent_pair()
    net.set_link("peer", "agent-ds0", ConstantLatency(2))
    peer = net.interface("peer")
    outcomes = {}

    def driver():
        # The peer's early-abort notification arrives before the execute.
        peer.send("agent-ds0", protocol.MSG_PEER_ROLLBACK,
                  {"xid": "g3", "coordinator": "dm"})
        yield env.timeout(10)
        result = yield dm.request("agent-ds0", protocol.MSG_AGENT_EXECUTE, {
            "xid": "g3", "operations": [update(3)],
            "auto_start": True, "is_last": True,
            "peers": ["peer"], "coordinator": "dm"})
        outcomes["result"] = result

    env.process(driver())
    env.run(until=500)
    result = outcomes["result"]
    assert not result.success
    # The poisoned transaction never executed, so the record is untouched.
    assert ds.engine.read("p", "usertable", 3).value == {"v": 0}
    assert agent.stats.peer_rollbacks_handled == 1


def test_agent_bookkeeping_is_bounded_by_xid_retention():
    env, net, ds, agent, dm = build_agent_pair()
    agent.XID_RETENTION = 16

    def driver():
        for i in range(100):
            yield dm.request("agent-ds0", protocol.MSG_AGENT_EXECUTE, {
                "xid": f"g{i}", "operations": [update(i % 10)], "auto_start": True,
                "is_last": False, "peers": [], "coordinator": "dm"})
            yield dm.request("agent-ds0", protocol.MSG_COMMIT_ONE_PHASE,
                             {"xid": f"g{i}"})

    env.process(driver())
    env.run()
    # 100 transactions flowed through; only the newest ids are remembered.
    assert len(agent._seen) <= 16
    assert len(agent._xid_order) <= 16
    assert "g99" in agent._seen and "g0" not in agent._seen


def test_peer_rollback_for_forgotten_id_takes_the_poison_path():
    env, net, ds, agent, dm = build_agent_pair()
    agent.XID_RETENTION = 16

    def driver():
        # A rollback for an id this agent has never seen (or long forgot).
        net.interface("peer").send("agent-ds0", protocol.MSG_PEER_ROLLBACK,
                                   {"xid": "ancient", "coordinator": "dm"})
        yield env.timeout(50)

    net.set_link("peer", "agent-ds0", ConstantLatency(1))
    env.process(driver())
    env.run()
    assert "ancient" in agent._poisoned
    assert agent.stats.peer_rollbacks_handled == 1
