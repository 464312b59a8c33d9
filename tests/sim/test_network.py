"""Unit tests for the point-to-point network model."""

import pytest

from repro.sim import ConstantLatency, Environment, Network


def make_net(rtt_ab=100.0):
    env = Environment()
    net = Network(env)
    net.set_link("a", "b", ConstantLatency(rtt_ab))
    a = net.interface("a")
    b = net.interface("b")
    return env, net, a, b


def record_arrivals(env, iface):
    """Install a handler on ``iface`` that logs ``(now, msg_type)`` per message."""
    received = []
    iface.inbox.set_consumer(
        lambda msg: received.append((env.now, msg.msg_type)))
    return received


def test_send_delivers_after_one_way_delay():
    env, net, a, b = make_net(rtt_ab=100)
    received = []
    b.inbox.set_consumer(
        lambda msg: received.append((env.now, msg.msg_type, msg.payload)))

    def sender():
        yield env.timeout(0)
        a.send("b", "hello", payload=123)

    env.process(sender())
    env.run()
    assert received == [(50.0, "hello", 123)]


def test_send_to_self_has_zero_delay():
    env, net, a, b = make_net()
    received = record_arrivals(env, a)
    a.send("a", "loopback")
    assert received == []  # delivered by the dispatch loop, not inline
    env.run()
    assert received == [(0.0, "loopback")]


def test_send_to_unknown_node_raises():
    env, net, a, b = make_net()
    with pytest.raises(KeyError):
        a.send("nowhere", "x")


def test_send_to_a_node_without_a_handler_names_the_node():
    env, net, a, b = make_net()
    with pytest.raises(RuntimeError, match="'b' has no message handler"):
        a.send("b", "x")
    assert net.stats.messages_sent == 0


def test_request_reply_takes_full_round_trip():
    env, net, a, b = make_net(rtt_ab=100)
    results = []
    b.inbox.set_consumer(lambda msg: b.reply(msg, msg.payload * 2))

    def client():
        value = yield a.request("b", "double", payload=21)
        results.append((env.now, value))

    env.process(client())
    env.run(until=1000)
    assert results == [(100.0, 42)]


def test_request_reply_includes_server_processing_time():
    env, net, a, b = make_net(rtt_ab=100)
    results = []
    b.inbox.set_consumer(lambda msg: env.call_at(7, b.reply, msg, "ok"))

    def client():
        value = yield a.request("b", "work")
        results.append(env.now)

    env.process(client())
    env.run()
    assert results == [pytest.approx(107.0)]


def test_rtt_between_nodes_reported():
    env, net, a, b = make_net(rtt_ab=73)
    assert net.rtt("a", "b") == 73
    assert net.rtt("b", "a") == 73
    assert net.rtt("a", "a") == 0
    assert a.rtt_to("b") == 73


def test_asymmetric_link_when_requested():
    env = Environment()
    net = Network(env)
    net.set_link("x", "y", ConstantLatency(10), symmetric=False)
    net.set_link("y", "x", ConstantLatency(30), symmetric=False)
    assert net.rtt("x", "y") == 10
    assert net.rtt("y", "x") == 30


def test_default_link_model_applies_to_unknown_pairs():
    env = Environment()
    net = Network(env, default_rtt_ms=8)
    net.interface("p")
    net.interface("q")
    assert net.rtt("p", "q") == 8


def test_network_stats_count_messages_by_type():
    env, net, a, b = make_net()
    received = record_arrivals(env, b)
    a.send("b", "ping")
    a.send("b", "ping")
    a.send("b", "data")
    env.run(until=500)
    assert len(received) == 3
    assert net.stats.messages_sent == 3
    assert net.stats.messages_by_type["ping"] == 2
    assert net.stats.messages_by_type["data"] == 1


def test_reply_without_request_rejected():
    env, net, a, b = make_net()
    received = []
    b.inbox.set_consumer(received.append)
    a.send("b", "one_way")
    env.run()
    with pytest.raises(ValueError):
        b.reply(received[0], "oops")


# ------------------------------------------------------------- fault support
def test_disrupted_node_parks_messages_and_releases_them_on_heal():
    env, net, a, b = make_net(rtt_ab=100)
    received = record_arrivals(env, b)

    def sender():
        net.disrupt_node("b")
        a.send("b", "during_outage")
        a.send("b", "also_during")
        yield env.timeout(300)
        net.restore_node("b")
        yield env.timeout(0)

    env.process(sender())
    env.run(until=1000)
    # Released in park order, redelivered one link delay after the heal.
    assert received == [(350.0, "during_outage"), (350.0, "also_during")]
    assert net.stats.messages_parked == 2


def test_outage_parks_the_reply_leg_of_an_rpc_in_flight():
    """An RPC whose request got through still stalls on the blocked reply."""
    env, net, a, b = make_net(rtt_ab=100)
    events = {}

    def server(msg):
        # The outage strikes while the request is being processed.
        net.disrupt_node("b")
        b.reply(msg, "pong")

    b.inbox.set_consumer(server)

    def client():
        reply = yield a.request("b", "ping")
        events["replied_at"] = (env.now, reply)

    def healer():
        yield env.timeout(400)
        net.restore_node("b")

    env.process(client())
    env.process(healer())
    env.run(until=2000)
    # Request arrives at t=50, reply parked, healed at 400, redelivered +50.
    assert events["replied_at"] == (450.0, "pong")


def test_partitioned_link_is_directional_pairs_and_heals():
    env, net, a, b = make_net(rtt_ab=100)
    net.set_link("a", "c", ConstantLatency(10.0))
    c = net.interface("c")
    received = []
    for iface in (b, c):
        iface.inbox.set_consumer(lambda msg: received.append(
            (env.now, msg.recipient, msg.msg_type)))

    def sender():
        net.disrupt_link("a", "b")
        a.send("b", "blocked")
        a.send("c", "unaffected")   # other links keep flowing
        yield env.timeout(100)
        net.restore_link("a", "b")
        yield env.timeout(0)

    env.process(sender())
    env.run(until=1000)
    assert (5.0, "c", "unaffected") in received
    assert (150.0, "b", "blocked") in received


def test_degraded_node_multiplies_link_delay_and_heals():
    env, net, a, b = make_net(rtt_ab=100)
    received = record_arrivals(env, b)

    def sender():
        net.degrade_node("b", 3.0)
        a.send("b", "slow")          # 50 ms one-way becomes 150 ms
        yield env.timeout(200)
        net.degrade_node("b", 1.0)   # heal
        a.send("b", "fast")
        yield env.timeout(0)

    env.process(sender())
    env.run(until=1000)
    assert received == [(150.0, "slow"), (250.0, "fast")]
    assert net._faults is None  # fully healed networks drop the fault state


def test_released_messages_still_honour_other_active_disruptions():
    """Healing one outage must not tunnel traffic through another one.

    A message parked under the *source* node's outage is re-intercepted on
    release: if its destination is still down, it re-parks there and is only
    delivered once that outage heals too.
    """
    env, net, a, b = make_net(rtt_ab=100)
    received = record_arrivals(env, b)

    def sender():
        net.disrupt_node("a")          # source down first: parks under "a"
        net.disrupt_node("b")
        a.send("b", "caught_twice")
        yield env.timeout(200)
        net.restore_node("a")          # destination is still down
        yield env.timeout(200)
        net.restore_node("b")
        yield env.timeout(0)

    env.process(sender())
    env.run(until=2000)
    # Released at t=200 but re-parked under b's outage; delivered one link
    # delay after b heals at t=400, never inside b's outage window.
    assert received == [(450.0, "caught_twice")]
    assert net.stats.messages_parked == 2  # parked once per disruption
    assert net._faults is None


def test_one_way_partition_parks_only_the_cut_direction():
    env, net, a, b = make_net(rtt_ab=100)
    received = []
    for iface in (a, b):
        iface.inbox.set_consumer(
            lambda msg: received.append((env.now, msg.msg_type)))

    def sender():
        net.disrupt_link("a", "b", symmetric=False)
        a.send("b", "a_to_b")
        b.send("a", "b_to_a")       # the reverse link still flows
        yield env.timeout(100)
        net.restore_link("a", "b", symmetric=False)
        yield env.timeout(0)

    env.process(sender())
    env.run(until=1000)
    assert received == [(50.0, "b_to_a"), (150.0, "a_to_b")]
    assert net.stats.messages_parked == 1
    assert net._faults is None


def test_a_node_cut_twice_is_released_by_one_heal():
    env, net, a, b = make_net(rtt_ab=100)
    received = record_arrivals(env, b)

    def sender():
        net.disrupt_node("b")
        a.send("b", "first")
        net.disrupt_node("b")       # already cut: the cut is not stacked
        a.send("b", "second")
        yield env.timeout(100)
        net.restore_node("b")
        yield env.timeout(0)

    env.process(sender())
    env.run(until=1000)
    assert received == [(150.0, "first"), (150.0, "second")]
    assert net._faults is None


def test_healing_what_was_never_cut_changes_nothing():
    env, net, a, b = make_net(rtt_ab=100)
    net.restore_node("b")
    net.restore_link("a", "b")
    assert net._faults is None
    received = record_arrivals(env, b)

    def sender():
        net.disrupt_node("b")
        a.send("b", "parked")
        net.restore_node("a")        # a is not cut
        net.restore_link("a", "b")   # nor is the a-b link
        yield env.timeout(100)
        net.restore_node("b")
        yield env.timeout(0)

    env.process(sender())
    env.run(until=1000)
    # The unrelated heals neither released nor lost the parked message.
    assert received == [(150.0, "parked")]
    assert net.stats.messages_parked == 1
    assert net._faults is None


def test_degrade_factor_below_one_rejected():
    env, net, a, b = make_net()
    with pytest.raises(ValueError):
        net.degrade_node("b", 0.5)
