"""Unit tests for the Resource primitive."""

import pytest

from repro.sim import Environment, Resource


def test_resource_grants_up_to_capacity_immediately():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []

    def user(name):
        req = res.request()
        yield req
        granted.append((env.now, name))
        yield env.timeout(10)
        res.release(req)

    env.process(user("a"))
    env.process(user("b"))
    env.process(user("c"))
    env.run()
    # a and b start at 0, c must wait for a release at t=10.
    assert granted == [(0, "a"), (0, "b"), (10, "c")]


def test_resource_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(name):
        with res.request() as req:
            yield req
            order.append((env.now, name))
            yield env.timeout(5)

    env.process(user("first"))
    env.process(user("second"))
    env.run()
    assert order == [(0, "first"), (5, "second")]
    assert res.count == 0


def test_resource_queue_length_counts_waiters():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        req = res.request()
        yield req
        yield env.timeout(100)
        res.release(req)

    def waiter():
        req = res.request()
        yield req
        res.release(req)

    env.process(holder())
    env.process(waiter())
    env.process(waiter())
    env.run(until=1)
    assert res.queue_length == 2
    env.run()
    assert res.queue_length == 0


def test_resource_cancel_withdraws_waiting_request():
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.request()
    second = res.request()
    assert res.queue_length == 1
    second.cancel()
    assert res.queue_length == 0
    res.release(first)
    assert not second.triggered

