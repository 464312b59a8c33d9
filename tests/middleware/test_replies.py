"""``Replies``: the one way a coordinator waits for N replies.

Every N-way wait of a round (the execute fan-out, prepare votes, decision
acks, ScalarDB's reads and conditional writes) fills the slots of one
``Replies``; its ``done`` event fires once, with the values in slot order.
"""

from repro.middleware.middleware import Replies
from repro.sim import Environment
from repro.storage.lock_manager import LockManager, LockMode


def test_an_empty_round_fires_at_once_with_no_values():
    env = Environment()
    replies = Replies(env, 0)
    got = []

    def proc():
        got.append((yield replies.done))
        got.append(env.now)

    env.process(proc())
    env.run()
    assert got == [[], 0.0]


def test_values_land_in_slot_order_whatever_order_the_replies_arrive_in():
    env = Environment()
    replies = Replies(env, 3)
    late, early = env.timeout(25.0, value="late"), env.timeout(10.0, value="early")
    replies.watch(0, late)
    replies.watch(1, early)
    env.call_at(15.0, replies.put, 2, "put")
    got = []

    def proc():
        got.append((yield replies.done))
        got.append(env.now)

    env.process(proc())
    env.run(until=20.0)
    assert not replies.done.triggered and replies.missing == 1
    env.run()
    assert got == [["late", "early", "put"], 25.0]


def test_a_slot_watching_an_already_processed_event_fills_at_once():
    env = Environment()
    lm = LockManager(env)
    granted = lm.acquire("t1", "a", LockMode.EXCLUSIVE)
    assert granted.processed       # the lock manager's shared granted event
    replies = Replies(env, 2)
    replies.watch(0, granted)
    assert replies.missing == 1 and replies.values[0] == 0.0
    replies.watch(1, lm.acquire("t1", "b", LockMode.SHARED))
    assert replies.done.triggered and replies.done.value == [0.0, 0.0]
    assert granted.callbacks is None and granted.value == 0.0
