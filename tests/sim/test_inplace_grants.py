"""In-place grants: a lock that is free costs no queue entry.

``LockManager.acquire`` answers every request it can grant at once with one
shared, already-processed event.  These tests pin the processed-event
convention (who may rely on it is in ARCHITECTURE.md) and check, against a
reference that pushes every request through the ``LockRequest`` + ``Event``
path, that nothing observable moved.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.sim import Environment, Event
from repro.sim._kernel.locks import _LockEntry
from repro.storage.lock_manager import LockManager, LockMode, LockRequest

S, X = LockMode.SHARED, LockMode.EXCLUSIVE


# ------------------------------------------------------------------ the events
def test_free_lock_is_granted_without_touching_the_queue():
    env = Environment()
    lm = LockManager(env)
    event = lm.acquire("t1", "k", X)
    assert event.processed and event.ok and event.value == 0.0
    assert not env._soon and env._queue == []
    env.run()
    assert env.events_processed == 0
    assert lm.holders("k") == {"t1": X}
    assert lm.stats.acquisitions == 1 and lm.stats.waits == 0


def test_shares_and_reentrant_requests_are_granted_in_place_too():
    env = Environment()
    lm = LockManager(env)
    lm.acquire("t1", "k", S)
    assert lm.acquire("t2", "k", S).processed           # compatible share
    assert lm.acquire("t1", "k", S).processed           # re-entrant
    lm.acquire("t3", "other", S)
    assert lm.acquire("t3", "other", X).processed       # sole-holder upgrade
    assert lm.holders("other") == {"t3": X}
    assert lm.acquire("t3", "other", S).processed       # X is never downgraded
    assert lm.holders("other") == {"t3": X}
    assert not env._soon and env.events_processed == 0
    assert lm.stats.acquisitions == 6


def test_waiting_requests_still_get_their_own_event():
    env = Environment()
    lm = LockManager(env)
    granted = lm.acquire("t1", "k", X)
    waiting = lm.acquire("t2", "k", X)
    queued_behind = lm.acquire("t3", "k", S)
    assert waiting is not granted and not waiting.triggered
    assert queued_behind is not granted and not queued_behind.triggered
    lm.release_all("t1")
    env.run(until=env.now)
    assert waiting.processed and waiting.value == 0.0
    assert lm.holders("k") == {"t2": X}


def test_a_process_consumes_the_grant_inline():
    env = Environment()
    lm = LockManager(env)
    seen = []

    def proc():
        seen.append((yield lm.acquire("t1", "a", X)))
        seen.append((yield lm.acquire("t1", "b", S)))
        yield 1.0
        seen.append(env.now)

    env.process(proc(), daemon=True)
    assert seen == [0.0, 0.0]       # both grants read before the first suspend
    env.run()
    assert seen == [0.0, 0.0, 1.0]
    assert env.events_processed == 1    # the sleep, nothing else


def test_the_shared_granted_event_is_never_mutated():
    env = Environment()
    lm = LockManager(env)
    first = lm.acquire("t1", "a", X)

    def proc():
        yield lm.acquire("t2", "b", X)
        yield lm.acquire("t2", "a", X, timeout_ms=5.0)   # waits, then times out

    process = env.process(proc())
    process.defused = True
    env.run()
    assert lm.stats.timeouts == 1
    again = lm.acquire("t3", "e", X)
    assert again is first
    assert (again.callbacks, again.ok, again.value, again.defused) == (None, True, 0.0, False)


# --------------------------------------------------------------- differential
def reference_acquire(lm, txn_id, key, mode, timeout_ms=None):
    """``acquire`` as it was before in-place grants: a request that can be
    granted at once still gets a ``LockRequest`` and an ``Event`` and goes
    through ``_grant``, like a waiter.  (A request that must wait takes the
    one waiting path there is.)  A record nobody knows yet gets an *empty*
    entry and is checked by ``_can_grant`` like any other — the slow
    definition of the brand-new-entry grant, which skips the check."""
    entry = lm._locks.get(key)
    if entry is None:
        lm._locks[key] = entry = _LockEntry({})
    if not lm._can_grant(entry, txn_id, mode):
        return lm.acquire(txn_id, key, mode, timeout_ms)
    request = LockRequest(txn_id=txn_id, key=key, mode=mode,
                          event=Event(lm.env), requested_at=lm.env.now)
    lm._grant(entry, request)
    return request.event


class _Side:
    """One lock manager under test plus the outcomes its events reported."""

    def __init__(self, in_place: bool):
        self.env = Environment()
        self.lm = LockManager(self.env, lock_wait_timeout_ms=20.0)
        self.in_place = in_place
        self.outcomes = []

    def acquire(self, ident, txn, key, mode, timeout_ms):
        if self.in_place:
            event = self.lm.acquire(txn, key, mode, timeout_ms)
        else:
            event = reference_acquire(self.lm, txn, key, mode, timeout_ms)

        def report(fired):
            if fired.ok:
                self.outcomes.append((ident, "granted", fired.value))
            else:
                fired.defused = True
                self.outcomes.append((ident, type(fired.value).__name__,
                                      getattr(fired.value, "waited_ms", None)))

        if event.callbacks is None:
            report(event)
        else:
            event.callbacks.append(report)

    def settle(self, dt=0.0):
        self.env.run(until=self.env.now + dt)

    def state(self):
        lm = self.lm
        stats = lm.stats
        return {
            "now": self.env.now,
            # Holders straight from the entries, in their own (grant) order.
            "locks": {key: (list(entry.holders.items()),
                            [request.txn_id for request in entry.queue])
                      for key, entry in lm._locks.items()},
            "held": {txn: list(keys) for txn, keys in lm._held_by_txn.items()},
            "stats": (stats.acquisitions, stats.waits, stats.timeouts,
                      stats.total_wait_ms),
            "outcomes": self.outcomes,
        }


TXNS = st.sampled_from(["t1", "t2", "t3", "t4"])
KEYS = st.sampled_from(["a", "b", "c"])


class InPlaceGrantsMatchTheRequestPath(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.fast = _Side(True)
        self.reference = _Side(False)
        self.next_ident = 0

    @rule(txn=TXNS, key=KEYS, mode=st.sampled_from([S, X]),
          timeout_ms=st.sampled_from([None, 3.0, 7.5, float("inf")]))
    def acquire(self, txn, key, mode, timeout_ms):
        self.next_ident += 1
        for side in (self.fast, self.reference):
            side.acquire(self.next_ident, txn, key, mode, timeout_ms)
            side.settle()

    @rule(txn=TXNS)
    def release_all(self, txn):
        for side in (self.fast, self.reference):
            side.lm.release_all(txn)
            side.settle()

    @rule(dt=st.sampled_from([0.5, 1.0, 4.0, 25.0]))
    def let_time_pass(self, dt):
        for side in (self.fast, self.reference):
            side.settle(dt)

    @invariant()
    def nothing_observable_differs(self):
        assert self.fast.state() == self.reference.state()
        granted = self.fast.lm._granted
        assert (granted.callbacks, granted.ok, granted.value) == (None, True, 0.0)
        for side in (self.fast, self.reference):
            for key, entry in side.lm._locks.items():
                assert type(entry.holders) is dict
                assert entry.holders or entry.queue, f"empty entry left for {key!r}"
                assert side.lm.holders(key) == entry.holders
        # What the fast path saves is exactly the dispatches to nobody.
        assert self.fast.env.events_processed <= self.reference.env.events_processed


InPlaceGrantsMatchTheRequestPath.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
test_in_place_grants_match_the_request_path = InPlaceGrantsMatchTheRequestPath.TestCase
