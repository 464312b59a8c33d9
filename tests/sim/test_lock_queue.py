"""A request that leaves a lock queue unblocks the compatible waiters behind it.

Pinned as an expected failure: ``LockManager._expire`` and the withdrawal of
pending requests in ``LockManager.release_all`` take a queued request out but
never call ``_grant_waiters``.  A shared request queued behind an expired or
withdrawn exclusive one therefore stays blocked behind a compatible holder
until its own timeout.  The fix moves simulated results, so it lands with
ROADMAP item 8's re-pin.
"""

import pytest

from repro.sim import Environment
from repro.sim._kernel.environment import WHEEL_GRANULARITY_MS
from repro.storage.lock_manager import LockManager, LockMode

S, X = LockMode.SHARED, LockMode.EXCLUSIVE


@pytest.mark.xfail(strict=True, reason="a request leaving the queue does not "
                   "grant the waiters behind it (ROADMAP item 8)")
@pytest.mark.parametrize("leaves, at_ms", [("expired", 100.0),
                                           ("withdrawn", 50.0)])
def test_a_reader_behind_a_departed_writer_is_granted_at_once(leaves, at_ms):
    env = Environment()
    lm = LockManager(env)
    lm.acquire("t1", "k", S)
    writer = lm.acquire("t2", "k", X, timeout_ms=100.0)
    reader = lm.acquire("t3", "k", S, timeout_ms=1_000.0)
    writer.defused = reader.defused = True
    if leaves == "withdrawn":
        # t2 aborts while it waits: its pending request is withdrawn.
        env.call_at(at_ms, lm.release_all, "t2")
    env.run()
    assert reader.ok, "the reader waited out its own timeout"
    assert reader.value <= at_ms + WHEEL_GRANULARITY_MS
    assert lm.holders("k") == {"t1": S, "t3": S}
