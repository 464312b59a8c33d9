"""Tests for the engine fast paths: lightweight timers, lazy cancellation,
heap compaction and daemon processes."""

import pytest

from repro.sim import EmptySchedule, Environment


# ------------------------------------------------------------------- call_at
def test_call_at_fires_at_the_scheduled_time():
    env = Environment()
    fired = []
    env.call_at(5.0, lambda: fired.append(env.now))
    env.call_at(2.0, lambda: fired.append(env.now))
    env.run()
    assert fired == [2.0, 5.0]


def test_call_at_orders_like_an_equally_timed_timeout():
    env = Environment()
    order = []

    def waiter():
        yield env.timeout(3.0)
        order.append("timeout")

    env.process(waiter())
    env.call_at(3.0, lambda: order.append("timer"))
    env.run()
    # Run-to-first-yield: the process body executed inline at spawn time, so
    # its timeout entered the queue *before* the call_at timer; FIFO order at
    # equal times puts the timeout first.  (The pre-reordering engine deferred
    # the process body to an init event and the timer won instead.)
    assert order == ["timeout", "timer"]


def test_cancelled_timer_never_fires_and_clock_still_advances_past_live_events():
    env = Environment()
    fired = []
    timer = env.call_at(10.0, lambda: fired.append("dead"))
    env.call_at(20.0, lambda: fired.append("alive"))
    timer.cancel()
    assert timer.cancelled
    env.run()
    assert fired == ["alive"]
    assert env.now == 20.0


def test_cancel_is_idempotent():
    env = Environment()
    timer = env.call_at(1.0, lambda: None)
    timer.cancel()
    timer.cancel()
    env.run()


def test_heap_compaction_bounds_queue_growth():
    env = Environment()
    # Schedule and immediately cancel many far-future timers; lazy deletion
    # plus compaction must keep the heap from growing linearly.
    for _ in range(1000):
        env.call_at(1e6, lambda: None).cancel()
    assert len(env._queue) < 200


def test_peek_skips_cancelled_entries():
    env = Environment()
    dead = env.call_at(1.0, lambda: None)
    env.call_at(7.0, lambda: None)
    dead.cancel()
    assert env.peek() == 7.0


def test_step_skips_cancelled_entries_and_raises_when_empty():
    env = Environment()
    dead = env.call_at(1.0, lambda: None)
    dead.cancel()
    with pytest.raises(EmptySchedule):
        env.step()


# ------------------------------------------------------------------- daemons
def test_daemon_process_completion_skips_the_heap():
    env = Environment()

    def worker():
        yield env.timeout(1.0)
        return "done"

    process = env.process(worker(), daemon=True)
    env.run()
    assert not process.is_alive
    assert process.processed
    assert process.value == "done"
    assert env._queue == []


def test_daemon_process_with_subscriber_still_resumes_it():
    env = Environment()
    results = []

    def worker():
        yield env.timeout(1.0)
        return 42

    def waiter(proc):
        value = yield proc
        results.append(value)

    process = env.process(worker(), daemon=True)
    env.process(waiter(process))
    env.run()
    assert results == [42]


def test_daemon_process_failure_still_surfaces():
    env = Environment()

    def boom():
        yield env.timeout(1.0)
        raise RuntimeError("daemon failed")

    env.process(boom(), daemon=True)
    with pytest.raises(RuntimeError, match="daemon failed"):
        env.run()


def test_non_daemon_completion_is_observable_before_dispatch():
    env = Environment()

    def worker():
        yield env.timeout(1.0)
        return "v"

    process = env.process(worker())
    env.run()
    assert process.processed and process.value == "v"


# ------------------------------------------------------------ event counting
def test_events_processed_counts_events_and_timers():
    env = Environment()
    fired = []
    env.call_at(1.0, lambda: fired.append(1))

    def proc():
        yield 2.0

    env.process(proc())
    env.run()
    # call_at timer + sleep wake-up + process completion; run-to-first-yield
    # spawn means there is no init event to count any more.
    assert env.events_processed == 3


# ------------------------------------------------- reference-cycle hygiene
def test_wheel_timer_forgets_its_args_and_bucket_when_cancelled_or_fired():
    env = Environment()
    owner = []                       # stands in for a LockRequest
    cancelled = env.call_coarse(5.0, owner.append, owner)
    fired = env.call_coarse(5.0, owner.append, "fired")
    bucket = fired._bucket
    cancelled.cancel()
    assert cancelled.args == () and cancelled._bucket is None
    assert bucket.env is env, "a live timer still needs the tick"
    env.run()
    assert owner == ["fired"]
    assert fired.args == () and fired._bucket is None
    assert bucket.env is None

    last = env.call_coarse(5.0, owner.append, "never")
    bucket = last._bucket
    last.cancel()                    # the tick's last live timer
    assert bucket.env is None and env.peek() == float("inf")


def test_close_runs_finalisers_drops_pending_work_and_is_idempotent():
    env = Environment()
    finalised = []

    def child():
        try:
            yield env.event()        # never fires
        finally:
            finalised.append("child")

    def parent():
        try:
            yield env.process(child())
        finally:
            finalised.append("parent")

    def sleeper():
        yield 10.0

    def done():
        return
        yield

    processes = [env.process(parent()), env.process(sleeper())]
    env.process(done())
    env.call_coarse(5.0, finalised.append, "timer")
    assert len(env._alive) == 3, "suspended processes only"
    env.run(until=1.0)
    env.close()
    env.close()
    assert sorted(finalised) == ["child", "parent"]
    assert not env._alive and env.peek() == float("inf")
    assert all(p._target is None and p.callbacks is None for p in processes)
    assert env.now == 1.0
    with pytest.raises(RuntimeError, match="closed"):
        env.process(sleeper())
