"""Tests for the ordering-relaxed engine fast paths: run-to-first-yield
processes, the same-time microqueue, the sleep fast path and the hashed
timer wheel."""

import pytest

from repro.sim import EmptySchedule, Environment, Interrupt, Network


# -------------------------------------------------------- run-to-first-yield
def test_process_body_runs_inline_until_first_yield():
    env = Environment()
    log = []

    def proc():
        log.append("started")
        yield env.timeout(1)
        log.append("resumed")

    env.process(proc())
    # The body ran to its first yield during env.process(), before env.run().
    assert log == ["started"]
    env.run()
    assert log == ["started", "resumed"]


def test_no_yield_process_completes_at_spawn():
    env = Environment()

    def instant():
        return "done"
        yield  # pragma: no cover - makes this a generator

    p = env.process(instant())
    assert not p.is_alive
    assert p.value == "done"
    # Completion is still dispatched through the queue for subscribers.
    assert env.run(until=p) == "done"


def test_no_yield_daemon_process_is_processed_in_place():
    env = Environment()

    def instant():
        return 7
        yield  # pragma: no cover

    p = env.process(instant(), daemon=True)
    assert p.processed and p.value == 7
    assert env._queue == [] and not env._soon


def test_exception_before_first_yield_propagates_via_run():
    env = Environment()

    def boom():
        raise ValueError("early boom")
        yield  # pragma: no cover

    p = env.process(boom())
    assert not p.is_alive  # failed already, surfaced at dispatch
    with pytest.raises(ValueError, match="early boom"):
        env.run()


def test_exception_before_first_yield_reaches_a_waiter():
    env = Environment()
    caught = []

    def boom():
        raise ValueError("early boom")
        yield  # pragma: no cover

    def waiter():
        try:
            yield env.process(boom())
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run()
    assert caught == ["early boom"]


def test_spawner_stays_active_process_after_inline_child_start():
    env = Environment()
    seen = []

    def child():
        yield env.timeout(1)

    def parent():
        env.process(child())
        seen.append(env.active_process)
        yield env.timeout(1)

    p = env.process(parent())
    env.run()
    assert seen == [p]


# ------------------------------------------------------------ sleep fast path
def test_yield_number_matches_timeout_semantics():
    env = Environment()
    log = []

    def sleeper():
        got = yield 5.0
        log.append((env.now, got))

    env.process(sleeper())
    env.run()
    assert log == [(5.0, None)]


def test_interrupt_during_sleep_cancels_the_pending_wake():
    env = Environment()
    log = []

    def victim():
        try:
            yield 100.0
            log.append("slept")
        except Interrupt:
            log.append(("interrupted", env.now))
        yield 50.0
        log.append(("second sleep done", env.now))

    def attacker(proc):
        yield 10.0
        proc.interrupt()

    p = env.process(victim())
    env.process(attacker(p))
    env.run()
    # The stale 100 ms wake must not resume the process a second time; the
    # post-interrupt 50 ms sleep runs exactly once.
    assert log == [("interrupted", 10.0), ("second sleep done", 60.0)]


def test_stale_sleep_entry_cannot_fire_a_rearmed_carrier_early():
    # Regression: interrupt() used to keep the defused carrier, so a later
    # sleep re-armed the SAME object and the stale heap entry (here t=100)
    # woke the process early and swallowed the real wake-up.
    env = Environment()
    log = []

    def victim():
        try:
            yield 100.0  # carrier buried in the heap at t=100
        except Interrupt:
            pass
        yield 5.0        # t=15
        yield 60.0       # t=75
        yield 60.0       # must wake at t=135, not at the stale t=100
        log.append(env.now)

    def attacker(proc):
        yield 10.0
        proc.interrupt()

    p = env.process(victim())
    env.process(attacker(p))
    env.run()
    assert log == [135.0]


# ----------------------------------------------------------------- microqueue
def test_triggered_events_fire_in_fifo_order_before_future_work():
    env = Environment()
    order = []
    first, second = env.event(), env.event()
    first.callbacks.append(lambda e: order.append("first"))
    second.callbacks.append(lambda e: order.append("second"))
    env.call_at(0.0, lambda: order.append("timer"))
    first.succeed()
    second.succeed()
    env.run()
    # Microqueue (FIFO) drains before the heap, even for a zero-delay timer
    # that was scheduled first.
    assert order == ["first", "second", "timer"]


def test_zero_delay_timeout_uses_the_microqueue():
    env = Environment()
    t = env.timeout(0)
    assert t in env._soon
    env.run()
    assert t.processed


def test_peek_and_step_skip_cancelled_microqueue_entries():
    env = Environment()
    dead = env.timeout(0)
    env.cancel(dead)
    # Only a cancelled entry is queued: peek must not claim live work exists,
    # and step must not no-op on it.
    assert env.peek() == float("inf")
    with pytest.raises(EmptySchedule):
        env.step()
    live = env.timeout(0)
    env.step()
    assert live.processed


def test_call_soon_runs_fifo_with_other_same_time_work():
    env = Environment()
    order = []
    gate = env.event()
    gate.callbacks.append(lambda e: order.append("event"))
    gate.succeed()
    env.call_soon(lambda tag: order.append(tag), "soon")
    env.run()
    assert order == ["event", "soon"]


def test_cancelling_triggered_events_does_not_inflate_heap_accounting():
    env = Environment()
    for _ in range(200):
        event = env.event()
        event.succeed()
        env.cancel(event)
    # Triggered events live on the microqueue, not the heap: cancelling them
    # must not count as heap debt (which would trigger pointless compaction).
    assert env._cancelled == 0
    env.run()


# ------------------------------------------------------ a node is its handler
def test_zero_delay_deliveries_reach_the_handler_in_order_without_the_heap():
    env = Environment()
    net = Network(env)
    a, b = net.interface("a"), net.interface("b")
    seen = []
    b.inbox.set_consumer(lambda message: seen.append(message.payload))
    a.send("b", "m", "x")
    a.send("b", "m", "y")
    assert env._queue == [] and seen == []
    env.run()
    assert seen == ["x", "y"]


# ----------------------------------------------------------------- timer wheel
def test_wheel_timer_fires_on_the_next_tick_never_early():
    env = Environment(wheel_granularity_ms=10.0)
    fired = []

    def kick():
        yield 3.0  # now = 3.0
        env.call_coarse(15.0, lambda: fired.append(env.now))

    env.process(kick())
    env.run()
    # Deadline 18.0 rounds up to tick 20.0.
    assert fired == [20.0]


def test_wheel_timers_in_one_tick_fire_in_fifo_order():
    env = Environment(wheel_granularity_ms=10.0)
    order = []
    env.call_coarse(4.0, lambda: order.append("a"))
    env.call_coarse(2.0, lambda: order.append("b"))
    env.call_coarse(9.0, lambda: order.append("c"))
    env.run()
    # All three share the tick at t=10 and fire in insertion order, not in
    # deadline order — that is the documented coarseness contract.
    assert order == ["a", "b", "c"]
    assert env.now == 10.0


def test_wheel_cancel_before_fire_suppresses_the_callback():
    env = Environment()
    fired = []
    timer = env.call_coarse(5.0, lambda: fired.append("t"))
    timer.cancel()
    assert timer.cancelled
    env.run()
    assert fired == []


def test_wheel_cancel_after_fire_is_a_harmless_no_op():
    env = Environment()
    fired = []
    timer = env.call_coarse(5.0, lambda: fired.append(env.now))
    env.run()
    assert fired == [5.0]
    assert timer.cancelled  # fired timers read as cancelled
    timer.cancel()
    timer.cancel()
    assert fired == [5.0]


def test_wheel_shares_one_heap_entry_per_live_tick():
    env = Environment(wheel_granularity_ms=10.0)
    for _ in range(500):
        env.call_coarse(7.0, lambda: None)
    # 500 live coarse timers share a single tick: exactly one heap entry.
    assert len(env._queue) == 1
    env.run()


def test_wheel_cancel_churn_keeps_heap_bounded():
    env = Environment(wheel_granularity_ms=10.0)
    for _ in range(1000):
        env.call_coarse(7.0, lambda: None).cancel()
    # Immediate set-then-cancel defuses each tick's shared entry (so nothing
    # ever fires); lazy deletion + compaction keep the dead entries bounded.
    assert len(env._queue) < 200
    env.run()
    assert env.now == 0.0


def test_fully_cancelled_wheel_slot_does_not_advance_the_clock():
    # Regression: an all-cancelled tick used to keep a live heap Timer that
    # fired an empty slot, keeping run() alive until the tick (e.g. a 5 s
    # lock timeout granted at t=100 inflated env.now to 5000).
    env = Environment()
    timer = env.call_coarse(5_000.0, lambda: None)
    timer.cancel()

    def worker():
        yield 10.0

    env.process(worker())
    env.run()
    assert env.now == 10.0


def test_wheel_ticks_cover_distinct_slots():
    env = Environment(wheel_granularity_ms=10.0)
    fired = []
    env.call_coarse(5.0, lambda: fired.append(env.now))
    env.call_coarse(25.0, lambda: fired.append(env.now))
    env.run()
    assert fired == [10.0, 30.0]


# -------------------------------------------------- determinism of the engine
def determinism_config():
    """A small contended run: lock waits, timeouts and the wheel all fire."""
    from repro.bench.runner import ExperimentConfig
    from repro.workloads.ycsb import YCSBConfig

    return ExperimentConfig(
        system="geotp", terminals=8, duration_ms=3_000.0, warmup_ms=500.0,
        ycsb=YCSBConfig(skew=1.0, distributed_ratio=0.5,
                        records_per_node=100),
        seed=13)


def test_same_seed_twice_is_byte_identical():
    from repro.bench.equivalence import snapshot

    first, second = snapshot(determinism_config()), snapshot(determinism_config())
    assert first == second, (
        f"two runs of the same seed diverged: {first} != {second}")
