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


def test_peek_and_step_serve_the_microqueue_before_the_heap():
    env = Environment()
    assert env.peek() == float("inf")
    with pytest.raises(EmptySchedule):
        env.step()
    timer = env.call_at(3.0, lambda: None)
    now = env.timeout(0)
    assert env.peek() == 0.0
    env.step()
    assert now.processed and not timer.cancelled and env.now == 0.0
    assert env.peek() == 3.0
    env.step()
    assert timer.cancelled and env.now == 3.0


def test_zero_delay_deliveries_run_fifo_with_other_same_time_work():
    env = Environment()
    net = Network(env)
    a, b = net.interface("a"), net.interface("b")
    order = []
    b.inbox.set_consumer(lambda message: order.append(message.payload))
    gate = env.event()
    gate.callbacks.append(lambda e: order.append("event"))
    gate.succeed()
    a.send("b", "m", "delivery")
    env.run()
    assert order == ["event", "delivery"]


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
# The wheel ticks every WHEEL_GRANULARITY_MS = 1 ms, so sub-millisecond
# deadlines show its rounding.
def test_wheel_timer_fires_on_the_next_tick_never_early():
    env = Environment()
    fired = []

    def kick():
        yield 0.3  # now = 0.3
        env.call_coarse(1.5, lambda: fired.append(env.now))

    env.process(kick())
    env.run()
    # Deadline 1.8 rounds up to tick 2.0.
    assert fired == [2.0]


def test_wheel_timers_in_one_tick_fire_in_fifo_order():
    env = Environment()
    order = []
    env.call_coarse(0.4, lambda: order.append("a"))
    env.call_coarse(0.2, lambda: order.append("b"))
    env.call_coarse(0.9, lambda: order.append("c"))
    env.run()
    # All three share the tick at t=1 and fire in insertion order, not in
    # deadline order — that is the documented coarseness contract.
    assert order == ["a", "b", "c"]
    assert env.now == 1.0


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
    env = Environment()
    for _ in range(500):
        env.call_coarse(0.7, lambda: None)
    # 500 live coarse timers share a single tick: exactly one heap entry.
    assert len(env._queue) == 1
    env.run()


def test_wheel_cancel_churn_keeps_heap_bounded():
    env = Environment()
    for _ in range(1000):
        env.call_coarse(0.7, lambda: None).cancel()
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
    env = Environment()
    fired = []
    env.call_coarse(0.5, lambda: fired.append(env.now))
    env.call_coarse(2.5, lambda: fired.append(env.now))
    env.run()
    assert fired == [1.0, 3.0]


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


# ------------------------------------------------------- the heap holds timers
def stepped_run(env, until):
    """``Environment.run(until=<time>)`` by ``step()``: after every step,
    fail by name on a heap entry that is neither a Timer nor a sleep
    carrier."""
    from repro.sim._kernel.environment import Timer
    from repro.sim._kernel.process import _SleepEntry

    stop = float(until)
    while env.peek() <= stop:
        env.step()
        kinds = {entry[2].__class__ for entry in env._queue}
        assert kinds <= {Timer, _SleepEntry}, (
            f"t={env.now}: heap entries of kind "
            f"{sorted(k.__name__ for k in kinds - {Timer, _SleepEntry})}")
    env.now = stop


@pytest.mark.parametrize("fault", [None, "mw_crash"])
def test_the_heap_holds_only_timers_and_sleep_carriers(monkeypatch, fault):
    from dataclasses import replace

    from repro.bench.runner import run_experiment
    from repro.recovery.failures import FaultPlan

    config = determinism_config()
    if fault is not None:
        config = replace(config, fault_plan=FaultPlan.named(
            fault, config.duration_ms))
    monkeypatch.setattr(Environment, "run", stepped_run)
    summary = run_experiment(config)
    # The sleeps ran: O3's admission backoff, and under the crash the
    # client's backoff after each refusal.
    assert summary.committed > 0 and summary.admission["blocked"] > 0
    if fault is not None:
        assert summary.abort_reasons["unavailable"] > 0
