"""Unit tests for the discrete-event simulation core (environment, events, processes)."""

import pytest

from repro.sim import Environment, Event, Interrupt


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(10)
        yield env.timeout(5.5)

    env.process(proc())
    env.run()
    assert env.now == pytest.approx(15.5)


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        for _ in range(100):
            yield env.timeout(10)

    env.process(proc())
    env.run(until=35)
    assert env.now == pytest.approx(35)


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=100)
    with pytest.raises(ValueError):
        env.run(until=50)


def test_process_return_value_propagates():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return "done"

    p = env.process(proc())
    result = env.run(until=p)
    assert result == "done"


def test_process_exception_propagates_to_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise ValueError("boom")

    env.process(proc())
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_processes_interleave_in_time_order():
    env = Environment()
    log = []

    def proc(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(proc("slow", 20))
    env.process(proc("fast", 5))
    env.process(proc("medium", 10))
    env.run()
    assert log == [(5, "fast"), (10, "medium"), (20, "slow")]


def test_process_waits_on_another_process():
    env = Environment()

    def child():
        yield env.timeout(7)
        return 99

    def parent():
        value = yield env.process(child())
        return value + 1

    p = env.process(parent())
    assert env.run(until=p) == 100
    assert env.now == pytest.approx(7)


def test_event_succeed_wakes_waiter_with_value():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append((env.now, value))

    def opener():
        yield env.timeout(30)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert seen == [(30, "open")]


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1)
        gate.fail(RuntimeError("bad"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["bad"]


def test_event_value_unavailable_before_trigger():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_interrupt_raises_inside_process():
    env = Environment()
    outcome = []

    def victim():
        try:
            yield env.timeout(1000)
            outcome.append("finished")
        except Interrupt as interrupt:
            outcome.append(("interrupted", env.now, interrupt.cause))

    def attacker(victim_proc):
        yield env.timeout(50)
        victim_proc.interrupt(cause="stop it")

    victim_proc = env.process(victim())
    env.process(attacker(victim_proc))
    env.run()
    assert outcome == [("interrupted", 50, "stop it")]


def test_cannot_interrupt_finished_process():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_yielding_non_event_fails_the_process():
    env = Environment()

    def bad():
        yield "not an event"

    env.process(bad())
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_yielding_a_number_sleeps_for_that_many_ms():
    env = Environment()
    log = []

    def sleeper():
        yield 7.5
        log.append(env.now)
        yield 2          # ints work too
        log.append(env.now)

    env.process(sleeper())
    env.run()
    assert log == [7.5, 9.5]


def test_yielding_a_negative_number_fails_the_process():
    env = Environment()

    def bad():
        yield -1.0

    env.process(bad())
    with pytest.raises(ValueError, match="negative delay"):
        env.run()


def test_run_until_event_that_never_fires_raises():
    env = Environment()
    gate = env.event()
    with pytest.raises(RuntimeError, match="ran out of events"):
        env.run(until=gate)


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(12)
    assert env.peek() == pytest.approx(12)
