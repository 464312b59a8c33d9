"""Crashes that land on timer-served verbs and on a round fan-out in flight.

The never-blocking XA verbs are a start function plus a ``call_at`` finish
function, and a round's batches travel as timers and callbacks instead of one
process each.  A crash must treat both exactly as it treated the generators
they replaced: the finish function still runs and re-checks the branch, the
reply callback still returns the pooled connection.  Each case below strikes
at an instant picked (from a fault-free probe of the same seed) to fall inside
a verb's cost window while batches are in flight — the test checks that it
did — and pins the run's outcome to the values of the commit before the
change.
"""

import pytest

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.recovery import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.workloads.ycsb import YCSBConfig

#: Timer callbacks of a verb whose cost is being paid / of a fan-out batch.
_VERB_TIMERS = {"_finish_xa_end", "_finish_xa_prepare", "_finish_commit",
                "_forward_send"}

#: (system, fault, strike time) -> what must be pending, and the parent's outcome.
CASES = {
    # ds1 is paying an xa_prepare and an xa_commit cost: the crash refuses
    # what follows, the finish functions still answer.
    ("ssp", FaultKind.DATASOURCE_CRASH, 2191.0): dict(
        pending={"_finish_xa_prepare", "_finish_commit"},
        committed=284, aborted=11, throughput_tps=29.894736842105264,
        p99_latency_ms=2343.1240000000025,
        abort_reasons={"failure": 1, "prepare_failed": 2, "unavailable": 8}),
    # Same instant, middleware crash: the session kill aborts the branch whose
    # prepare cost is being paid, so its finish function must vote NO.
    ("ssp", FaultKind.MIDDLEWARE_CRASH, 2191.0): dict(
        pending={"_finish_xa_prepare", "_finish_commit"},
        committed=165, aborted=362, throughput_tps=17.36842105263158,
        p99_latency_ms=4755.351999999997,
        abort_reasons={"lock_timeout": 2, "unavailable": 360}),
    # A one-phase commit forwarded by ds1's agent is mid-cost.
    ("geotp", FaultKind.DATASOURCE_CRASH, 2139.5): dict(
        pending={"_finish_commit"},
        committed=278, aborted=14, throughput_tps=29.263157894736842,
        p99_latency_ms=1780.0496224338071,
        abort_reasons={"admission_blocked": 3, "failure": 1, "unavailable": 10}),
    # A decentralized prepare is mid-cost when the coordinator dies.
    ("geotp", FaultKind.MIDDLEWARE_CRASH, 2412.9): dict(
        pending={"_finish_xa_prepare"},
        committed=400, aborted=388, throughput_tps=42.10526315789474,
        p99_latency_ms=931.7252322236607,
        abort_reasons={"admission_blocked": 4, "unavailable": 384}),
    # The agent is paying its forwarding overhead for a commit decision.
    ("geotp", FaultKind.MIDDLEWARE_CRASH, 2138.75): dict(
        pending={"_forward_send"},
        committed=195, aborted=353, throughput_tps=20.526315789473685,
        p99_latency_ms=4753.736000000004,
        abort_reasons={"admission_blocked": 2, "lock_timeout": 3,
                       "unavailable": 348}),
}


def _connections_in_use(cluster):
    return sum(pool.in_use for middleware in cluster.middlewares
               for pool in middleware.pools.pools().values())


@pytest.fixture
def strikes(monkeypatch):
    """Record, at the instant a fault strikes, which verb timers are pending
    and how many pooled connections are checked out."""
    seen = []

    def snapshot(injector):
        cluster = injector.cluster
        pending = {getattr(entry[3].fn, "__name__", "")
                   for entry in cluster.env._queue
                   if getattr(entry[3], "fn", None) is not None}
        seen.append((pending & _VERB_TIMERS, _connections_in_use(cluster)))

    for name in ("_crash_middleware", "_crash_datasource_proc"):
        original = getattr(FaultInjector, name)

        def observed(self, event, _original=original):
            snapshot(self)
            return _original(self, event)

        monkeypatch.setattr(FaultInjector, name, observed)
    return seen


@pytest.mark.parametrize("system, kind, at_ms", list(CASES),
                         ids=[f"{s}-{k.value}-{t}" for s, k, t in CASES])
def test_crash_inside_a_cost_window_with_a_fan_out_in_flight(
        strikes, system, kind, at_ms):
    expected = CASES[(system, kind, at_ms)]
    target = "ds1" if kind is FaultKind.DATASOURCE_CRASH else None
    config = ExperimentConfig(
        system=system, terminals=12, duration_ms=10_000.0, warmup_ms=500.0,
        seed=5,
        ycsb=YCSBConfig(records_per_node=500, preload_rows_per_node=500,
                        operations_per_transaction=4),
        fault_plan=FaultPlan(events=(FaultEvent(
            kind=kind, at_ms=at_ms, duration_ms=800.0, target=target),)))
    result = run_experiment(config, keep_cluster=True)
    cluster = result.cluster
    try:
        # The strike really landed where this test means it to.
        (pending, in_flight), = strikes
        assert expected["pending"] <= pending
        assert in_flight > 0

        summary = result.summary()
        failed = [name for name, entry in summary.invariants.items()
                  if entry["status"] == "failed"]
        assert failed == []
        assert summary.committed == expected["committed"]
        assert summary.aborted == expected["aborted"]
        assert dict(summary.abort_reasons) == expected["abort_reasons"]
        assert summary.throughput_tps == expected["throughput_tps"]
        assert summary.p99_latency_ms == pytest.approx(
            expected["p99_latency_ms"], rel=1e-9)

        # The terminals stopped at ``duration_ms``; let what is in flight
        # finish: every connection a batch checked out must come back.
        cluster.env.run(until=40_000.0)
        assert _connections_in_use(cluster) == 0
        for middleware in cluster.middlewares:
            assert not middleware.active_processes
    finally:
        cluster.close()
