"""Crashes that land on timer-served verbs and on a round fan-out in flight.

The never-blocking XA verbs are a start function plus a ``call_at`` finish
function, and a round's batches travel as timers and callbacks instead of one
process each.  A crash must treat both exactly as it treated the generators
they replaced: the finish function still runs and re-checks the branch, the
reply callback still collects the batch's result.  Each case below strikes at
an instant picked (from a fault-free probe of the same seed) to fall inside a
verb's cost window while batches are in flight — an execute request or its
reply is on the wire; the test checks that it did — and pins the run's
outcome (``tests/bench/data/pins.json``).
"""

import pytest

from repro import protocol
from repro.bench.equivalence import reduce
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.common import SubtxnResult
from repro.recovery import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.sim.network import Message
from repro.workloads.ycsb import YCSBConfig
from tests.bench.pins import assert_pinned

#: Timer callbacks of a verb whose cost is being paid / of a fan-out batch.
_VERB_TIMERS = {"_finish_xa_end", "_finish_xa_prepare", "_finish_commit",
                "_forward_send"}

#: pin -> (fault, strike time, the verb timers that must be pending then).
CASES = {
    # ds1 is paying an xa_prepare and an xa_commit cost: the crash refuses
    # what follows, the finish functions still answer.
    "crash.ds_crash_2191.ssp": (FaultKind.DATASOURCE_CRASH, 2191.0,
                                {"_finish_xa_prepare", "_finish_commit"}),
    # Same instant, middleware crash: the session kill aborts the branch whose
    # prepare cost is being paid, so its finish function must vote NO.
    "crash.mw_crash_2191.ssp": (FaultKind.MIDDLEWARE_CRASH, 2191.0,
                                {"_finish_xa_prepare", "_finish_commit"}),
    # A one-phase commit forwarded by ds1's agent is mid-cost.
    "crash.ds_crash_2139.geotp": (FaultKind.DATASOURCE_CRASH, 2139.5,
                                  {"_finish_commit"}),
    # A decentralized prepare is mid-cost when the coordinator dies.  The
    # dead coordinator's postponed batches are fenced: they take no locks
    # during the outage.
    "crash.mw_crash_2412.geotp": (FaultKind.MIDDLEWARE_CRASH, 2412.9,
                                  {"_finish_xa_prepare"}),
    # The agent is paying its forwarding overhead for a commit decision.
    "crash.mw_crash_2138.geotp": (FaultKind.MIDDLEWARE_CRASH, 2138.75,
                                  {"_forward_send"}),
}


_EXECUTE_VERBS = {protocol.MSG_EXECUTE, protocol.MSG_AGENT_EXECUTE}


def _executes_in_flight(cluster):
    """Pending deliveries of a round's execute requests and of their replies."""
    in_flight = 0
    for entry in cluster.env._queue:
        args = getattr(entry[-1], "args", None)
        if getattr(entry[-1], "fn", None) is None or not args:
            continue
        if isinstance(args[0], Message):
            in_flight += args[0].msg_type in _EXECUTE_VERBS
        elif len(args) == 2:  # a reply: (reply event, value)
            in_flight += isinstance(args[1], SubtxnResult)
    return in_flight


@pytest.fixture
def strikes(monkeypatch):
    """Record, at the instant a fault strikes, which verb timers are pending
    and how many execute requests or replies are on the wire."""
    seen = []

    def snapshot(injector):
        cluster = injector.cluster
        pending = {getattr(entry[-1].fn, "__name__", "")
                   for entry in cluster.env._queue
                   if getattr(entry[-1], "fn", None) is not None}
        seen.append((pending & _VERB_TIMERS, _executes_in_flight(cluster)))

    for name in ("_crash_middleware", "_crash_datasource_proc"):
        original = getattr(FaultInjector, name)

        def observed(self, event, _original=original):
            snapshot(self)
            return _original(self, event)

        monkeypatch.setattr(FaultInjector, name, observed)
    return seen


@pytest.mark.parametrize("pin", list(CASES))
def test_crash_inside_a_cost_window_with_a_fan_out_in_flight(strikes, pin):
    kind, at_ms, pending_timers = CASES[pin]
    target = "ds1" if kind is FaultKind.DATASOURCE_CRASH else None
    config = ExperimentConfig(
        system=pin.split(".")[-1], terminals=12, duration_ms=10_000.0,
        warmup_ms=500.0, seed=5,
        ycsb=YCSBConfig(records_per_node=500, operations_per_transaction=4),
        fault_plan=FaultPlan(events=(FaultEvent(
            kind=kind, at_ms=at_ms, duration_ms=800.0, target=target),)))
    result = run_experiment(config, keep_cluster=True)
    cluster = result.cluster
    try:
        # The strike really landed where this test means it to.
        (pending, in_flight), = strikes
        assert pending_timers <= pending
        assert in_flight > 0

        failed = [name for name, entry in result.invariants.items()
                  if entry["status"] == "failed"]
        assert failed == []
        assert_pinned(pin, reduce(result))

        # The run drained past ``duration_ms``, so what was in flight has
        # finished: no execute request or reply is left on the wire.
        assert _executes_in_flight(cluster) == 0
        for middleware in cluster.middlewares:
            assert not middleware.active_processes
    finally:
        cluster.close()
