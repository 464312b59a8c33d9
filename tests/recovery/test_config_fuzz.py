"""Fuzz the configuration space: every drawn run drains with no invariant violation.

Each example draws a whole experiment — a system (all nine), YCSB or TPC-C,
1-8 terminals, a 1.5 s or 3 s run, a skew, a distributed ratio, up to two
faults of any kind, target, strike time and heal length, and a seed — runs
it, and checks every registered invariant on the result.  A fault run is
judged after its drain, on the end state (see
``FaultInjector.drain_until_ms``).  The checker reads only the result.

Outages and partitions park the messages they cut.  The ``drop`` mode is not
drawn: a dropped request is never answered, and no system in the model has
the RPC timeout that :mod:`repro.sim.network` says drop mode needs, so every
system leaves work live or in doubt under it.  The smallest such run is
pinned below as an expected failure until the model has that timeout.

The run is derandomized, so tier-1 replays the same examples every time.
Tier-1 runs :data:`TIER1_EXAMPLES` of them; CI's fuzz step passes
``--hypothesis-profile config-fuzz`` (registered in ``tests/conftest.py``)
for a larger budget.  A failing example shrinks on its own (Hypothesis);
every finding is pinned below with ``@example``.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import ExperimentConfig, TopologyConfig, run_experiment
from repro.plugins import system_names
from repro.recovery import FaultEvent, FaultKind, FaultPlan
from repro.recovery.invariants import violations
from repro.sim.network import DROP, PARK
from repro.workloads.tpcc import TPCCConfig
from repro.workloads.ycsb import YCSBConfig

#: Examples per tier-1 run (about 6 s on a 2-core host).
TIER1_EXAMPLES = 400
WARMUP_MS = 300.0
DATA_NODES = TopologyConfig.paper_default().node_names()


def _budget() -> int:
    """Tier-1's budget, or the ``config-fuzz`` profile's when it is loaded."""
    if settings.default is settings.get_profile("config-fuzz"):
        return settings.default.max_examples
    return TIER1_EXAMPLES


@st.composite
def fault_events(draw, duration_ms: float) -> FaultEvent:
    kind = draw(st.sampled_from(FaultKind))
    at_ms = float(draw(st.integers(0, int(duration_ms) - 1)))
    heal_ms = float(draw(st.integers(1, int(duration_ms))))
    node = st.sampled_from(DATA_NODES)
    if kind is FaultKind.MIDDLEWARE_CRASH:
        return FaultEvent(kind=kind, at_ms=at_ms, duration_ms=heal_ms)
    if kind is FaultKind.DATASOURCE_CRASH:
        return FaultEvent(kind=kind, at_ms=at_ms, duration_ms=heal_ms,
                          target=draw(node))
    if kind is FaultKind.LATENCY_SPIKE:
        return FaultEvent(kind=kind, at_ms=at_ms, duration_ms=heal_ms,
                          target=draw(st.none() | node),
                          factor=draw(st.floats(1.0, 8.0)))
    target = draw(node)
    peer = (draw(node.filter(lambda name: name != target))
            if kind is FaultKind.PARTITION else None)
    return FaultEvent(kind=kind, at_ms=at_ms, duration_ms=heal_ms,
                      target=target, peer=peer, mode=PARK)


def plan(*events: FaultEvent):
    return FaultPlan(events=events) if events else None


@st.composite
def configs(draw) -> ExperimentConfig:
    duration_ms = draw(st.sampled_from((1_500.0, 3_000.0)))
    events = draw(st.lists(fault_events(duration_ms), max_size=2))
    try:
        fault_plan = plan(*events)
    except ValueError:          # a second window over the first's same target
        assume(False)
    distributed_ratio = draw(st.floats(0.0, 1.0))
    return ExperimentConfig(
        system=draw(st.sampled_from(system_names())),
        workload=draw(st.sampled_from(("ycsb", "tpcc"))),
        terminals=draw(st.integers(1, 8)),
        duration_ms=duration_ms, warmup_ms=WARMUP_MS,
        ycsb=YCSBConfig(skew=draw(st.floats(0.0, 1.5)),
                        distributed_ratio=distributed_ratio),
        tpcc=TPCCConfig(distributed_ratio=distributed_ratio),
        fault_plan=fault_plan, seed=draw(st.integers(0, 2**16)))


def pinned(system, workload, terminals, seed, *events) -> ExperimentConfig:
    """A finding: a 3 s run at the default skew and distributed ratio."""
    return ExperimentConfig(system=system, workload=workload,
                            terminals=terminals, duration_ms=3_000.0,
                            warmup_ms=WARMUP_MS, seed=seed,
                            fault_plan=plan(*events))


@example(pinned("geotp", "tpcc", 1, 31, FaultEvent(
    kind=FaultKind.MIDDLEWARE_CRASH, at_ms=374.0, duration_ms=50.0)))
@example(pinned("ssp", "ycsb", 5, 34,
                FaultEvent(kind=FaultKind.DATASOURCE_CRASH, at_ms=325.0,
                           duration_ms=275.0, target="ds1"),
                FaultEvent(kind=FaultKind.MIDDLEWARE_CRASH, at_ms=481.0,
                           duration_ms=119.0)))
@settings(derandomize=True, deadline=None, max_examples=_budget())
@given(configs())
def test_a_drawn_config_drains_with_no_invariant_violation(config):
    summary = run_experiment(config)
    assert violations(summary.invariants) == []


@pytest.mark.xfail(strict=True, reason="a dropped request is never answered: "
                   "no system has an RPC timeout")
def test_a_request_dropped_by_an_outage_is_resolved_after_the_drain():
    # The fuzzer's shrunk drop-mode finding: the first request to ds0 is
    # dropped, and the one transaction waits for its reply forever.
    config = ExperimentConfig(
        system="ssp", workload="ycsb", terminals=1, duration_ms=1_500.0,
        warmup_ms=WARMUP_MS, ycsb=YCSBConfig(skew=0.0, distributed_ratio=0.0),
        fault_plan=plan(FaultEvent(kind=FaultKind.REGION_OUTAGE, at_ms=0.0,
                                   duration_ms=1.0, target="ds0", mode=DROP)),
        seed=89)
    assert violations(run_experiment(config).invariants) == []
