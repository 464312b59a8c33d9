"""Integration tests for the scheduled fault-injection subsystem.

These drive whole experiments with an ``ExperimentConfig.fault_plan`` set and
assert the injected faults actually bite (refusals, abort spikes, parked
traffic) and that the system heals (recovery passes run, commits resume,
availability metrics report the dip).
"""

import pytest

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.metrics.availability import Availability
from repro.recovery import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.recovery.failures import post_recovery_band
from repro.recovery.invariants import violations
from repro.recovery.recovery_manager import RecoveryManager, RecoveryReport
from repro.workloads.ycsb import YCSBConfig


def fault_config(system="geotp", plan=None, **overrides):
    defaults = dict(
        system=system, terminals=6, duration_ms=5_000.0, warmup_ms=1_000.0,
        ycsb=YCSBConfig(records_per_node=1_000),
        fault_plan=plan, seed=7)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def one_event_plan(kind, **kwargs):
    return FaultPlan(events=(
        FaultEvent(kind=kind, at_ms=2_000.0, duration_ms=1_000.0, **kwargs),))


# ----------------------------------------------------------------- validation
def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(kind=FaultKind.DATASOURCE_CRASH, at_ms=100.0)  # no target
    with pytest.raises(ValueError):
        FaultEvent(kind=FaultKind.PARTITION, at_ms=100.0, target="ds0")  # no peer
    with pytest.raises(ValueError):
        FaultEvent(kind=FaultKind.LATENCY_SPIKE, at_ms=100.0, factor=0.5)
    with pytest.raises(ValueError):
        FaultEvent(kind=FaultKind.MIDDLEWARE_CRASH, at_ms=-1.0)
    with pytest.raises(ValueError):
        FaultPlan(events=())


def test_fault_plan_rejects_overlapping_same_target_windows():
    """The network fault state is single-slot: overlaps would heal early."""
    overlapping = (
        FaultEvent(kind=FaultKind.REGION_OUTAGE, at_ms=1_000.0,
                   duration_ms=2_000.0, target="ds2"),
        FaultEvent(kind=FaultKind.REGION_OUTAGE, at_ms=2_000.0,
                   duration_ms=2_000.0, target="ds2"),
    )
    with pytest.raises(ValueError, match="overlapping"):
        FaultPlan(events=overlapping)
    # An unrepaired fault (duration 0) conflicts with anything after it.
    with pytest.raises(ValueError, match="overlapping"):
        FaultPlan(events=(
            FaultEvent(kind=FaultKind.DATASOURCE_CRASH, at_ms=1_000.0,
                       target="ds1"),
            FaultEvent(kind=FaultKind.DATASOURCE_CRASH, at_ms=9_000.0,
                       duration_ms=500.0, target="ds1"),
        ))
    # An all-node latency spike conflicts with any other spike.
    with pytest.raises(ValueError, match="overlapping"):
        FaultPlan(events=(
            FaultEvent(kind=FaultKind.LATENCY_SPIKE, at_ms=1_000.0,
                       duration_ms=2_000.0, factor=2.0),
            FaultEvent(kind=FaultKind.LATENCY_SPIKE, at_ms=2_000.0,
                       duration_ms=2_000.0, target="ds1", factor=2.0),
        ))
    # Sequential windows and distinct targets are fine.
    FaultPlan(events=(
        FaultEvent(kind=FaultKind.REGION_OUTAGE, at_ms=1_000.0,
                   duration_ms=500.0, target="ds2"),
        FaultEvent(kind=FaultKind.REGION_OUTAGE, at_ms=2_000.0,
                   duration_ms=500.0, target="ds2"),
        FaultEvent(kind=FaultKind.REGION_OUTAGE, at_ms=1_000.0,
                   duration_ms=500.0, target="ds1"),
    ))


def test_fault_plan_rejects_reversed_partition_pairs():
    """A partition disrupts both directions, so A<->B conflicts with B<->A."""
    with pytest.raises(ValueError, match="overlapping"):
        FaultPlan(events=(
            FaultEvent(kind=FaultKind.PARTITION, at_ms=1_000.0,
                       duration_ms=2_000.0, target="ds1", peer="ds2"),
            FaultEvent(kind=FaultKind.PARTITION, at_ms=2_000.0,
                       duration_ms=2_000.0, target="ds2", peer="ds1"),
        ))


def test_cross_target_overlap_is_allowed_for_composed_plans():
    """Different targets may overlap: the catalogue's 'dual' plan depends on it."""
    # An outage healing inside a still-active cross-target partition window
    # validates (the re-interception test below shows why it is safe).
    plan = FaultPlan.named("dual", 10_000.0)
    outage, partition = plan.events
    assert outage.at_ms + outage.duration_ms < \
        partition.at_ms + partition.duration_ms
    # Hand-written equivalent, plus an unrelated node, also validates.
    FaultPlan(events=(
        FaultEvent(kind=FaultKind.REGION_OUTAGE, at_ms=1_000.0,
                   duration_ms=2_000.0, target="ds2"),
        FaultEvent(kind=FaultKind.PARTITION, at_ms=1_500.0,
                   duration_ms=2_000.0, target="ds1", peer="ds2"),
        FaultEvent(kind=FaultKind.LATENCY_SPIKE, at_ms=1_500.0,
                   duration_ms=2_000.0, target="ds0", factor=2.0),
    ))


def test_dual_plan_released_deliveries_are_re_intercepted():
    """The injector-driven version of the network re-interception test.

    The catalogue's ``dual`` plan heals the ds2 outage while the ds1<->ds2
    partition is still active; a message parked by the outage must be
    re-parked by the partition on release, not tunnel through it.
    """
    from types import SimpleNamespace

    from repro.sim import ConstantLatency, Environment, Network

    env = Environment()
    net = Network(env)
    net.set_link("ds1", "ds2", ConstantLatency(100.0))
    a, b = net.interface("ds1"), net.interface("ds2")
    cluster = SimpleNamespace(env=env, network=net,
                              datasources={"ds1": None, "ds2": None},
                              agents={}, middlewares=[])
    # Outage on ds2 over [4000, 5500); partition ds1<->ds2 over [4500, 6000).
    plan = FaultPlan.named("dual", 10_000.0)
    injector = FaultInjector(cluster, plan)
    injector.install()
    received = []
    b.inbox.set_consumer(lambda msg: received.append((env.now, msg.msg_type)))

    def sender():
        yield env.timeout(4_200.0)   # inside the outage, before the partition
        a.send("ds2", "caught_twice")

    env.process(sender())
    env.run(until=10_000.0)
    # Released by the outage heal at t=5500, re-parked under the partition,
    # delivered one link delay after the partition heals at t=6000.
    assert received == [(6_050.0, "caught_twice")]
    assert net.stats.messages_parked == 2  # parked once per disruption
    assert net._faults is None  # everything healed
    heals = [entry for entry in injector.log if entry["action"] == "heal"]
    assert len(heals) == 2


def test_unknown_fault_target_fails_before_the_run_starts():
    plan = one_event_plan(FaultKind.DATASOURCE_CRASH, target="ds9")
    with pytest.raises(KeyError, match="ds9"):
        run_experiment(fault_config(plan=plan))
    bad_middleware = one_event_plan(FaultKind.MIDDLEWARE_CRASH, target="dm9")
    with pytest.raises(KeyError):
        run_experiment(fault_config(plan=bad_middleware))


def test_default_and_named_middleware_crashes_overlap_on_one_node():
    """``target=None`` is the first middleware: a second crash of ``dm``
    inside the first one's window must be refused before the run starts."""
    def crashes(first_target, second_at_ms):
        return FaultPlan(events=(
            FaultEvent(kind=FaultKind.MIDDLEWARE_CRASH, at_ms=1_000.0,
                       duration_ms=500.0, target=first_target),
            FaultEvent(kind=FaultKind.MIDDLEWARE_CRASH, at_ms=second_at_ms,
                       duration_ms=1_000.0, target="dm")))

    with pytest.raises(ValueError, match="overlapping"):
        crashes("dm", 1_200.0)  # both named: the plan itself refuses
    mixed = crashes(None, 1_200.0)  # only the cluster knows None is dm
    with pytest.raises(ValueError, match="overlapping"):
        run_experiment(fault_config(system="ssp", plan=mixed))
    sequential = crashes(None, 2_500.0)
    result = run_experiment(fault_config(system="ssp", plan=sequential))
    assert result.faults["injected"] == {"middleware": 2}


def test_fault_plan_windows_and_description():
    plan = one_event_plan(FaultKind.REGION_OUTAGE, target="ds2")
    event = plan.events[0]
    assert "region_outage(ds2)" in event.describe()
    assert event.to_dict() == {"kind": "region_outage", "at_ms": 2_000.0,
                               "duration_ms": 1_000.0, "target": "ds2"}



def test_fault_event_dicts_carry_only_the_fields_of_their_kind():
    def as_dict(kind, **kwargs):
        return FaultEvent(kind=kind, at_ms=0.0, duration_ms=5.0, **kwargs).to_dict()

    base = {"at_ms": 0.0, "duration_ms": 5.0}
    assert as_dict(FaultKind.MIDDLEWARE_CRASH) == {"kind": "middleware_crash", **base}
    assert as_dict(FaultKind.DATASOURCE_CRASH, target="ds1") == {
        "kind": "datasource_crash", **base, "target": "ds1"}
    assert as_dict(FaultKind.PARTITION, target="ds0", peer="ds2") == {
        "kind": "partition", **base, "target": "ds0", "peer": "ds2"}
    assert as_dict(FaultKind.LATENCY_SPIKE, target="ds1", factor=3.0) == {
        "kind": "latency_spike", **base, "target": "ds1", "factor": 3.0}

# ----------------------------------------------------------- middleware crash
@pytest.mark.parametrize("system", ["ssp", "geotp"])
def test_middleware_crash_aborts_spike_then_service_recovers(system):
    plan = one_event_plan(FaultKind.MIDDLEWARE_CRASH)
    result = run_experiment(fault_config(system=system, plan=plan))
    faults = result.faults
    assert faults is not None

    # Clients saw the crash: refused submissions and/or interrupted txns.
    assert result.collector.abort_reasons().get("unavailable", 0) > 0

    # Exactly one recovery pass ran, after the restart at t=3000.
    assert len(faults["recoveries"]) == 1
    recovery = faults["recoveries"][0]
    assert recovery["kind"] == "middleware_crash"
    assert recovery["restarted_at_ms"] >= 3_000.0
    assert recovery["recovery_ms"] >= 0.0

    # Commits resume after the repair: the post-heal window is not dead.
    post_heal = [committed for start, committed, _
                 in faults["availability"]["series"] if start >= 4_000.0]
    assert sum(post_heal) > 0

    # The injector's primitive counters saw the crash too.
    assert faults["injected"] == {"middleware": 1}


def test_middleware_crash_leaves_no_orphaned_active_branches():
    """The crash-time sweep and the recovery listing roll the orphaned
    sessions back."""
    plan = one_event_plan(FaultKind.MIDDLEWARE_CRASH)
    result = run_experiment(fault_config(system="ssp", plan=plan),
                            keep_cluster=True)
    middleware = result.cluster.middleware
    assert not middleware.crashed
    # Whatever is still in flight at shutdown was submitted after the
    # restart; nothing survived from before the crash.
    assert all(ctx.submitted_at >= 3_000.0
               for ctx in middleware.active_contexts.values())
    # After the run no branch is stuck holding locks: every lock table is
    # either empty or owned by a transaction that finished at shutdown time.
    for datasource in result.cluster.datasources.values():
        for txn in datasource.transactions.values():
            assert txn.state.value in ("committed", "aborted", "prepared", "active", "idle")
        # The decisive check: nothing the crashed coordinator owned is still
        # unfinished (the sweeps killed in-flight branches, recovery resolved
        # the prepared ones; only post-restart work may still be open).
        for txn in datasource.transactions.values():
            if txn.state.value in ("active", "idle", "prepared"):
                assert txn.started_at > 3_000.0


# ---------------------------------------------------------- data source crash
def test_datasource_crash_recovers_and_commits_resume():
    plan = one_event_plan(FaultKind.DATASOURCE_CRASH, target="ds1")
    result = run_experiment(fault_config(system="geotp", plan=plan))
    faults = result.faults
    assert faults["injected"] == {"datasource": 1}
    assert len(faults["recoveries"]) == 1
    assert faults["recoveries"][0]["kind"] == "datasource_crash"
    assert faults["recoveries"][0]["target"] == "ds1"
    # The run still commits a healthy share of work overall.
    assert result.committed > 0
    post_heal = [committed for start, committed, _
                 in faults["availability"]["series"] if start >= 4_000.0]
    assert sum(post_heal) > 0


# --------------------------------------------------------------- region outage
def test_region_outage_parks_traffic_and_self_heals():
    plan = one_event_plan(FaultKind.REGION_OUTAGE, target="ds2")
    result = run_experiment(fault_config(system="geotp", plan=plan),
                            keep_cluster=True)
    faults = result.faults
    stats = result.cluster.network.stats
    assert stats.messages_parked > 0
    assert result.cluster.network._faults is None  # fully healed
    # No recovery pass: nothing crashed, the network healed on its own.
    assert faults["recoveries"] == []
    assert faults["log"][-1]["action"] == "heal"
    post_heal = [committed for start, committed, _
                 in faults["availability"]["series"] if start >= 4_000.0]
    assert sum(post_heal) > 0


# ---------------------------------------------------------------- sanity band
def test_post_recovery_band_helper():
    lo, hi = post_recovery_band(100, measured_ms=4_000.0, outage_ms=1_000.0,
                                slack=0.2)
    assert lo == pytest.approx(100 * 0.75 * 0.8)
    assert hi == pytest.approx(120.0)
    with pytest.raises(ValueError):
        post_recovery_band(100, measured_ms=0.0, outage_ms=0.0)


# ------------------------------------------------------------- availability
def availability_report(completions, **grid):
    availability = Availability(**grid)
    for finished_at, committed in completions:
        availability.record(finished_at, committed)
    return availability.report()


def test_build_availability_buckets_and_metrics():
    completions = ([(t, True) for t in (500, 1500, 1600, 3500)]
                   + [(2500, False)] * 3)
    report = availability_report(completions, duration_ms=4_000.0,
                                 bucket_ms=1_000.0)
    assert [b[1] for b in report.buckets] == [1, 2, 0, 1]
    assert [b[2] for b in report.buckets] == [0, 0, 3, 0]
    assert report.availability() == pytest.approx(0.75)
    assert report.abort_spike() == pytest.approx(4.0)  # 3 aborts vs mean 0.75
    # Baseline before t=2000 is 1.5 tps; recovery to half of that (>= 0.75
    # committed per bucket) happens in the bucket starting at 3000.
    assert report.throughput_before(2_000.0) == pytest.approx(1.5)
    assert report.time_to_recover_ms(2_000.0) == pytest.approx(1_000.0)
    assert report.time_to_recover_ms(2_000.0, baseline_tps=100.0) is None
    with pytest.raises(ValueError):
        Availability(duration_ms=1_000.0, bucket_ms=0.0)
    with pytest.raises(ValueError):
        Availability(duration_ms=1_000.0, start_ms=1_000.0)


def test_build_availability_starts_buckets_at_the_warmup_boundary():
    """Warm-up buckets can never hold a sample; they must not exist at all.

    Otherwise even a perfectly healthy run reports availability < 1 and the
    pre-fault baseline (hence time-to-recover) is diluted by guaranteed-zero
    buckets.
    """
    completions = [(t, True) for t in (2_100, 3_200, 4_300, 5_400)]
    report = availability_report(completions, duration_ms=6_000.0,
                                 bucket_ms=1_000.0, start_ms=2_000.0)
    assert [b[0] for b in report.buckets] == [2_000.0, 3_000.0, 4_000.0, 5_000.0]
    assert report.availability() == 1.0
    assert report.throughput_before(4_000.0) == pytest.approx(1.0)


def test_fault_run_availability_series_starts_at_warmup():
    plan = one_event_plan(FaultKind.LATENCY_SPIKE, factor=2.0)
    result = run_experiment(fault_config(system="ssp", plan=plan))
    series = result.faults["availability"]["series"]
    # No bucket covers the warm-up window (it could never hold a sample);
    # buckets tile [warmup_ms, duration_ms) and account for every commit.
    assert [start for start, _, _ in series] == [1_000.0, 2_000.0, 3_000.0,
                                                 4_000.0]
    assert sum(committed for _, committed, _ in series) == result.committed


def test_fault_report_is_in_the_picklable_summary():
    import pickle

    plan = one_event_plan(FaultKind.LATENCY_SPIKE, factor=3.0)
    summary = run_experiment(fault_config(system="ssp", plan=plan)).summary()
    assert summary.faults is not None
    assert summary.faults["plan"][0]["kind"] == "latency_spike"
    assert "availability" in summary.to_dict()["faults"]
    pickle.loads(pickle.dumps(summary))  # must cross worker boundaries


# ------------------------------------------------- a run ending mid-recovery
EMPTY_CENSUS = {"prepared": [], "down": [], "live": []}


def late_crash_run(system, event):
    return run_experiment(ExperimentConfig(
        system=system, terminals=8, duration_ms=5_000.0, seed=1,
        fault_plan=FaultPlan(events=(event,))))


@pytest.mark.parametrize("system", ["ssp", "geotp"])
@pytest.mark.parametrize("event", [
    FaultEvent(kind=FaultKind.MIDDLEWARE_CRASH, at_ms=4_600.0,
               duration_ms=300.0),
    FaultEvent(kind=FaultKind.MIDDLEWARE_CRASH, at_ms=4_500.0,
               duration_ms=1_000.0),
    FaultEvent(kind=FaultKind.DATASOURCE_CRASH, at_ms=4_500.0,
               duration_ms=400.0, target="ds3"),
], ids=["mw-heals-late", "mw-still-down", "ds-heals-late"])
def test_a_run_ending_mid_recovery_drains_to_an_empty_census(event, system):
    """The run drains past the cut until the restart and its recovery pass
    are done; the end state then holds nothing in doubt."""
    summary = late_crash_run(system, event)
    assert violations(summary.invariants) == []
    assert summary.faults["wal_in_doubt"] == EMPTY_CENSUS
    (recovery,) = [r for r in summary.faults["recoveries"]
                   if r["kind"] == event.kind.value]
    assert recovery["restarted_at_ms"] >= event.at_ms + event.duration_ms


def test_a_recovery_that_resolves_nothing_still_leaves_orphans(monkeypatch):
    def resolve_nothing(self, **_kwargs):
        yield self.middleware.env.timeout(0)
        return RecoveryReport()

    monkeypatch.setattr(RecoveryManager, "resolve_in_doubt", resolve_nothing)
    summary = late_crash_run("geotp", FaultEvent(
        kind=FaultKind.MIDDLEWARE_CRASH, at_ms=4_300.0, duration_ms=300.0))
    assert summary.faults["wal_in_doubt"]["prepared"]
    assert summary.invariants["wal_in_doubt_empty"]["status"] == "failed"
