"""Edge-case coverage for the robustness-invariant checker.

One deliberately-broken summary fixture per invariant: each must fire with an
*actionable* message (the observed numbers, not just a boolean), and a healthy
summary must pass everything applicable while skipping the rest.
"""

import copy
import pickle
from types import SimpleNamespace

from repro import ExperimentConfig, YCSBConfig, run_experiment
from repro.bench.scenarios import get_scenario
from repro.recovery.invariants import (
    INVARIANTS,
    all_passed,
    check_invariants,
    invariant,
    violations,
)
from repro.workloads.arrivals import ArrivalConfig


def healthy_summary(**overrides):
    """A minimal summary that satisfies every applicable invariant.

    Duck-typed like the real ``ExperimentSummary`` — the checker only reads
    attributes, so a namespace keeps each fixture's breakage explicit.
    """
    faults = {
        "plan": [{"kind": "datasource_crash", "target": "ds1",
                  "at_ms": 2_000.0, "duration_ms": 1_000.0}],
        "recoveries": [{"kind": "datasource_crash", "target": "ds1",
                        "recovery_ms": 12.5}],
        "availability": {
            "bucket_ms": 1_000.0,
            "series": [[0.0, 50, 2], [1_000.0, 48, 1], [2_000.0, 5, 9],
                       [3_000.0, 40, 3], [4_000.0, 49, 2], [5_000.0, 50, 1]],
        },
        "time_to_recover_ms": {"datasource_crash(ds1) @2000ms for 1000ms": 500.0},
        "recovery_baseline_tps": {"datasource_crash(ds1) @2000ms for 1000ms": 49.0},
        "wal_in_doubt": {"prepared": [], "down": [], "live": []},
    }
    base = dict(
        committed=200, aborted=20, warmup_samples=30,
        measured_duration_ms=4_000.0, throughput_tps=200 / 4.0,
        abort_reasons={"lock_timeout": 15, "peer_abort": 5},
        open_loop={"offered": 260, "started": 255, "dropped": 5,
                   "completed": 250, "in_flight_at_end": 5},
        fleet={"attribution": {"dm1": {"committed": 120, "aborted": 12},
                               "dm2": {"committed": 80, "aborted": 8}}},
        faults=faults,
    )
    base.update(overrides)
    return SimpleNamespace(**base)


def failed(report, name):
    assert report[name]["status"] == "failed", report[name]
    return report[name]["detail"]


# ------------------------------------------------------------------ pass path
def test_healthy_summary_passes_every_applicable_invariant():
    report = check_invariants(healthy_summary())
    assert violations(report) == []
    assert all_passed(report)
    assert all(entry["status"] == "passed" for entry in report.values()), report


def test_closed_loop_fault_free_summary_skips_the_specific_invariants():
    summary = healthy_summary(open_loop=None, fleet=None, faults=None)
    report = check_invariants(summary)
    assert all_passed(report)
    for name in ("books_balance", "no_lost_transactions", "attribution_sums",
                 "availability_recovers", "wal_in_doubt_empty"):
        assert report[name]["status"] == "skipped"
    assert report["abort_reasons_bounded"]["status"] == "passed"
    assert report["throughput_accounting"]["status"] == "passed"


# ------------------------------------------------------- one breakage per rule
def test_lost_arrival_breaks_the_books():
    summary = healthy_summary()
    summary.open_loop = dict(summary.open_loop, offered=261)
    detail = failed(check_invariants(summary), "books_balance")
    assert "offered=261" in detail and "255+5" in detail


def test_vanished_session_breaks_the_books():
    summary = healthy_summary()
    summary.open_loop = dict(summary.open_loop, completed=249)
    detail = failed(check_invariants(summary), "books_balance")
    assert "started=255" in detail and "in_flight_at_end" in detail


def test_lost_transaction_is_detected_and_counted():
    summary = healthy_summary(committed=198)  # 2 sessions never recorded
    summary.throughput_tps = 198 / 4.0  # keep the rate consistent
    detail = failed(check_invariants(summary), "no_lost_transactions")
    assert "2 transaction(s) lost" in detail
    assert "250" in detail and "248" in detail


def test_duplicated_transaction_is_detected():
    summary = healthy_summary(committed=203)
    summary.throughput_tps = 203 / 4.0
    detail = failed(check_invariants(summary), "no_lost_transactions")
    assert "duplicated" in detail


def test_double_credited_commit_breaks_attribution():
    summary = healthy_summary()
    summary.fleet = {"attribution": {
        "dm1": {"committed": 121, "aborted": 12},
        "dm2": {"committed": 80, "aborted": 8}}}
    detail = failed(check_invariants(summary), "attribution_sums")
    assert "201" in detail and "200" in detail and "multiple" in detail


def test_abort_attribution_mismatch_is_detected():
    summary = healthy_summary()
    summary.fleet = {"attribution": {
        "dm1": {"committed": 120, "aborted": 11},
        "dm2": {"committed": 80, "aborted": 8}}}
    detail = failed(check_invariants(summary), "attribution_sums")
    assert "19" in detail and "20" in detail


def test_overcounted_abort_reasons_are_detected():
    summary = healthy_summary(abort_reasons={"lock_timeout": 25})
    detail = failed(check_invariants(summary), "abort_reasons_bounded")
    assert "25" in detail and "20" in detail


def test_duplicated_commit_rate_mismatch_is_detected():
    summary = healthy_summary(throughput_tps=51.0)  # committed says 50.0
    detail = failed(check_invariants(summary), "throughput_accounting")
    assert "51" in detail and "200" in detail


def test_non_recovering_availability_fires_with_the_event_label():
    summary = healthy_summary()
    summary.faults = copy.deepcopy(summary.faults)
    summary.faults["time_to_recover_ms"] = {
        "datasource_crash(ds1) @2000ms for 1000ms": None}
    detail = failed(check_invariants(summary), "availability_recovers")
    assert "datasource_crash(ds1)" in detail
    assert "never returned" in detail


def test_unobservable_baseline_is_a_skip_not_a_violation():
    summary = healthy_summary()
    summary.faults = copy.deepcopy(summary.faults)
    summary.faults["time_to_recover_ms"] = {
        "datasource_crash(ds1) @2000ms for 1000ms": None}
    summary.faults["recovery_baseline_tps"] = {
        "datasource_crash(ds1) @2000ms for 1000ms": 0.0}
    report = check_invariants(summary)
    assert report["availability_recovers"]["status"] == "passed"


def test_short_post_heal_runway_is_not_a_violation():
    summary = healthy_summary()
    summary.faults = copy.deepcopy(summary.faults)
    # Heal at 5500ms, observed end 6000ms: only half a bucket of runway.
    summary.faults["plan"][0].update(at_ms=4_500.0, duration_ms=1_000.0)
    summary.faults["time_to_recover_ms"] = {
        "datasource_crash(ds1) @4500ms for 1000ms": None}
    summary.faults["recovery_baseline_tps"] = {
        "datasource_crash(ds1) @4500ms for 1000ms": 49.0}
    report = check_invariants(summary)
    assert report["availability_recovers"]["status"] == "passed"


def census(**parts):
    return dict({"prepared": [], "down": [], "live": []}, **parts)


def test_orphaned_prepared_branch_is_detected_with_its_xid():
    summary = healthy_summary()
    summary.faults = copy.deepcopy(summary.faults)
    summary.faults["wal_in_doubt"] = census(prepared=[
        {"datasource": "ds1", "xid": "dm1-t17.0", "owner": "dm1",
         "decision": None},
        {"datasource": "ds2", "xid": "dm1-t18.1", "owner": "dm1",
         "decision": "commit"}])
    detail = failed(check_invariants(summary), "wal_in_doubt_empty")
    assert "dm1-t17.0@ds1 (no decision)" in detail
    assert "dm1-t18.1@ds2 (logged commit)" in detail


def test_node_still_down_after_its_heal_is_detected():
    summary = healthy_summary()
    summary.faults = copy.deepcopy(summary.faults)
    summary.faults["wal_in_doubt"] = census(down=["ds1"])
    detail = failed(check_invariants(summary), "wal_in_doubt_empty")
    assert "still down" in detail and "ds1" in detail


def test_transaction_still_live_after_the_drain_is_detected():
    summary = healthy_summary()
    summary.faults = copy.deepcopy(summary.faults)
    summary.faults["wal_in_doubt"] = census(live=["dm1-t40"])
    detail = failed(check_invariants(summary), "wal_in_doubt_empty")
    assert "still live" in detail and "dm1-t40" in detail


# ------------------------------------------------------------------ machinery
def test_checker_crash_is_reported_not_raised():
    # A summary missing attributes is itself a violation worth surfacing.
    report = check_invariants(SimpleNamespace())
    assert any(entry["status"] == "failed"
               and "checker crashed" in entry["detail"]
               for entry in report.values()), report


def test_registry_is_pluggable():
    calls = []

    @invariant("test_always_fails", "a probe", applies=lambda s: True)
    def _probe(summary):
        calls.append(summary)
        return "probe detail"

    try:
        report = check_invariants(healthy_summary())
        assert report["test_always_fails"] == {"status": "failed",
                                               "detail": "probe detail"}
        assert violations(report) == ["test_always_fails: probe detail"]
        assert calls
    finally:
        del INVARIANTS["test_always_fails"]


def test_every_catalog_invariant_has_a_description():
    for inv in INVARIANTS.values():
        assert inv.description


# ------------------------------------------------------------ real summaries
def _fault_ds_crash_config():
    sweep = get_scenario("fault_ds_crash").sweep(
        axes={"system": ("geotp",)}, duration_ms=4_000.0, warmup_ms=800.0,
        terminals=6, ycsb__records_per_node=1_000)
    (point,) = sweep.points()
    return point.config


def _open_loop_fleet_config():
    return ExperimentConfig(
        system="geotp", middleware_count=2, duration_ms=3_000.0,
        warmup_ms=500.0, ycsb=YCSBConfig(records_per_node=1_000),
        arrival=ArrivalConfig(rate_tps=150.0), seed=2)


def test_invariants_rerun_identically_on_an_unpickled_summary():
    """What the sweep cache returns is checkable exactly like the live run;
    between them the two runs make every invariant applicable."""
    applicable = set()
    for config in (_fault_ds_crash_config(), _open_loop_fleet_config()):
        summary = run_experiment(config)
        assert all_passed(summary.invariants), violations(summary.invariants)
        unpickled = pickle.loads(pickle.dumps(summary.summary()))
        assert check_invariants(unpickled) == summary.invariants
        applicable |= {name for name, entry in summary.invariants.items()
                       if entry["status"] != "skipped"}
    assert applicable == set(INVARIANTS)
