"""§V recovery on a *live* two-middleware cluster (the fleet deployment).

The single-middleware fault tests show the recovery protocol works when the
whole service blinks.  These show it composes with the fleet: crash
coordinator dm1 mid-run while dm2 keeps serving, then assert

* the survivor's traffic is unaffected — dm2 commits in every bucket of the
  crash window,
* dm1's restart pass resolves its own in-doubt branches (no prepared/active
  branch owned by dm1 predates the restart),
* abort accounting matches the single-middleware crash scenario: the same
  ``unavailable`` reason key, totals consistent with per-middleware
  attribution, and
* no transaction is lost or duplicated across the failover (unique ids,
  attribution sums equal to the collector totals).
"""

import pytest

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.metrics.availability import middleware_of
from repro.recovery import FaultEvent, FaultKind, FaultPlan
from repro.workloads.ycsb import YCSBConfig
from tests.conftest import recorded_completions

CRASH_AT_MS = 2_000.0
CRASH_MS = 1_000.0
RESTART_MS = CRASH_AT_MS + CRASH_MS


def fleet_crash_config(**overrides):
    defaults = dict(
        system="geotp", terminals=6, duration_ms=5_000.0, warmup_ms=1_000.0,
        middleware_count=2,
        ycsb=YCSBConfig(records_per_node=1_000, preload_rows_per_node=200),
        fault_plan=FaultPlan(events=(
            FaultEvent(kind=FaultKind.MIDDLEWARE_CRASH, at_ms=CRASH_AT_MS,
                       duration_ms=CRASH_MS, target="dm1"),)),
        seed=7)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def crash_run():
    """The run, with every ``(txn_id, committed)`` it recorded on ``.recorded``."""
    with recorded_completions() as recorded:
        result = run_experiment(fleet_crash_config(), keep_cluster=True)
    result.recorded = recorded
    return result


def test_survivor_serves_through_the_crash_window(crash_run):
    per_middleware = crash_run.collector.per_middleware_availability(5_000.0)
    survivor = per_middleware["dm2"]
    window = [committed for start, committed, _ in survivor.buckets
              if CRASH_AT_MS <= start < RESTART_MS]
    assert window and all(committed > 0 for committed in window), (
        f"dm2 went quiet during dm1's crash window: {survivor.buckets}")
    # And dm1 is back in service after the restart.
    assert crash_run.fleet["states"]["dm1"] == "up"
    post_heal = [committed for start, committed, _
                 in per_middleware["dm1"].buckets if start >= 4_000.0]
    assert sum(post_heal) > 0


def test_restart_pass_resolves_dm1_in_doubt_branches(crash_run):
    faults = crash_run.faults
    assert len(faults["recoveries"]) == 1
    recovery = faults["recoveries"][0]
    assert recovery["kind"] == "middleware_crash"
    assert recovery["restarted_at_ms"] >= RESTART_MS

    # Nothing dm1 owned is still unfinished from before the restart: the
    # crash sweep killed in-flight branches, the restart pass drove the
    # prepared ones to their logged outcome.
    for datasource in crash_run.cluster.datasources.values():
        for txn in datasource.transactions.values():
            if not txn.global_txn_id.startswith("dm1-"):
                continue
            if txn.state.value in ("active", "idle", "prepared"):
                assert txn.started_at > RESTART_MS, (
                    f"stale dm1 branch {txn.xid} in state {txn.state.value}")


def test_abort_accounting_matches_the_single_middleware_scenario(crash_run):
    single = run_experiment(fleet_crash_config(
        middleware_count=1, fault_plan=FaultPlan(events=(
            FaultEvent(kind=FaultKind.MIDDLEWARE_CRASH, at_ms=CRASH_AT_MS,
                       duration_ms=CRASH_MS),))))
    fleet_reasons = crash_run.collector.abort_reasons()
    single_reasons = single.collector.abort_reasons()
    # The crash shows up under the same reason key in both deployments...
    assert single_reasons.get("unavailable", 0) > 0
    assert "unavailable" in fleet_reasons
    # ...and every abort is accounted for, in total and per middleware.
    assert sum(fleet_reasons.values()) == crash_run.aborted
    attribution = crash_run.collector.attribution()
    assert sum(entry["aborted"] for entry in attribution.values()) == \
        crash_run.aborted
    # The fleet's own attribution (reported in the summary) agrees.
    assert crash_run.fleet["attribution"] == attribution
    # But the client-visible outage is far smaller with a survivor around.
    assert fleet_reasons["unavailable"] <= single_reasons["unavailable"]


def test_no_transaction_is_lost_or_duplicated(crash_run):
    ids = [txn_id for txn_id, _ in crash_run.recorded]
    assert len(ids) == len(set(ids)), "duplicated transaction ids"
    # Nothing handed to the collector went missing from its books.
    assert len(ids) == (crash_run.committed + crash_run.aborted
                        + crash_run.warmup_samples)
    commits = sum(committed for _, committed in crash_run.recorded)
    assert 0 <= commits - crash_run.committed <= crash_run.warmup_samples
    attribution = crash_run.collector.attribution()
    assert set(attribution) <= {"dm1", "dm2"}
    assert sum(e["committed"] for e in attribution.values()) == \
        crash_run.committed
    # Every sample is attributed to a real coordinator.
    assert all(middleware_of(txn_id) in ("dm1", "dm2") for txn_id in ids)


def test_fleet_report_carries_the_down_episode(crash_run):
    report = crash_run.fleet
    episodes = [e for e in report["down_episodes"]
                if e["middleware"] == "dm1"]
    assert episodes, f"no down episode for dm1: {report['down_episodes']}"
    episode = episodes[0]
    assert CRASH_AT_MS <= episode["down_at_ms"] < RESTART_MS
    assert episode["recovered_at_ms"] is not None
    assert episode["time_to_divert_ms"] is not None
    assert episode["time_to_divert_ms"] >= 0.0
