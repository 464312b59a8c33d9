"""Fault runs judged on their drained end state, and the recovery gaps that closes.

A fault run reads its numbers at ``duration_ms`` and then drains: every heal,
restart and recovery pass completes before the ``wal_in_doubt`` census is
taken.  The census must then be empty — no PREPARED branch, no crashed node
still down, no transaction still live.  Each config below reaches a path
that, unguarded, leaves a branch PREPARED forever with its locks held:

* a dead GeoTP coordinator's postponed batch reaches its data source after
  the restart's recovery pass and prepares a branch nobody owns;
* a batch sent just before a middleware crash reaches its data source after
  the crash-time session kill and prepares behind the recovery listing;
* a data source's restart pass meets a live transaction whose COMMIT is
  already logged (its delivery hit the node while it was down);
* a middleware's pass finds a data source still down, and the data source
  restarts while the middleware is still recovering;
* a GeoTP agent receives a peer rollback while an execute of the same
  transaction is still paying its forwarding cost.
"""

import pytest

from repro import ExperimentConfig, run_experiment
from repro.plugins import system_names
from repro.recovery import FaultEvent, FaultKind, FaultPlan
from repro.recovery.invariants import violations

EMPTY_CENSUS = {"prepared": [], "down": [], "live": []}


def mw_crash(at_ms, duration_ms):
    return FaultEvent(kind=FaultKind.MIDDLEWARE_CRASH, at_ms=at_ms,
                      duration_ms=duration_ms)


def ds1_crash(at_ms, until_ms):
    return FaultEvent(kind=FaultKind.DATASOURCE_CRASH, at_ms=at_ms,
                      duration_ms=until_ms - at_ms, target="ds1")


def fault_run(system, workload, seed, terminals, *events,
              duration_ms=3_000.0):
    return run_experiment(ExperimentConfig(
        system=system, workload=workload, terminals=terminals,
        duration_ms=duration_ms, warmup_ms=300.0, seed=seed,
        fault_plan=FaultPlan(events=events)))


def assert_drained_clean(summary):
    assert summary.faults["wal_in_doubt"] == EMPTY_CENSUS, \
        violations(summary.invariants)
    assert violations(summary.invariants) == []


def test_a_dead_coordinators_postponed_batch_sends_nothing():
    assert_drained_clean(fault_run("geotp", "tpcc", 31, 1,
                                   mw_crash(374.0, 50.0)))


@pytest.mark.parametrize("at_ms", range(300, 2_001, 340))
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["ycsb", "tpcc"])
@pytest.mark.parametrize("system", ["geotp", "chiller"])
def test_a_middleware_crash_healed_in_1ms_leaves_nothing_in_doubt(
        system, workload, seed, at_ms):
    assert_drained_clean(fault_run(system, workload, seed, 8,
                                   mw_crash(float(at_ms), 1.0)))


@pytest.mark.parametrize("system", system_names())
def test_a_data_source_restart_drives_a_logged_decision_home(system):
    assert_drained_clean(fault_run(system, "ycsb", 6, 8,
                                   ds1_crash(325.0, 400.0)))


@pytest.mark.parametrize("workload, seed, terminals, ds_heal_ms", [
    ("ycsb", 2, 8, 700.0), ("tpcc", 2, 8, 700.0), ("ycsb", 34, 5, 600.0)])
@pytest.mark.parametrize("system", system_names())
def test_a_data_source_restarting_while_the_middleware_is_down_is_recovered(
        system, workload, seed, terminals, ds_heal_ms):
    summary = fault_run(system, workload, seed, terminals,
                        ds1_crash(325.0, ds_heal_ms), mw_crash(481.0, 119.0))
    assert_drained_clean(summary)
    kinds = sorted(r["kind"] for r in summary.faults["recoveries"])
    assert kinds == ["datasource_crash", "middleware_crash"]


def test_a_crash_healing_after_the_run_is_recovered_in_the_drain():
    summary = fault_run("ssp", "ycsb", 1, 5, ds1_crash(407.0, 1_907.0),
                        duration_ms=1_500.0)
    assert_drained_clean(summary)
    (recovery,) = summary.faults["recoveries"]
    assert recovery["restarted_at_ms"] >= 1_907.0


def test_a_peer_rollback_is_not_overtaken_by_a_late_execute():
    summary = run_experiment(ExperimentConfig(
        system="geotp", workload="ecommerce", terminals=4,
        duration_ms=3_000.0, warmup_ms=600.0,
        fault_plan=FaultPlan.named("cascade", 3_000.0)))
    assert_drained_clean(summary)
    assert (summary.committed, summary.aborted) == (46, 4)
