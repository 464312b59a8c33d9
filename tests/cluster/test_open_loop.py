"""Open-system client pool: accounting invariants, shedding, determinism.

The pool decouples offered load from achieved load, so the books must always
balance: every arrival is either started or dropped, every started session
eventually completes (or is still in flight when the run ends), and the pool
never runs more concurrent sessions than ``max_clients``.  These tests drive
the pool through ``run_experiment`` — the same path the load sweeps use — at
tiny scale.
"""

import pytest

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.metrics import DEFAULT_RESERVOIR_SIZE
from repro.workloads.arrivals import ArrivalConfig
from repro.workloads.ycsb import YCSBConfig


def open_config(rate_tps=120.0, max_clients=64, duration_ms=4_000.0,
                warmup_ms=500.0, seed=7, **kwargs):
    return ExperimentConfig(
        system="geotp",
        arrival=ArrivalConfig(rate_tps=rate_tps, max_clients=max_clients),
        duration_ms=duration_ms, warmup_ms=warmup_ms,
        ycsb=YCSBConfig(records_per_node=500),
        seed=seed, **kwargs)


@pytest.fixture(scope="module")
def moderate_run():
    return run_experiment(open_config())


@pytest.fixture(scope="module")
def saturated_run():
    # 600 arrivals/s into 8 session slots: hopelessly past the knee.
    return run_experiment(open_config(rate_tps=600.0, max_clients=8))


# ------------------------------------------------------------------ accounting
def test_every_arrival_is_started_or_dropped(moderate_run, saturated_run):
    for summary in (moderate_run, saturated_run):
        books = summary.open_loop
        assert books["offered"] > 0
        assert books["offered"] == books["started"] + books["dropped"]


def test_every_started_session_completes_or_is_in_flight(moderate_run,
                                                         saturated_run):
    for summary in (moderate_run, saturated_run):
        books = summary.open_loop
        assert books["started"] == books["completed"] + books["in_flight_at_end"]
        assert 0 <= books["in_flight_at_end"] <= books["max_clients"]


def test_completions_match_collector_totals(moderate_run):
    # Sessions that finish during warmup complete without entering the
    # measured totals, so equality holds exactly only at warmup 0; with a
    # warmup the measured totals can never exceed the completion count.
    books = moderate_run.open_loop
    assert moderate_run.committed + moderate_run.aborted <= books["completed"]
    no_warmup = run_experiment(open_config(warmup_ms=0.0))
    assert no_warmup.open_loop["completed"] == \
        no_warmup.committed + no_warmup.aborted


# -------------------------------------------------------------------- shedding
def test_pool_never_exceeds_max_clients(moderate_run, saturated_run):
    assert moderate_run.open_loop["peak_active"] <= 64
    assert saturated_run.open_loop["peak_active"] <= 8


def test_saturated_pool_sheds_instead_of_queueing(saturated_run):
    books = saturated_run.open_loop
    assert books["peak_active"] == books["max_clients"]
    assert books["dropped"] > 0
    assert books["drop_rate"] > 0.5  # 600 offered vs ~tens served


def test_unsaturated_pool_drops_nothing():
    summary = run_experiment(open_config(rate_tps=10.0, max_clients=64,
                                         duration_ms=3_000.0))
    books = summary.open_loop
    assert books["dropped"] == 0
    assert books["drop_rate"] == 0.0
    assert books["peak_active"] < books["max_clients"]


# ----------------------------------------------------------------- determinism
def test_same_seed_open_runs_are_identical():
    first = run_experiment(open_config(seed=13))
    second = run_experiment(open_config(seed=13))
    assert first.open_loop == second.open_loop
    assert (first.committed, first.aborted) == (second.committed,
                                                second.aborted)
    assert first.p99_latency_ms == second.p99_latency_ms


def test_different_seed_changes_the_arrival_stream():
    first = run_experiment(open_config(seed=13))
    other = run_experiment(open_config(seed=14))
    assert first.open_loop != other.open_loop


# ------------------------------------------------------------------ closed loop
def test_closed_loop_runs_have_no_open_loop_report(moderate_run):
    closed = run_experiment(ExperimentConfig(
        system="geotp", terminals=4, duration_ms=2_000.0, warmup_ms=500.0,
        ycsb=YCSBConfig(records_per_node=500)))
    assert closed.open_loop is None
    assert moderate_run.open_loop is not None
    # The load model is the one thing the runner reads to bound the latency
    # reservoirs; no metrics mode is configured or reported.
    assert closed.collector.reservoir_size is None
    assert moderate_run.collector.reservoir_size == DEFAULT_RESERVOIR_SIZE
    assert "metrics_mode" not in closed.summary().to_dict()
    assert "metrics_mode" not in moderate_run.summary().to_dict()


# ------------------------------------------------------------------ zero gaps
def test_a_zero_gap_admits_at_the_same_instant(monkeypatch):
    from types import SimpleNamespace

    from repro.cluster import RetryPolicy, open_loop
    from repro.common import TransactionResult, TxnOutcome
    from repro.sim import Environment

    env = Environment()
    submitted = []

    class Middleware:
        name = "dm"
        crashed = False

        def submit(self, spec):
            submitted.append(env.now)
            done = env.event()
            env.call_at(1.0, done.succeed, TransactionResult(
                txn_id=f"t{len(submitted)}", outcome=TxnOutcome.COMMITTED,
                start_time=env.now, end_time=env.now + 1.0,
                is_distributed=False))
            return done

    gaps = iter([10.0, 0.0, 0.0, 5.0])
    monkeypatch.setattr(open_loop, "make_arrivals", lambda config: SimpleNamespace(
        next_gap_ms=lambda now_ms: next(gaps, 1e9)))
    pool = open_loop.OpenClientPool(
        env, [Middleware()],
        SimpleNamespace(next_transaction=lambda slot: SimpleNamespace(
            txn_type="generic")),
        SimpleNamespace(record=lambda result, txn_type: None),
        ArrivalConfig(max_clients=4), duration_ms=100.0, retry=RetryPolicy())
    env.run(until=100.0)
    assert submitted == [10.0, 10.0, 10.0, 15.0]
    assert pool.report()["started"] == pool.report()["completed"] == 4
