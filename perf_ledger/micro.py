"""One microbenchmark per layer, through public calls only.

Each benchmark is a function ``bench(n) -> seconds`` that builds its own
fixture, times ``n`` operations with ``perf_counter`` and consumes their
result inside the timed region.  :func:`run_all` reports the median of
``BATCHES`` calls per benchmark, in the unit its name ends with
(host ``ns``/``us``/``ms`` per operation).  A benchmark whose public calls no
longer exist reports ``None`` with a warning, like the counted functions.
"""

from __future__ import annotations

import functools
import gc
import pickle
import shutil
import statistics
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import workloads as wl

BATCHES = 5
_UNIT_SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}

#: name -> (function, operations per batch); filled by ``@micro``.
MICROBENCHMARKS: Dict[str, Tuple[Callable[[int], float], int]] = {}


def micro(name: str, n: int):
    def register(fn: Callable[[int], float]) -> Callable[[int], float]:
        MICROBENCHMARKS[name] = (fn, n)
        return fn
    return register


def unit_of(name: str) -> str:
    return name.rsplit("_", 1)[1]


# ----------------------------------------------------------------- sim_kernel
@micro("sim_kernel.timeout_ns", 20_000)
def _timeout(n: int) -> float:
    from repro.sim import Environment
    env = Environment()
    delays = [float((i * 7919) % 1000 + 1) for i in range(n)]
    started = perf_counter()
    for delay in delays:
        env.timeout(delay)
    env.run()
    return perf_counter() - started


@micro("sim_kernel.spawn_resume_ns", 10_000)
def _spawn_resume(n: int) -> float:
    from repro.sim import Environment
    env = Environment()

    def body():
        yield 1.0

    started = perf_counter()
    for _ in range(n):
        env.process(body())
    env.run()
    return perf_counter() - started


@micro("sim_kernel.coarse_timer_churn_ns", 20_000)
def _coarse_timer_churn(n: int) -> float:
    from repro.sim import Environment
    env = Environment()
    fired: List[int] = []
    started = perf_counter()
    for i in range(n):
        env.call_coarse(5000.0 + i % 97, fired.append, i).cancel()
    env.run()
    elapsed = perf_counter() - started
    if fired:
        raise AssertionError("a cancelled wheel timer fired")
    return elapsed


# ---------------------------------------------------------------------- locks
@micro("locks.uncontended_ns", 10_000)
def _locks_uncontended(n: int) -> float:
    from repro.sim import Environment
    from repro.storage.lock_manager import LockManager, LockMode
    env = Environment()
    locks = LockManager(env)
    started = perf_counter()
    for i in range(n):
        locks.acquire("t%d" % (i // 5), ("usertable", i), LockMode.EXCLUSIVE)
        if i % 5 == 4:
            locks.release_all("t%d" % (i // 5))
    env.run()
    elapsed = perf_counter() - started
    if locks.stats.acquisitions != n or locks.stats.waits:
        raise AssertionError("uncontended acquires waited")
    return elapsed


@micro("locks.contended_handoff_ns", 5_000)
def _locks_contended(n: int) -> float:
    from repro.sim import Environment
    from repro.storage.lock_manager import LockManager, LockMode
    env = Environment()
    locks = LockManager(env)
    key = ("usertable", 0)
    started = perf_counter()
    for i in range(n):
        locks.acquire("t%d" % i, key, LockMode.EXCLUSIVE)
    for i in range(n):
        locks.release_all("t%d" % i)
    env.run()
    elapsed = perf_counter() - started
    if locks.stats.acquisitions != n or locks.stats.waits != n - 1:
        raise AssertionError("hand-off did not grant every waiter")
    return elapsed


# -------------------------------------------------------------------- network
def _two_nodes(rtt_ms: float):
    from repro.sim import ConstantLatency, Environment, Network
    env = Environment()
    network = Network(env)
    network.set_link("client", "server", ConstantLatency(rtt_ms))
    return env, network, network.interface("client")


@micro("network.request_reply_ns", 5_000)
def _request_reply(n: int) -> float:
    env, network, client = _two_nodes(10.0)
    server = network.interface("server")
    server.inbox.set_consumer(lambda message: server.reply(message, message.payload))
    replies: List[Any] = []

    def caller():
        for i in range(n):
            replies.append((yield client.request("server", "ping", i)))

    started = perf_counter()
    env.process(caller())
    env.run()
    elapsed = perf_counter() - started
    if replies != list(range(n)):
        raise AssertionError("request/reply lost or reordered a message")
    return elapsed


# -------------------------------------------------------------------- storage
@micro("storage.engine_rw_commit_ns", 10_000)
def _engine_rw_commit(n: int) -> float:
    from repro.storage.engine import StorageEngine
    engine = StorageEngine()
    engine.bulk_load("usertable", {i: {"field0": "x"} for i in range(1000)})
    written = 0
    started = perf_counter()
    for i in range(n):
        xid = "x%d" % i
        key = i % 1000
        engine.read(xid, "usertable", key)
        engine.buffer_write(xid, "usertable", key, {"field0": i})
        written += engine.commit_writes(xid)
    elapsed = perf_counter() - started
    if written != n:
        raise AssertionError("engine committed %d of %d writes" % (written, n))
    return elapsed


@micro("storage.wal_append_ns", 20_000)
def _wal_append(n: int) -> float:
    from repro.storage.wal import LogRecordType, WriteAheadLog
    wal = WriteAheadLog()
    started = perf_counter()
    for i in range(n):
        wal.append(LogRecordType.PREPARE, "x%d" % i, float(i))
        wal.append(LogRecordType.COMMIT, "x%d" % i, float(i))
    return (perf_counter() - started) / 2


@micro("storage.xa_roundtrip_us", 1_000)
def _xa_roundtrip(n: int) -> float:
    from repro import Operation, OpType, protocol
    from repro.storage.datasource import DataSource, DataSourceConfig
    env, network, client = _two_nodes(10.0)
    datasource = DataSource(env, network, DataSourceConfig(name="server"))
    datasource.load_table("usertable", {i: {"field0": "x"} for i in range(1000)})
    statuses: List[Any] = []

    def caller():
        for i in range(n):
            xid = {"xid": "x%d" % i}
            operations = [Operation(OpType.READ, "usertable", i % 1000),
                          Operation(OpType.UPDATE, "usertable", (i + 1) % 1000, i)]
            yield client.request("server", protocol.MSG_XA_START, xid)
            yield client.request("server", protocol.MSG_EXECUTE,
                                 {**xid, "operations": operations})
            yield client.request("server", protocol.MSG_XA_PREPARE, xid)
            statuses.append((yield client.request(
                "server", protocol.MSG_XA_COMMIT, xid))["status"])

    started = perf_counter()
    env.process(caller())
    env.run()
    elapsed = perf_counter() - started
    if statuses != ["ok"] * n or datasource.stats.commits != n:
        raise AssertionError("XA round trip did not commit every branch")
    return elapsed


# ----------------------------------------------------------------- middleware
def _node_names() -> List[str]:
    from repro import TopologyConfig
    return TopologyConfig.paper_default().node_names()


def _ycsb_workload():
    from repro import YCSBConfig
    from repro.workloads.ycsb import YCSBWorkload
    return YCSBWorkload(_node_names(), YCSBConfig(seed=1))


@micro("middleware.parse_ns", 5_000)
def _parse(n: int) -> float:
    from repro.middleware.parser import SqlParser
    workload = _ycsb_workload()
    sql = [statement.rendered_sql()
           for _ in range(20)
           for statement in workload.next_transaction(0).all_statements]
    parser = SqlParser()
    parsed = 0
    started = perf_counter()
    for i in range(n):
        parsed += parser.parse_statement(sql[i % len(sql)]).kind == "dml"
    elapsed = perf_counter() - started
    if parsed != n:
        raise AssertionError("parser rejected generated SQL")
    return elapsed


@micro("middleware.plan_round_ns", 5_000)
def _plan_round(n: int) -> float:
    from repro.middleware.rewriter import Rewriter
    workload = _ycsb_workload()
    rounds = [workload.next_transaction(0).rounds[0] for _ in range(50)]
    rewriter = Rewriter(workload.make_partitioner())
    planned = 0
    started = perf_counter()
    for i in range(n):
        planned += len(rewriter.plan_round(rounds[i % 50]))
    elapsed = perf_counter() - started
    if planned < n:
        raise AssertionError("a round planned to no participant")
    return elapsed


# ----------------------------------------------------------------------- core
def _record_ids(i: int) -> List[Tuple[str, int]]:
    return [("usertable", (i * 31 + j * 7) % 500) for j in range(5)]


@micro("core.schedule_ns", 5_000)
def _schedule(n: int) -> float:
    from repro.core import (GeoScheduler, HotspotFootprint,
                            LocalExecutionForecaster, NetworkLatencyMonitor)
    from repro.sim import Environment
    monitor = NetworkLatencyMonitor(Environment())
    names = _node_names()
    for index, name in enumerate(names):
        monitor.prime(name, 10.0 + 40.0 * index)
    footprint = HotspotFootprint()
    for i in range(200):
        footprint.update_latency(_record_ids(i), 3.0)
    scheduler = GeoScheduler(monitor, LocalExecutionForecaster(footprint),
                             use_forecast=True)
    rounds = [{names[0]: _record_ids(i)[:3], names[-1]: _record_ids(i)[3:]}
              for i in range(100)]
    total = 0.0
    started = perf_counter()
    for i in range(n):
        total += scheduler.schedule(rounds[i % 100]).max_total_latency
    elapsed = perf_counter() - started
    if total <= 0.0:
        raise AssertionError("scheduler produced an empty critical path")
    return elapsed


@micro("core.hotspot_update_ns", 5_000)
def _hotspot_update(n: int) -> float:
    from repro.core import HotspotFootprint
    footprint = HotspotFootprint()
    ids = [_record_ids(i) for i in range(200)]
    started = perf_counter()
    for i in range(n):
        records = ids[i % 200]
        footprint.on_access_start(records)
        footprint.update_latency(records, 3.0)
        footprint.on_access_end(records, committed=True)
    elapsed = perf_counter() - started
    if not len(footprint):
        raise AssertionError("hotspot footprint stayed empty")
    return elapsed


@micro("core.admission_evaluate_ns", 5_000)
def _admission_evaluate(n: int) -> float:
    from repro.core import HotspotFootprint, LateTransactionScheduler
    from repro.sim import SeededRNG
    footprint = HotspotFootprint()
    ids = [_record_ids(i) for i in range(200)]
    for i, records in enumerate(ids):
        footprint.on_access_start(records)
        if i % 3:
            footprint.on_access_end(records, committed=i % 2 == 0)
    admission = LateTransactionScheduler(footprint, SeededRNG(1))
    admitted = 0
    started = perf_counter()
    for i in range(n):
        admitted += admission.evaluate(ids[i % 200]).admitted
    elapsed = perf_counter() - started
    if not 0 < admitted <= n:
        raise AssertionError("admission admitted nothing")
    return elapsed


# ------------------------------------------------------------------ workloads
@micro("workloads.ycsb_next_ns", 5_000)
def _ycsb_next(n: int) -> float:
    workload = _ycsb_workload()
    statements = 0
    started = perf_counter()
    for i in range(n):
        statements += workload.next_transaction(i % 64).statement_count
    elapsed = perf_counter() - started
    if statements != 5 * n:
        raise AssertionError("YCSB transactions are not 5 statements long")
    return elapsed


@micro("workloads.tpcc_next_ns", 2_000)
def _tpcc_next(n: int) -> float:
    from repro import TPCCConfig
    from repro.workloads.tpcc import TPCCWorkload
    workload = TPCCWorkload(_node_names(), TPCCConfig(seed=1))
    statements = 0
    started = perf_counter()
    for i in range(n):
        statements += workload.next_transaction(i % 64).statement_count
    elapsed = perf_counter() - started
    if statements < n:
        raise AssertionError("TPC-C generated an empty transaction")
    return elapsed


@micro("workloads.arrival_gap_ns", 20_000)
def _arrival_gap(n: int) -> float:
    from repro.workloads.arrivals import ArrivalConfig, make_arrivals
    arrivals = make_arrivals(ArrivalConfig(process="poisson", rate_tps=250.0, seed=1))
    now = 0.0
    started = perf_counter()
    for _ in range(n):
        now += arrivals.next_gap_ms(now)
    elapsed = perf_counter() - started
    if not 0.5 * n * 4.0 < now < 2.0 * n * 4.0:
        raise AssertionError("Poisson gaps do not average 1/rate")
    return elapsed


# -------------------------------------------------------------------- metrics
def _transaction_results(count: int) -> List[Any]:
    from repro import AbortReason, TransactionResult, TxnOutcome
    return [TransactionResult(
        txn_id="dm-0:%d" % i,
        outcome=TxnOutcome.ABORTED if i % 10 == 0 else TxnOutcome.COMMITTED,
        start_time=float(i), end_time=float(i) + 50.0 + i % 37,
        is_distributed=i % 5 == 0,
        abort_reason=AbortReason.LOCK_TIMEOUT if i % 10 == 0 else None,
        phase_breakdown={"execution": 30.0, "prepare": 10.0, "commit": 10.0})
        for i in range(count)]


def _record_all(collector: Any, n: int) -> float:
    results = _transaction_results(n)
    started = perf_counter()
    for result in results:
        collector.record(result, "ycsb")
    elapsed = perf_counter() - started
    if collector.committed_count() + collector.aborted_count() != n:
        raise AssertionError("collector lost a sample")
    return elapsed


@micro("metrics.record_retained_ns", 10_000)
def _record_retained(n: int) -> float:
    from repro.metrics.collector import MetricsCollector
    return _record_all(MetricsCollector(), n)


@micro("metrics.record_streaming_ns", 10_000)
def _record_streaming(n: int) -> float:
    from repro.metrics.collector import StreamingMetricsCollector
    return _record_all(StreamingMetricsCollector(duration_ms=float(n) + 100.0), n)


@micro("metrics.p99_of_100k_us", 3)
def _p99_of_100k(n: int) -> float:
    from repro.metrics.percentiles import LatencyDistribution
    samples = [float((i * 7919) % 100_003) for i in range(100_000)]
    started = perf_counter()
    for _ in range(n):
        if LatencyDistribution(samples).p99 <= 0.0:
            raise AssertionError("p99 of positive samples is not positive")
    return perf_counter() - started


# ------------------------------------------------ cluster / recovery / bench
def _toy_config() -> Any:
    return wl.configs(wl.WORKLOADS["ycsb_closed"], seed=1, toy=True)[1]


@functools.lru_cache(maxsize=1)
def _toy_summary() -> Any:
    """One small real summary (run once per process) for the bench-layer
    benchmarks to hash, pickle and check."""
    from repro import run_experiment
    return run_experiment(_toy_config()).summary()


@micro("cluster.build_and_load_ms", 3)
def _build_and_load(n: int) -> float:
    config = wl.configs(wl.WORKLOADS["ycsb_closed"], seed=1)[1]
    started = perf_counter()
    for _ in range(n):
        if not wl.build_and_load(config).datasources:
            raise AssertionError("cluster has no data sources")
    return perf_counter() - started


@micro("recovery.check_invariants_us", 200)
def _check_invariants(n: int) -> float:
    from repro.recovery.invariants import check_invariants
    summary = _toy_summary()
    started = perf_counter()
    for _ in range(n):
        if wl.failed_invariants(check_invariants(summary)):
            raise AssertionError("a healthy summary failed an invariant")
    return perf_counter() - started


@micro("bench.config_hash_us", 200)
def _config_hash(n: int) -> float:
    from repro.bench.cache import config_hash
    config = _toy_config()
    digests = set()
    started = perf_counter()
    for _ in range(n):
        digests.add(config_hash(config))
    elapsed = perf_counter() - started
    if len(digests) != 1:
        raise AssertionError("config hash is not stable")
    return elapsed


@micro("bench.cache_store_lookup_us", 50)
def _cache_store_lookup(n: int) -> float:
    from repro.bench.cache import SweepCache
    from repro.bench.parallel import PointResult
    from repro.bench.scenarios import SweepPoint
    point = SweepPoint(index=0, params={"system": "geotp"}, config=_toy_config())
    result = PointResult(index=0, params=dict(point.params),
                         summary=_toy_summary(), wall_clock_s=0.1)
    wl.TMP_DIR.mkdir(parents=True, exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="micro_cache_", dir=wl.TMP_DIR))
    try:
        cache = SweepCache(str(directory))
        started = perf_counter()
        for _ in range(n):
            cache.store("micro", point, result)
            if cache.lookup("micro", point) is None:
                raise AssertionError("stored point was not found")
        return perf_counter() - started
    finally:
        shutil.rmtree(directory, ignore_errors=True)


@micro("bench.summary_roundtrip_us", 200)
def _summary_roundtrip(n: int) -> float:
    summary = _toy_summary()
    started = perf_counter()
    for _ in range(n):
        if pickle.loads(pickle.dumps(summary)).committed != summary.committed:
            raise AssertionError("summary changed across a pickle round trip")
    return perf_counter() - started


@functools.lru_cache(maxsize=1)
def _toy_sweep_document() -> Dict[str, Any]:
    """A toy ``load_sweep`` run in the CLI's JSON document shape (its public
    output format); simulated once per process."""
    from repro.bench.parallel import SweepRunner
    from repro.bench.scenarios import get_scenario
    p = wl.WORKLOADS["sweep_pipeline"].scaled(True)
    result = SweepRunner(max_workers=1).run(get_scenario(wl.SWEEP_SCENARIO).sweep(
        seed=1, duration_ms=p["duration_ms"], warmup_ms=p["warmup_ms"]))
    return {"scenario": wl.SWEEP_SCENARIO, "rows": [
        {"params": point.params, "wall_clock_s": point.wall_clock_s,
         **point.summary.to_dict(include_environment=True)} for point in result]}


@micro("bench.figures_build_ms", 50)
def _figures_build(n: int) -> float:
    from repro.bench.figures import build_figures, check_figure
    document = _toy_sweep_document()
    started = perf_counter()
    for _ in range(n):
        for figure in build_figures(document):
            if check_figure(figure):
                raise AssertionError("a figure failed its sanity checks")
    return perf_counter() - started


def run_all(names: Optional[List[str]] = None, toy: bool = False
            ) -> Tuple[Dict[str, Optional[float]], List[str]]:
    """``{name: median per-operation cost in the name's unit}`` and warnings.

    ``toy`` (the self-test's scale) runs one tenth-size batch per benchmark.
    """
    values: Dict[str, Optional[float]] = {}
    warnings = []
    for name, (fn, n) in MICROBENCHMARKS.items():
        if names is not None and name not in names:
            continue
        warm = max(n // 10, 1)
        # As timeit does: a cyclic collection landing in one batch would
        # dwarf the operations being timed.
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            fn(warm)                                         # warm-up batch
            batches = ([fn(warm) / warm] if toy
                       else [fn(n) / n for _ in range(BATCHES)])
        except (ImportError, AttributeError, TypeError) as exc:
            # A public call this benchmark uses was removed or reshaped.
            warnings.append(f"{name}: {type(exc).__name__}: {exc}")
            values[name] = None
            continue
        finally:
            if gc_was_enabled:
                gc.enable()
        values[name] = statistics.median(batches) * _UNIT_SCALE[unit_of(name)]
    return values, warnings
