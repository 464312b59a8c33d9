"""The experiment runner: one call builds a cluster, drives terminals, reports metrics.

This is the public entry point used by the examples and every benchmark:

>>> from repro import ExperimentConfig, run_experiment
>>> result = run_experiment(ExperimentConfig(system="geotp", terminals=16,
...                                          duration_ms=5_000))
>>> result.throughput_tps  # doctest: +SKIP
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Sequence

from repro.baselines.scalardb import ScalarDBConfig
from repro.cluster.client import start_terminals
from repro.cluster.deployment import Cluster, build_cluster
from repro.cluster.fleet import FleetConfig, MiddlewareFleet, RetryPolicy
from repro.cluster.open_loop import OpenClientPool
from repro.cluster.topology import TopologyConfig
from repro.core.config import GeoTPConfig
from repro.metrics.collector import MetricsCollector
from repro.metrics.percentiles import DEFAULT_RESERVOIR_SIZE, LatencyDistribution
from repro.metrics.resources import ResourceUsage, process_peak_rss_bytes
from repro.metrics.timeline import ThroughputTimeline
from repro.middleware.middleware import MiddlewareConfig
from repro.plugins import get_workload_plugin
from repro.recovery.failures import FaultInjector, FaultPlan
from repro.recovery.invariants import check_invariants
from repro.workloads.arrivals import ArrivalConfig
from repro.workloads.base import Workload, WorkloadConfig
from repro.workloads.tpcc import TPCCConfig
from repro.workloads.ycsb import YCSBConfig


@dataclass
class ExperimentConfig:
    """Everything needed to run one experiment point."""

    system: str = "geotp"
    workload: str = "ycsb"                      # any name in the workload registry
    topology: Optional[TopologyConfig] = None   # defaults to the paper topology
    terminals: int = 64
    duration_ms: float = 20_000.0
    warmup_ms: float = 2_000.0
    ycsb: YCSBConfig = field(default_factory=YCSBConfig)
    tpcc: TPCCConfig = field(default_factory=TPCCConfig)
    #: Config for registry workloads without a dedicated field above (contrib
    #: and third-party plugins); takes precedence over ``ycsb``/``tpcc`` when
    #: set.  ``None`` means "the plugin's default configuration".
    workload_config: Optional[WorkloadConfig] = None
    geotp: Optional[GeoTPConfig] = None
    scalardb: Optional[ScalarDBConfig] = None
    middleware: Optional[MiddlewareConfig] = None
    #: Number of coordinator middlewares.  With the default topology, values
    #: above 1 build ``TopologyConfig.multi_middleware(num_middlewares=K)``
    #: (a co-located fleet for K != 2, the Fig. 15 split for K = 2); with an
    #: explicit topology the counts must agree.  More than one middleware
    #: implies a client-side fleet (see ``fleet``).
    middleware_count: int = 1
    #: Fleet routing/failure-detection settings.  ``None`` with a single
    #: middleware means "no fleet" — terminals stay pinned exactly as before;
    #: with several middlewares a default :class:`FleetConfig` is used.
    fleet: Optional[FleetConfig] = None
    #: Client retry/backoff discipline.  ``None`` keeps the deprecated fixed
    #: ``ClientTerminal.RETRY_BACKOFF_MS`` pause (single-middleware legacy
    #: behaviour); fleet runs default to a :class:`RetryPolicy` so failover
    #: works out of the box.  Fields are sweepable axes (``retry.base_ms``).
    retry: Optional[RetryPolicy] = None
    #: Bucket width for the throughput time series (None disables the timeline).
    timeline_bucket_ms: Optional[float] = None
    #: Enable GeoTP's active latency probing (needed when link latencies change
    #: while the workload is not exercising them, Figure 11b).
    active_probing: bool = False
    #: Scheduled faults (crashes, outages, partitions, latency spikes) to
    #: inject during the run; ``None`` runs fault-free.  When set, the runner
    #: wires up a :class:`~repro.recovery.failures.FaultInjector` and the
    #: summary carries the fault/availability report in ``faults``.
    fault_plan: Optional[FaultPlan] = None
    #: Open-system traffic shape.  ``None`` (the default) keeps the
    #: closed-loop terminal model; setting it replaces the terminals with an
    #: :class:`~repro.cluster.open_loop.OpenClientPool` driven at
    #: ``arrival.rate_tps`` — the sweepable offered-load axis
    #: (``arrival.rate_tps`` in scenario specs).
    arrival: Optional[ArrivalConfig] = None
    seed: int = 0


def _summary_row(self):
    """A compact row used by the report tables."""
    return (self.system, round(self.throughput_tps, 1),
            round(self.average_latency_ms, 1), round(self.p99_latency_ms, 1),
            round(self.abort_rate * 100, 1))


@dataclass
class ExperimentSummary:
    """The slim, picklable aggregate of one experiment point.

    This is what crosses process boundaries when sweeps run on a worker pool
    (:class:`~repro.bench.parallel.SweepRunner`): plain scalars, sample lists
    and small value objects — never the live ``collector`` or ``cluster``,
    which hold simulation processes and stay local to the worker.
    """

    system: str
    workload: str
    terminals: int
    seed: int
    measured_duration_ms: float
    throughput_tps: float
    average_latency_ms: float
    p99_latency_ms: float
    abort_rate: float
    committed: int
    aborted: int
    breakdown: Dict[str, float]
    resources: ResourceUsage
    abort_reasons: Dict[str, int]
    #: Latency samples (ms) of committed transactions, split by distribution:
    #: every sample of a closed-loop run; for an open-system run at most
    #: ``DEFAULT_RESERVOIR_SIZE`` per field (a uniform reservoir once
    #: ``committed`` exceeds it — ``len(latency_samples) < committed`` tells).
    latency_samples: Sequence[float]
    centralized_latency_samples: Sequence[float]
    distributed_latency_samples: Sequence[float]
    timeline: Optional[ThroughputTimeline] = None
    #: Total simulation queue entries dispatched (events + timers).
    events_processed: int = 0
    #: Fault/availability report of a fault-injection run (plan, injector log,
    #: recovery passes, per-second availability, time-to-recover); ``None``
    #: for fault-free runs.  See ``FaultInjector.summarize``.
    faults: Optional[Dict[str, Any]] = None
    #: Fleet report of a multi-middleware run (routing policy, per-middleware
    #: commit/abort/failover attribution, health transitions, time-to-divert,
    #: per-middleware availability timelines); ``None`` when no fleet ran.
    fleet: Optional[Dict[str, Any]] = None
    #: Offered-vs-served accounting of an open-system run (arrival process,
    #: offered/started/dropped/completed counts, peak concurrent sessions);
    #: ``None`` for closed-loop runs.  See ``OpenClientPool.report``.
    open_loop: Optional[Dict[str, Any]] = None
    #: Admission-control counters summed over middlewares that expose a
    #: ``LateTransactionScheduler`` (GeoTP, ScalarDB+); ``None`` otherwise.
    admission: Optional[Dict[str, int]] = None
    #: Peak RSS (bytes) of the process that ran this experiment, read after
    #: the run.  A whole-process high-water mark: points sharing a pooled
    #: sweep worker see monotonically increasing values, so treat it as an
    #: upper bound there (fresh subprocesses give isolated readings).
    peak_rss_bytes: int = 0
    #: Committed/aborted samples that landed inside the warmup window and
    #: were therefore excluded from the measured counters above.  Needed by
    #: the open-system accounting invariant (pool books count *all*
    #: completed sessions, measured counters only post-warmup ones).
    warmup_samples: int = 0
    #: Robustness-invariant report produced by
    #: :func:`repro.recovery.invariants.check_invariants` — ``{name:
    #: {"status": "passed"|"failed"|"skipped", "detail": str}}``.  Computed
    #: once per run in :meth:`ExperimentResult.summary`.
    invariants: Optional[Dict[str, Dict[str, str]]] = None

    # ------------------------------------------------------------ conveniences
    @property
    def latency(self) -> LatencyDistribution:
        """Latency distribution of all committed transactions."""
        return LatencyDistribution(self.latency_samples)

    def latency_for(self, distributed: Optional[bool] = None) -> LatencyDistribution:
        """Latency distribution filtered by centralized/distributed."""
        if distributed is None:
            return self.latency
        samples = (self.distributed_latency_samples if distributed
                   else self.centralized_latency_samples)
        return LatencyDistribution(samples)

    summary_row = _summary_row

    def to_dict(self, include_samples: bool = False,
                include_environment: bool = False) -> Dict:
        """A JSON-serialisable dict (the CLI output format).

        The default payload is fully determined by (config, seed) —
        the serial-vs-parallel identity checks compare it directly.
        ``include_environment`` adds measurements of the *process* that ran
        the point (``peak_rss_bytes``), which legitimately differ between a
        serial run and a pool worker.
        """
        out = {
            "system": self.system,
            "workload": self.workload,
            "terminals": self.terminals,
            "seed": self.seed,
            "measured_duration_ms": self.measured_duration_ms,
            "throughput_tps": self.throughput_tps,
            "average_latency_ms": self.average_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "abort_rate": self.abort_rate,
            "committed": self.committed,
            "aborted": self.aborted,
            "breakdown": dict(self.breakdown),
            "abort_reasons": dict(self.abort_reasons),
            "events_processed": self.events_processed,
            "resources": {
                "work_units": self.resources.work_units,
                "wan_messages": self.resources.wan_messages,
                "metadata_bytes": self.resources.metadata_bytes,
                "work_per_commit": self.resources.work_per_commit,
                "wan_messages_per_commit": self.resources.wan_messages_per_commit,
            },
        }
        if self.timeline is not None:
            out["timeline"] = {
                "bucket_ms": self.timeline.bucket_ms,
                "series": [list(pair) for pair in self.timeline.series()],
            }
        if self.faults is not None:
            out["faults"] = self.faults
        if self.fleet is not None:
            out["fleet"] = self.fleet
        if self.open_loop is not None:
            out["open_loop"] = self.open_loop
        if self.admission is not None:
            out["admission"] = self.admission
        out["warmup_samples"] = self.warmup_samples
        if self.invariants is not None:
            out["invariants"] = self.invariants
        if include_environment:
            out["peak_rss_bytes"] = self.peak_rss_bytes
        if include_samples:
            out["latency_samples"] = list(self.latency_samples)
        return out


@dataclass
class ExperimentResult:
    """Aggregated outcome of one experiment point."""

    system: str
    workload: str
    terminals: int
    measured_duration_ms: float
    throughput_tps: float
    average_latency_ms: float
    p99_latency_ms: float
    abort_rate: float
    committed: int
    aborted: int
    latency: LatencyDistribution
    breakdown: Dict[str, float]
    resources: ResourceUsage
    collector: MetricsCollector
    timeline: Optional[ThroughputTimeline] = None
    cluster: Optional[Cluster] = None
    seed: int = 0
    #: Total simulation queue entries dispatched (events + timers).
    events_processed: int = 0
    #: Fault/availability report of a fault-injection run (see
    #: ``ExperimentSummary.faults``); ``None`` for fault-free runs.
    faults: Optional[Dict[str, Any]] = None
    #: Fleet report of a multi-middleware run (see ``ExperimentSummary.fleet``).
    fleet: Optional[Dict[str, Any]] = None
    #: See the same-named ``ExperimentSummary`` fields.
    open_loop: Optional[Dict[str, Any]] = None
    admission: Optional[Dict[str, int]] = None
    peak_rss_bytes: int = 0
    warmup_samples: int = 0

    # ------------------------------------------------------------ conveniences
    def throughput_for(self, txn_type: str) -> float:
        """Committed transactions per second of one transaction type."""
        return self.collector.throughput_tps(self.measured_duration_ms, txn_type)

    def average_latency_for(self, txn_type: str) -> float:
        """Average latency (ms) of one transaction type."""
        return self.collector.average_latency_ms(txn_type=txn_type)

    def latency_for(self, txn_type: Optional[str] = None,
                    distributed: Optional[bool] = None) -> LatencyDistribution:
        """Latency distribution filtered by transaction type / distribution."""
        return self.collector.latency_distribution(txn_type=txn_type,
                                                   distributed=distributed)

    summary_row = _summary_row

    def summary(self) -> ExperimentSummary:
        """The picklable summary of this result (drops collector/cluster).

        Robustness invariants are evaluated here — once, on the complete
        summary — so every sweep point carries its own safety report without
        callers having to opt in.
        """
        summary = ExperimentSummary(
            system=self.system,
            workload=self.workload,
            terminals=self.terminals,
            seed=self.seed,
            measured_duration_ms=self.measured_duration_ms,
            throughput_tps=self.throughput_tps,
            average_latency_ms=self.average_latency_ms,
            p99_latency_ms=self.p99_latency_ms,
            abort_rate=self.abort_rate,
            committed=self.committed,
            aborted=self.aborted,
            breakdown=dict(self.breakdown),
            resources=self.resources,
            abort_reasons=self.collector.abort_reasons(),
            latency_samples=self.latency.samples,
            centralized_latency_samples=self.collector.latency_distribution(
                distributed=False).samples,
            distributed_latency_samples=self.collector.latency_distribution(
                distributed=True).samples,
            timeline=self.timeline,
            events_processed=self.events_processed,
            faults=self.faults,
            fleet=self.fleet,
            open_loop=self.open_loop,
            admission=self.admission,
            peak_rss_bytes=self.peak_rss_bytes,
            warmup_samples=self.warmup_samples,
        )
        summary.invariants = check_invariants(summary)
        return summary


def make_workload(config: ExperimentConfig, node_names) -> Workload:
    """Instantiate the workload generator selected by ``config``.

    The workload name resolves through the plugin registry (aliases like
    ``TPC-C`` included), so registering a :class:`~repro.plugins.WorkloadPlugin`
    is all a new workload needs — no edits here.  The workload config is
    copied before the experiment seed is stamped onto it, so a config shared
    across several ``ExperimentConfig``s never silently carries the last seed
    it ran with.
    """
    plugin = get_workload_plugin(config.workload)
    workload_config = config.workload_config
    if workload_config is not None and plugin.config_type is not None \
            and not isinstance(workload_config, plugin.config_type):
        # A stale workload_config from a previously selected workload would
        # otherwise reach the wrong factory and fail far from the cause.
        raise TypeError(
            f"workload {config.workload!r} expects a "
            f"{plugin.config_type.__name__} workload_config, got "
            f"{type(workload_config).__name__}")
    if workload_config is None and plugin.config_field is not None:
        workload_config = getattr(config, plugin.config_field, None)
    if workload_config is None:
        workload_config = plugin.config_factory()
    return plugin.create(node_names, replace(workload_config, seed=config.seed))


def run_experiment(config: ExperimentConfig,
                   keep_cluster: bool = False) -> ExperimentResult:
    """Run one experiment point and aggregate its metrics.

    The cluster lives for this call only: it is built, loaded, run and — on
    exit — closed (:meth:`~repro.cluster.deployment.Cluster.close`), so it is
    freed at return.  ``keep_cluster=True`` skips the close and hands the live
    cluster back on ``result.cluster`` (to read its parts' ``stats`` or drive
    it further); closing it is then up to the caller.
    """
    if config.warmup_ms >= config.duration_ms:
        raise ValueError("warmup_ms must be smaller than duration_ms")
    if config.middleware_count < 1:
        raise ValueError("middleware_count must be >= 1")
    topology = config.topology
    if topology is None:
        if config.middleware_count > 1:
            topology = TopologyConfig.multi_middleware(
                num_middlewares=config.middleware_count)
        else:
            topology = TopologyConfig.paper_default()
    elif (config.middleware_count > 1
          and len(topology.middlewares) != config.middleware_count):
        raise ValueError(
            f"middleware_count={config.middleware_count} disagrees with the "
            f"explicit topology ({len(topology.middlewares)} middlewares)")
    workload = make_workload(config, topology.node_names())
    partitioner = workload.make_partitioner()
    cluster = build_cluster(config.system, topology, partitioner,
                            middleware_config=config.middleware,
                            geotp_config=config.geotp,
                            scalardb_config=config.scalardb,
                            seed=config.seed)
    cluster.load_workload(workload)

    needs_fleet = config.fleet is not None or config.middleware_count > 1
    timeline = (ThroughputTimeline(bucket_ms=config.timeline_bucket_ms)
                if config.timeline_bucket_ms else None)
    # An open-system run has no bound on its transaction count, so its latency
    # distributions are bounded reservoirs; a closed loop keeps every sample.
    collector = MetricsCollector(
        warmup_ms=config.warmup_ms, duration_ms=config.duration_ms,
        reservoir_size=(DEFAULT_RESERVOIR_SIZE if config.arrival is not None
                        else None),
        seed=config.seed, track_middlewares=needs_fleet, timeline=timeline)

    if config.active_probing:
        for middleware in cluster.middlewares:
            if hasattr(middleware, "start_probing"):
                middleware.start_probing()

    fault_injector = None
    if config.fault_plan is not None:
        fault_injector = FaultInjector(cluster, config.fault_plan)
        fault_injector.install()

    # The fleet is strictly opt-in: single-middleware runs without an explicit
    # FleetConfig take the pinned legacy path (no fleet, no probe process), so
    # the golden pins stay byte-identical.  Multi-middleware runs always get
    # one, and a fleet without a retry policy would be unable to fail over —
    # default it.
    fleet = None
    retry = config.retry
    if needs_fleet:
        fleet = MiddlewareFleet(cluster.env, cluster.middlewares,
                                config.fleet or FleetConfig())
        if retry is None:
            retry = RetryPolicy()

    open_pool = None
    if config.arrival is not None:
        open_pool = OpenClientPool(
            cluster.env, cluster.middlewares, workload, collector,
            arrival=config.arrival.stamped(config.seed),
            duration_ms=config.duration_ms,
            fleet=fleet, retry=retry, seed=config.seed)
    else:
        start_terminals(cluster.env, cluster.middlewares, workload, collector,
                        terminal_count=config.terminals,
                        duration_ms=config.duration_ms,
                        fleet=fleet, retry=retry, seed=config.seed)
    # Suspending the cyclic GC removes its pauses from the hot loop.  Nothing
    # is lost by it: finished processes, expired lock waits and their timers
    # are all reclaimed by plain reference counting (the kernel leaves no
    # cycle behind in steady state), so garbage does not accumulate with run
    # length, and ``cluster.close()`` below does the same for the whole
    # deployment at the end.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        cluster.env.run(until=config.duration_ms)
    finally:
        if gc_was_enabled:
            gc.enable()

    fleet_report = None
    if fleet is not None:
        fleet_report = fleet.summary()
        # Attribution is derived per middleware, so it sums exactly to the
        # collector's committed/aborted totals — the invariant the
        # zero-lost/zero-duplicated checks assert.
        fleet_report["attribution"] = collector.attribution()
        fleet_report["availability_per_middleware"] = {
            name: report.to_dict()
            for name, report in collector.per_middleware_availability(
                config.duration_ms).items()}

    admission_report = None
    schedulers = [m.admission for m in cluster.middlewares
                  if getattr(m, "admission", None) is not None]
    if schedulers:
        admission_report = {
            "admitted": sum(s.admitted_count for s in schedulers),
            "blocked": sum(s.blocked_count for s in schedulers),
            "rejected": sum(s.rejected_count for s in schedulers),
        }

    measured = config.duration_ms - config.warmup_ms
    latency = collector.latency_distribution()
    breakdown = collector.phase_breakdown()

    resources = ResourceUsage(
        work_units=sum(m.stats.work_units for m in cluster.middlewares),
        wan_messages=sum(m.stats.wan_messages for m in cluster.middlewares),
        metadata_bytes=sum(m.stats.metadata_bytes for m in cluster.middlewares),
        committed=sum(m.stats.committed for m in cluster.middlewares),
    )

    result = ExperimentResult(
        system=config.system,
        workload=config.workload,
        terminals=config.terminals,
        measured_duration_ms=measured,
        throughput_tps=collector.throughput_tps(measured),
        average_latency_ms=latency.mean,
        p99_latency_ms=latency.p99 if len(latency) else 0.0,
        abort_rate=collector.abort_rate(),
        committed=collector.committed_count(),
        aborted=collector.aborted_count(),
        latency=latency,
        breakdown=breakdown.average(),
        resources=resources,
        collector=collector,
        timeline=timeline,
        cluster=cluster if keep_cluster else None,
        seed=config.seed,
        events_processed=cluster.env.events_processed,
        faults=(fault_injector.summarize(collector, config.duration_ms)
                if fault_injector is not None else None),
        fleet=fleet_report,
        open_loop=open_pool.report() if open_pool is not None else None,
        admission=admission_report,
        peak_rss_bytes=process_peak_rss_bytes(),
        warmup_samples=collector.warmup_samples,
    )
    if not keep_cluster:
        # End of the cluster's life: break its reference cycles so it is
        # freed here, by reference counting, not by a collection that would
        # pause the next point.
        cluster.close()
    return result
