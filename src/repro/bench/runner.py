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

from repro.cluster.client import start_terminals
from repro.cluster.deployment import Cluster, build_cluster
from repro.cluster.fleet import FleetConfig, MiddlewareFleet, RetryPolicy
from repro.cluster.open_loop import OpenClientPool
from repro.cluster.topology import TopologyConfig
from repro.core.config import GeoTPConfig
from repro.metrics.collector import MetricsCollector
from repro.metrics.percentiles import DEFAULT_RESERVOIR_SIZE, LatencyDistribution
from repro.metrics.resources import ResourceUsage, process_peak_rss_bytes
from repro.plugins import get_workload_plugin
from repro.recovery.failures import FaultInjector, FaultPlan
from repro.recovery.invariants import check_invariants
from repro.sim.latency import DynamicLatency
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
    #: plugins); takes precedence over ``ycsb``/``tpcc`` when set.  ``None``
    #: means "the plugin's default configuration".
    workload_config: Optional[WorkloadConfig] = None
    geotp: Optional[GeoTPConfig] = None
    #: Number of coordinator middlewares.  With the default topology, values
    #: above 1 build ``TopologyConfig.multi_middleware(["beijing"] * K)``, a
    #: fleet co-located with the clients for every K; with an explicit
    #: topology the counts must agree.  More than one middleware implies a
    #: client-side fleet (see ``fleet``).
    middleware_count: int = 1
    #: Fleet routing/failure-detection settings.  ``None`` with a single
    #: middleware means "no fleet" — terminals stay pinned exactly as before;
    #: with several middlewares a default :class:`FleetConfig` is used.
    fleet: Optional[FleetConfig] = None
    #: Client retry/backoff discipline after an ``UNAVAILABLE`` outcome and
    #: for fleet failover.  The default is a fixed 50 ms pause without
    #: jitter; fleet scenarios pass ``RetryPolicy()`` (capped exponential
    #: backoff with seeded jitter).  Fields are sweepable axes
    #: (``retry.base_ms``).
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(
        base_ms=50.0, cap_ms=50.0, multiplier=1.0, jitter=0.0))
    #: Bucket width of the run's time grid (throughput series, availability).
    timeline_bucket_ms: float = 1000.0
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


@dataclass
class ExperimentSummary:
    """The outcome of one experiment point, as :func:`run_experiment` returns it.

    Plain scalars, sample lists and small value objects, plus two live
    handles: the run's ``collector`` and, with ``keep_cluster=True``, its
    ``cluster``.  Those hold simulation state, so :meth:`summary` detaches
    them; the detached copy is what crosses process boundaries when sweeps
    run on a worker pool (:class:`~repro.bench.parallel.SweepRunner`) and
    what the sweep cache stores.
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
    #: ``{"bucket_ms": width, "series": [[bucket_start_ms, tps], ...]}``, the
    #: run's throughput series (``MetricsCollector.throughput_series``).
    timeline: Optional[Dict[str, Any]] = None
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
    #: once per run in :func:`run_experiment`.
    invariants: Optional[Dict[str, Dict[str, str]]] = None
    #: The run's live :class:`MetricsCollector` (per-type counts and
    #: latencies, availability grids, attribution); ``None`` once detached.
    collector: Optional[MetricsCollector] = field(
        default=None, repr=False, compare=False)
    #: The live cluster of a ``keep_cluster=True`` run (to read its parts'
    #: ``stats`` or drive it further); ``None`` otherwise and once detached.
    cluster: Optional[Cluster] = field(default=None, repr=False, compare=False)

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

    def summary_row(self):
        """A compact row used by the report tables."""
        return (self.system, round(self.throughput_tps, 1),
                round(self.average_latency_ms, 1), round(self.p99_latency_ms, 1),
                round(self.abort_rate * 100, 1))

    def summary(self) -> "ExperimentSummary":
        """A detached copy: the same fields without ``collector``/``cluster``.

        Picklable; the sweep's worker processes return it and the sweep
        cache stores it.
        """
        return replace(self, collector=None, cluster=None)

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
            out["timeline"] = self.timeline
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
                   keep_cluster: bool = False) -> ExperimentSummary:
    """Run one experiment point and aggregate its metrics.

    The robustness invariants are evaluated once, on the finished result,
    so every point carries its own safety report (``result.invariants``).

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
                ["beijing"] * config.middleware_count)
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
                            geotp_config=config.geotp, seed=config.seed)
    cluster.load_workload(workload)

    needs_fleet = config.fleet is not None or config.middleware_count > 1
    # An open-system run has no bound on its transaction count, so its latency
    # distributions are bounded reservoirs; a closed loop keeps every sample.
    collector = MetricsCollector(
        warmup_ms=config.warmup_ms, duration_ms=config.duration_ms,
        reservoir_size=(DEFAULT_RESERVOIR_SIZE if config.arrival is not None
                        else None),
        seed=config.seed, track_middlewares=needs_fleet,
        bucket_ms=config.timeline_bucket_ms)

    # Active probing pays off only when link latencies move on their own
    # schedule, outside the workload's view (Figure 11b): start it on every
    # coordinator that can probe iff some data node's link is a
    # DynamicLatency schedule.
    if any(isinstance(node.latency_model, DynamicLatency)
           for node in topology.data_nodes):
        for middleware in cluster.middlewares:
            if hasattr(middleware, "start_probing"):
                middleware.start_probing()

    fault_injector = None
    if config.fault_plan is not None:
        fault_injector = FaultInjector(cluster, config.fault_plan)
        fault_injector.install()

    # The fleet is strictly opt-in: single-middleware runs without an explicit
    # FleetConfig take the pinned path (no fleet, no probe process), so the
    # golden pins stay byte-identical.  Multi-middleware runs always get one.
    fleet = None
    if needs_fleet:
        fleet = MiddlewareFleet(cluster.env, cluster.middlewares,
                                config.fleet or FleetConfig())

    open_pool = None
    if config.arrival is not None:
        open_pool = OpenClientPool(
            cluster.env, cluster.middlewares, workload, collector,
            arrival=config.arrival.stamped(config.seed),
            duration_ms=config.duration_ms,
            fleet=fleet, retry=config.retry, seed=config.seed)
    else:
        start_terminals(cluster.env, cluster.middlewares, workload, collector,
                        terminal_count=config.terminals,
                        duration_ms=config.duration_ms,
                        fleet=fleet, retry=config.retry, seed=config.seed)
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
            for name, report in collector.per_middleware_availability().items()}

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
    resources = ResourceUsage(
        work_units=sum(m.stats.work_units for m in cluster.middlewares),
        wan_messages=sum(m.stats.wan_messages for m in cluster.middlewares),
        metadata_bytes=sum(m.stats.metadata_bytes for m in cluster.middlewares),
        committed=sum(m.stats.committed for m in cluster.middlewares),
    )

    result = ExperimentSummary(
        system=config.system,
        workload=config.workload,
        terminals=config.terminals,
        seed=config.seed,
        measured_duration_ms=measured,
        throughput_tps=collector.throughput_tps(measured),
        average_latency_ms=latency.mean,
        p99_latency_ms=latency.p99 if len(latency) else 0.0,
        abort_rate=collector.abort_rate(),
        committed=collector.committed_count(),
        aborted=collector.aborted_count(),
        breakdown=collector.phase_breakdown().average(),
        resources=resources,
        abort_reasons=collector.abort_reasons(),
        latency_samples=latency.samples,
        centralized_latency_samples=collector.latency_distribution(
            distributed=False).samples,
        distributed_latency_samples=collector.latency_distribution(
            distributed=True).samples,
        timeline={"bucket_ms": config.timeline_bucket_ms,
                  "series": collector.throughput_series()},
        events_processed=cluster.env.events_processed,
        fleet=fleet_report,
        open_loop=open_pool.report() if open_pool is not None else None,
        admission=admission_report,
        peak_rss_bytes=process_peak_rss_bytes(),
        warmup_samples=collector.warmup_samples,
        collector=collector,
        cluster=cluster if keep_cluster else None,
    )
    if fault_injector is not None:
        # Every number above was read at the cut.  Drain (nothing new is
        # submitted or recorded) until every heal, restart and recovery pass
        # has run, then take the end-state census.
        cluster.env.run(until=fault_injector.drain_until_ms(config.duration_ms))
        result.faults = fault_injector.summarize(collector)
    result.invariants = check_invariants(result)
    if not keep_cluster:
        # End of the cluster's life: break its reference cycles so it is
        # freed here, by reference counting, not by a collection that would
        # pause the next point.
        cluster.close()
    return result
