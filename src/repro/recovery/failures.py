"""Fault injection: primitive crash/restart helpers and scheduled fault plans.

Two layers live here:

* :class:`FailureInjector` — the low-level primitives the recovery tests use
  directly: crash/restart one middleware or data source.
* The **scheduled fault subsystem** — a declarative :class:`FaultPlan` (timed
  :class:`FaultEvent`\\ s: middleware/data-source crash-and-restart, region
  outage, network partition, transient latency degradation) executed by a
  :class:`FaultInjector` against a live
  :class:`~repro.cluster.deployment.Cluster`.  The experiment runner wires one
  up whenever ``ExperimentConfig.fault_plan`` is set, so every registered
  scenario, the sweep runner and the CLI can run fault experiments unchanged.

The injector owns the full fault lifecycle: it schedules each event on the
simulation clock, performs the disruption (interrupting in-flight coordinator
work and rolling back the orphaned database sessions a real crash would kill),
schedules the heal/restart, runs the §V-A recovery protocol
(:class:`~repro.recovery.recovery_manager.RecoveryManager`) after every
restart, and keeps a timeline of everything it did for the experiment summary
(see :func:`FaultInjector.summarize` and
:mod:`repro.metrics.availability`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro import protocol
from repro.middleware.middleware import MiddlewareBase
from repro.recovery.recovery_manager import RecoveryManager
from repro.sim import Environment
from repro.sim.network import DROP, Network, NetworkInterface, PARK
from repro.storage.datasource import DataSource
from repro.storage.transaction import TxnState

if TYPE_CHECKING:  # pragma: no cover - cluster imports recovery consumers
    from repro.cluster.deployment import Cluster
    from repro.metrics.collector import MetricsCollector


class FailureInjector:
    """Crashes and restarts simulated nodes (the low-level primitives)."""

    def __init__(self, env: Environment, network: Network):
        self.env = env
        self.network = network
        self.net: NetworkInterface = network.interface("failure-injector")
        self.injected: Dict[str, int] = {}

    def crash_middleware(self, middleware: MiddlewareBase) -> None:
        """Crash a middleware: it stops reacting to replies and async messages.

        The middleware is stateless (its in-flight coordinator processes are
        abandoned); only the flushed decision log survives, exactly as §V-A
        assumes.
        """
        middleware.crashed = True
        middleware.active_contexts.clear()
        self.injected["middleware"] = self.injected.get("middleware", 0) + 1

    def restart_middleware(self, middleware: MiddlewareBase) -> None:
        """Bring a crashed middleware back (with an empty in-memory state)."""
        middleware.crashed = False

    def crash_datasource(self, datasource: DataSource):
        """Generator: crash a data source node (yields until acknowledged)."""
        self.injected["datasource"] = self.injected.get("datasource", 0) + 1
        reply = yield self.net.request(datasource.name, protocol.MSG_CRASH, {})
        return reply

    def restart_datasource(self, datasource: DataSource):
        """Generator: restart a crashed data source."""
        reply = yield self.net.request(datasource.name, protocol.MSG_RESTART, {})
        return reply


# ---------------------------------------------------------------- fault plans
class FaultKind(enum.Enum):
    """The kinds of scheduled fault a :class:`FaultPlan` can contain."""

    #: Crash the middleware; restart (plus §V-A recovery) after ``duration_ms``.
    MIDDLEWARE_CRASH = "middleware_crash"
    #: Crash a data source; restart plus in-doubt resolution after ``duration_ms``.
    DATASOURCE_CRASH = "datasource_crash"
    #: Cut every network link touching a data node (and its geo-agent) for
    #: ``duration_ms``; in-flight messages are parked/dropped per ``mode``.
    REGION_OUTAGE = "region_outage"
    #: Cut the links between two regions (``target`` and ``peer``) only.
    PARTITION = "partition"
    #: Multiply the delay of every link touching the target region by
    #: ``factor`` for ``duration_ms`` (a transient latency degradation).
    LATENCY_SPIKE = "latency_spike"


#: Kinds whose ``target`` names a data node.
_DATA_NODE_KINDS = (FaultKind.DATASOURCE_CRASH, FaultKind.REGION_OUTAGE,
                    FaultKind.PARTITION)


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault: what breaks, when, for how long, and how."""

    kind: FaultKind
    #: Simulated time (ms) at which the fault strikes.
    at_ms: float
    #: How long the fault lasts; the matching restart/heal fires at
    #: ``at_ms + duration_ms``.  ``0`` means the fault is never repaired.
    duration_ms: float = 0.0
    #: The afflicted node: a data-node name for data-source/region/partition
    #: faults, a middleware name (default: the first middleware) for
    #: middleware crashes, and optionally ``None`` for a latency spike that
    #: degrades every data node.
    target: Optional[str] = None
    #: The second region of a :attr:`FaultKind.PARTITION`.
    peer: Optional[str] = None
    #: Delay multiplier of a :attr:`FaultKind.LATENCY_SPIKE` (>= 1).
    factor: float = 1.0
    #: Disruption mode of outages/partitions: ``"park"`` holds messages back
    #: until the heal, ``"drop"`` discards them (see :mod:`repro.sim.network`).
    mode: str = PARK

    def __post_init__(self) -> None:
        if self.at_ms < 0 or self.duration_ms < 0:
            raise ValueError("fault times must be non-negative")
        if self.kind in _DATA_NODE_KINDS and self.target is None:
            raise ValueError(f"{self.kind.value} needs an explicit target node")
        if self.kind is FaultKind.PARTITION and self.peer is None:
            raise ValueError("a partition needs a peer region")
        if self.kind is FaultKind.LATENCY_SPIKE and self.factor < 1.0:
            raise ValueError("latency-spike factor must be >= 1")
        if self.mode not in (PARK, DROP):
            raise ValueError(f"unknown disruption mode {self.mode!r}")

    def describe(self) -> str:
        """Compact human-readable form used in logs and summaries."""
        where = self.target or "*"
        if self.peer:
            where = f"{where}<->{self.peer}"
        return (f"{self.kind.value}({where}) @{self.at_ms:.0f}ms "
                f"for {self.duration_ms:.0f}ms")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable form for experiment summaries."""
        out: Dict[str, Any] = {"kind": self.kind.value, "at_ms": self.at_ms,
                               "duration_ms": self.duration_ms}
        if self.target is not None:
            out["target"] = self.target
        if self.peer is not None:
            out["peer"] = self.peer
        if self.kind is FaultKind.LATENCY_SPIKE:
            out["factor"] = self.factor
        if self.kind in (FaultKind.REGION_OUTAGE, FaultKind.PARTITION):
            out["mode"] = self.mode
        return out


@dataclass(frozen=True)
class FaultPlan:
    """A declarative schedule of :class:`FaultEvent`\\ s for one experiment.

    Plans are plain data: deep-copyable and picklable, so they ride inside
    ``ExperimentConfig`` through the scenario registry and across sweep-worker
    process boundaries like any other config knob.
    """

    events: Tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        events = tuple(self.events)
        if not events:
            raise ValueError("a fault plan needs at least one event")
        self._reject_overlaps(events)
        object.__setattr__(self, "events", events)

    @staticmethod
    def _reject_overlaps(events: Tuple[FaultEvent, ...]) -> None:
        """Refuse plans whose same-kind, same-target windows overlap.

        The network fault state is single-slot per node/link: a second
        overlapping disruption of the same thing would be clobbered by the
        first one's heal (releasing parked traffic mid-outage).  A
        ``target=None`` latency spike degrades every node, so it conflicts
        with every other spike, and a partition disrupts both directions of
        the link, so ``A<->B`` conflicts with ``B<->A``.

        Cross-target concurrency is deliberately *allowed*: composed chaos
        plans overlap faults on different nodes/links (e.g. a region outage
        inside a longer partition window).  That is safe because the network
        re-intercepts parked deliveries on release — a message freed by one
        heal is re-checked against every still-active disruption and parked
        (or dropped) again if another fault covers it; see
        ``Network._release_parked`` and the chaos-plan re-interception test.
        """
        def key(event: FaultEvent):
            if event.kind is FaultKind.PARTITION:
                # Both directions of the link are disrupted and restored
                # together, so the pair is unordered for conflict purposes.
                return (event.kind,) + tuple(sorted(
                    name for name in (event.target, event.peer)
                    if name is not None))
            return (event.kind, event.target, event.peer)

        def window(event: FaultEvent):
            end = (event.at_ms + event.duration_ms if event.duration_ms > 0
                   else float("inf"))
            return event.at_ms, end

        for i, a in enumerate(events):
            for b in events[i + 1:]:
                if key(a) != key(b) and not (
                        a.kind is FaultKind.LATENCY_SPIKE
                        and b.kind is FaultKind.LATENCY_SPIKE
                        and (a.target is None or b.target is None)):
                    continue
                a_start, a_end = window(a)
                b_start, b_end = window(b)
                if a_start < b_end and b_start < a_end:
                    raise ValueError(
                        f"overlapping fault windows for {a.describe()} and "
                        f"{b.describe()}; sequential windows only")

    def first_at_ms(self) -> float:
        """Injection time of the earliest event."""
        return min(event.at_ms for event in self.events)

    def outage_windows(self) -> List[Tuple[float, float]]:
        """``(start_ms, end_ms)`` of every repaired fault, in schedule order."""
        return [(event.at_ms, event.at_ms + event.duration_ms)
                for event in self.events if event.duration_ms > 0]


class FaultInjector:
    """Executes a :class:`FaultPlan` against a live cluster.

    Created (and :meth:`install`\\ ed) by the experiment runner when
    ``ExperimentConfig.fault_plan`` is set.  Every action is logged with its
    simulated timestamp; :meth:`summarize` folds the log, the recovery
    reports and the availability timeline into the picklable dict that lands
    in ``ExperimentSummary.faults``.
    """

    def __init__(self, cluster: "Cluster", plan: FaultPlan):
        self.cluster = cluster
        self.plan = plan
        self.env = cluster.env
        self.network = cluster.network
        self.failures = FailureInjector(self.env, self.network)
        #: Timeline of executed actions: ``{"at_ms", "action", "event"}``.
        self.log: List[Dict[str, Any]] = []
        #: One entry per completed recovery pass (see ``_recover``).
        self.recovery_reports: List[Dict[str, Any]] = []

    # --------------------------------------------------------------- lifecycle
    def install(self) -> None:
        """Schedule every event of the plan on the simulation clock.

        Targets are resolved against the live cluster first, so a typo'd
        node name fails here — before the run starts — instead of raising
        from a timer callback four simulated seconds in (or, worse, silently
        disrupting nothing and reporting fault-free data as fault results).
        """
        now = self.env.now
        for event in self.plan.events:
            self._resolve_targets(event)
            self.env.call_at(max(event.at_ms - now, 0.0), self._fire, event)

    def _resolve_targets(self, event: FaultEvent) -> None:
        datasources = self.cluster.datasources
        if event.kind is FaultKind.MIDDLEWARE_CRASH:
            self._middleware(event.target)  # raises KeyError on a bad name
            return
        for name in filter(None, (event.target, event.peer)):
            if name not in datasources:
                raise KeyError(
                    f"fault target {name!r} is not a data node of this "
                    f"cluster (known: {', '.join(datasources)})")

    def _fire(self, event: FaultEvent) -> None:
        self._log("inject", event)
        if event.kind is FaultKind.MIDDLEWARE_CRASH:
            self._crash_middleware(event)
        elif event.kind is FaultKind.DATASOURCE_CRASH:
            self.env.process(self._crash_datasource_proc(event), daemon=True)
        elif event.kind is FaultKind.REGION_OUTAGE:
            self._start_outage(event)
        elif event.kind is FaultKind.PARTITION:
            self._start_partition(event)
        elif event.kind is FaultKind.LATENCY_SPIKE:
            self._start_latency_spike(event)

    def _log(self, action: str, event: FaultEvent, **details: Any) -> None:
        entry = {"at_ms": self.env.now, "action": action,
                 "event": event.describe()}
        entry.update(details)
        self.log.append(entry)

    # ------------------------------------------------------- region membership
    def _middleware(self, name: Optional[str]) -> MiddlewareBase:
        if name is None:
            return self.cluster.middlewares[0]
        return self.cluster.middleware_named(name)

    def _region_members(self, node_name: str) -> List[str]:
        """The network endpoints living in a data node's region."""
        members = [node_name]
        agent = self.cluster.agents.get(node_name)
        if agent is not None:
            members.append(agent.name)
        return members

    # -------------------------------------------------------- middleware crash
    def _crash_middleware(self, event: FaultEvent) -> None:
        middleware = self._middleware(event.target)
        # Abandon the in-flight coordinators first (their clients observe the
        # connection drop), then flip the crash flag and roll back the
        # orphaned database sessions, exactly as the servers would when the
        # coordinator's connections reset.
        for process in list(middleware.active_processes.values()):
            if process.is_alive:
                process.interrupt("middleware crash")
        self.failures.crash_middleware(middleware)
        middleware.active_processes.clear()
        self._kill_orphaned_sessions(middleware)
        if event.duration_ms > 0:
            self.env.call_at(event.duration_ms, self._restart_middleware,
                             middleware, event)

    def _kill_orphaned_sessions(self, middleware: MiddlewareBase) -> None:
        prefix = middleware.name + "-"
        for datasource in self.cluster.datasources.values():
            datasource.kill_sessions(prefix)

    def _restart_middleware(self, middleware: MiddlewareBase,
                            event: FaultEvent) -> None:
        self._log("restart", event)
        # Stragglers: a subtransaction already past the crash-time sweep may
        # have opened a branch since; roll those sessions back before the
        # recovery pass decides the genuinely in-doubt (prepared) branches.
        self._kill_orphaned_sessions(middleware)
        self.env.process(self._recover(middleware, event,
                                       participant_names=None), daemon=True)

    # ------------------------------------------------------- data source crash
    def _crash_datasource_proc(self, event: FaultEvent):
        datasource = self.cluster.datasources[event.target]
        yield from self.failures.crash_datasource(datasource)
        if event.duration_ms > 0:
            remaining = event.at_ms + event.duration_ms - self.env.now
            self.env.call_at(max(remaining, 0.0), self._restart_datasource,
                             datasource, event)

    def _restart_datasource(self, datasource: DataSource,
                            event: FaultEvent) -> None:
        self.env.process(self._restart_datasource_proc(datasource, event),
                         daemon=True)

    def _restart_datasource_proc(self, datasource: DataSource,
                                 event: FaultEvent):
        yield from self.failures.restart_datasource(datasource)
        self._log("restart", event)
        for middleware in self.cluster.middlewares:
            if not middleware.crashed:
                yield from self._recover(middleware, event,
                                         participant_names=[datasource.name])

    # ----------------------------------------------------------- §V-A recovery
    def _recover(self, middleware: MiddlewareBase, event: FaultEvent,
                 participant_names: Optional[List[str]]):
        """Generator: run the recovery protocol and record what it did.

        Transactions that still have a live coordinator are skipped — only
        their own coordinator may decide them (relevant after a data-source
        restart, where other participants hold legitimately mid-prepare
        branches).  After a middleware crash there are none: the crash
        abandoned them all.
        """
        manager = RecoveryManager(middleware)
        restarted_at = self.env.now
        report = yield from manager.resolve_in_doubt(
            participant_names=participant_names,
            skip_global_ids=list(middleware.active_contexts),
            owned_prefix=middleware.name + "-")
        if middleware.crashed:
            # The restart completes only once recovery has resolved every
            # in-doubt branch; submissions are refused until then.
            self.failures.restart_middleware(middleware)
        self.recovery_reports.append({
            "kind": event.kind.value,
            "target": event.target or middleware.name,
            "restarted_at_ms": restarted_at,
            "completed_at_ms": self.env.now,
            "recovery_ms": self.env.now - restarted_at,
            "committed": len(report.committed),
            "rolled_back": len(report.rolled_back),
        })

    # ------------------------------------------------------- network disruption
    def _start_outage(self, event: FaultEvent) -> None:
        members = self._region_members(event.target)
        for member in members:
            self.network.disrupt_node(member, mode=event.mode)
        if event.duration_ms > 0:
            self.env.call_at(event.duration_ms, self._heal_outage,
                             members, event)

    def _heal_outage(self, members: List[str], event: FaultEvent) -> None:
        for member in members:
            self.network.restore_node(member)
        self._log("heal", event)

    def _start_partition(self, event: FaultEvent) -> None:
        pairs = [(a, b) for a in self._region_members(event.target)
                 for b in self._region_members(event.peer)]
        for a, b in pairs:
            self.network.disrupt_link(a, b, mode=event.mode)
        if event.duration_ms > 0:
            self.env.call_at(event.duration_ms, self._heal_partition,
                             pairs, event)

    def _heal_partition(self, pairs: List[Tuple[str, str]],
                        event: FaultEvent) -> None:
        for a, b in pairs:
            self.network.restore_link(a, b)
        self._log("heal", event)

    def _start_latency_spike(self, event: FaultEvent) -> None:
        targets = ([event.target] if event.target is not None
                   else list(self.cluster.datasources))
        members = [member for target in targets
                   for member in self._region_members(target)]
        for member in members:
            self.network.degrade_node(member, event.factor)
        if event.duration_ms > 0:
            self.env.call_at(event.duration_ms, self._heal_latency_spike,
                             members, event)

    def _heal_latency_spike(self, members: List[str],
                            event: FaultEvent) -> None:
        for member in members:
            self.network.degrade_node(member, 1.0)
        self._log("heal", event)

    # ------------------------------------------------------------------ report
    def summarize(self, collector: "MetricsCollector", duration_ms: float,
                  bucket_ms: float = 1000.0) -> Dict[str, Any]:
        """The picklable fault report stored in ``ExperimentSummary.faults``."""
        availability = collector.availability_report(duration_ms,
                                                     bucket_ms=bucket_ms)
        time_to_recover: Dict[str, Any] = {}
        baselines: Dict[str, float] = {}
        for event in self.plan.events:
            if event.duration_ms <= 0:
                continue
            heal_at = event.at_ms + event.duration_ms
            # Baseline from the window before the fault *struck*: averaging
            # up to the heal would dilute it with the outage's near-zero
            # buckets and under-report the recovery time.
            baseline = availability.throughput_before(event.at_ms)
            baselines[event.describe()] = baseline
            time_to_recover[event.describe()] = availability.time_to_recover_ms(
                heal_at, baseline_tps=baseline)
        return {
            "plan": [event.to_dict() for event in self.plan.events],
            "log": list(self.log),
            "recoveries": list(self.recovery_reports),
            "injected": dict(self.failures.injected),
            "availability": availability.to_dict(),
            "time_to_recover_ms": time_to_recover,
            # Per-event pre-fault baseline (tps).  0.0 means the fault struck
            # before a full bucket existed — recovery is then unobservable,
            # which the availability invariant must treat as a skip, not a
            # violation (time_to_recover_ms is None in both cases).
            "recovery_baseline_tps": baselines,
            "wal_in_doubt": self._wal_in_doubt(),
        }

    def _wal_in_doubt(self) -> Dict[str, Any]:
        """End-of-run census of prepared branches nobody will ever resolve.

        A branch still ``PREPARED`` when the run stops is fine while its
        global transaction is live on some coordinator (decision pending) or
        its owner has logged a decision (the commit/rollback delivery is in
        flight).  A prepared branch with *neither* is an orphan: §V-A
        recovery should have resolved it, and the ``wal_in_doubt_empty``
        invariant fails the run if any survive.
        """
        live_gids = set()
        for middleware in self.cluster.middlewares:
            live_gids.update(middleware.active_contexts)
        orphans: List[Dict[str, Any]] = []
        prepared_at_end = 0
        for ds_name, datasource in self.cluster.datasources.items():
            for xid, txn in datasource.transactions.items():
                if txn.state is not TxnState.PREPARED:
                    continue
                prepared_at_end += 1
                gid = txn.global_txn_id
                if gid in live_gids:
                    continue
                owner = next(
                    (mw for mw in self.cluster.middlewares
                     if gid.startswith(f"{mw.name}-")), None)
                if owner is not None and owner.wal.last_decision(gid) is not None:
                    continue
                orphans.append({
                    "datasource": ds_name, "xid": xid, "gid": gid,
                    "owner": owner.name if owner is not None else None,
                })
        return {"prepared_at_end": prepared_at_end, "orphans": orphans}


def post_recovery_band(fault_free_committed: int, measured_ms: float,
                       outage_ms: float, slack: float = 0.35) -> Tuple[float, float]:
    """Sanity band for the committed count of a fault run.

    A fault run should commit roughly what the fault-free run commits minus
    the outage window, give or take ``slack`` (faults also cost abort
    cascades and recovery time, so the band is deliberately generous).  Used
    by the fault-scenario sanity tests::

        lo, hi = post_recovery_band(ok.committed, measured_ms, outage_ms)
        assert lo <= faulted.committed <= hi
    """
    if measured_ms <= 0:
        raise ValueError("measured_ms must be positive")
    surviving = max(measured_ms - outage_ms, 0.0) / measured_ms
    expected = fault_free_committed * surviving
    return expected * (1.0 - slack), fault_free_committed * (1.0 + slack)
