"""GeoTP reproduction: latency-aware geo-distributed transaction processing.

This package reproduces, on a discrete-event simulated substrate, the system
and evaluation of *GeoTP: Latency-aware Geo-Distributed Transaction Processing
in Database Middlewares* (ICDE 2025).  The public API is small:

* :class:`ExperimentConfig` / :func:`run_experiment` — run one experiment point
  (system x workload x topology) and get throughput / latency / abort metrics;
* :class:`TopologyConfig` — describe where middlewares and data sources live;
* :class:`YCSBConfig` / :class:`TPCCConfig` — workload knobs;
* :class:`GeoTPConfig` — the O1/O2/O3 switches of GeoTP itself;
* :func:`build_cluster` — lower-level access to a wired simulated cluster for
  users who want to drive transactions themselves;
* :func:`register_system` / :func:`register_workload` — the plugin registries
  behind both axes: systems and workloads are self-registering modules (see
  ``repro.plugins`` and ``repro.contrib``), discoverable via
  :func:`system_names` / :func:`workload_names` and
  ``python -m repro.bench list --systems/--workloads``;
* :class:`FaultPlan` / :class:`FaultEvent` / :class:`FaultKind` — scheduled
  fault injection (crashes, outages, partitions, latency spikes) via
  ``ExperimentConfig.fault_plan``.

See README.md for a quickstart, ARCHITECTURE.md for the layer map and
PLUGINS.md for the plugin authoring guide.
"""

from repro.plugins import load_plugins

# Register the builtin plugins before anything else is imported, so the
# registry order (``system_names()``) is ``load_plugins``' module order and
# not an accident of which module happens to import a coordinator first.
load_plugins()

from repro.bench.runner import (
    ExperimentConfig,
    ExperimentSummary,
    run_experiment,
)
from repro.cluster.deployment import Cluster, build_cluster
from repro.cluster.topology import DataNodeSpec, MiddlewareSpec, TopologyConfig
from repro.common import (
    AbortReason,
    Operation,
    OpType,
    TransactionResult,
    TxnOutcome,
)
from repro.core.config import GeoTPConfig
from repro.middleware.statements import TransactionSpec
from repro.recovery.failures import FaultEvent, FaultKind, FaultPlan
from repro.plugins import (
    SystemPlugin,
    WorkloadPlugin,
    get_system_plugin,
    get_workload_plugin,
    normalize_system,
    normalize_workload,
    register_system,
    register_workload,
    system_names,
    workload_names,
)
from repro.workloads.tpcc import TPCCConfig
from repro.workloads.ycsb import CONTENTION_SKEW, YCSBConfig

__version__ = "1.0.0"


def __getattr__(name: str):
    # Lazy so the constant always reflects the live system registry (plugins
    # may register after import) and `import repro` stays cheap.
    if name == "SUPPORTED_SYSTEMS":
        from repro.cluster import deployment
        return deployment.SUPPORTED_SYSTEMS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AbortReason",
    "CONTENTION_SKEW",
    "Cluster",
    "DataNodeSpec",
    "ExperimentConfig",
    "ExperimentSummary",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "GeoTPConfig",
    "MiddlewareSpec",
    "Operation",
    "OpType",
    "SUPPORTED_SYSTEMS",
    "SystemPlugin",
    "TPCCConfig",
    "TopologyConfig",
    "TransactionResult",
    "TransactionSpec",
    "TxnOutcome",
    "WorkloadPlugin",
    "YCSBConfig",
    "build_cluster",
    "get_system_plugin",
    "get_workload_plugin",
    "normalize_system",
    "normalize_workload",
    "register_system",
    "register_workload",
    "run_experiment",
    "system_names",
    "workload_names",
    "__version__",
]
