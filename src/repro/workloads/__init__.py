"""Workload generators: YCSB and TPC-C (the paper's evaluation) plus plugins.

Each workload module registers a :class:`~repro.plugins.WorkloadPlugin`;
``repro.bench.runner.make_workload`` and the CLI resolve workloads through
that registry, so contrib workloads (e.g.
``repro.contrib.smallbank``) need no edits in this package.
"""

from repro.plugins import get_workload_plugin, normalize_workload, workload_names
from repro.workloads.arrivals import (
    ARRIVAL_PROCESSES,
    ArrivalConfig,
    ArrivalProcess,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.workloads.base import Workload, WorkloadConfig
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload, CONTENTION_SKEW
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload

__all__ = [
    "ARRIVAL_PROCESSES",
    "ArrivalConfig",
    "ArrivalProcess",
    "CONTENTION_SKEW",
    "DiurnalArrivals",
    "MMPPArrivals",
    "PoissonArrivals",
    "make_arrivals",
    "TPCCConfig",
    "TPCCWorkload",
    "Workload",
    "WorkloadConfig",
    "YCSBConfig",
    "YCSBWorkload",
    "get_workload_plugin",
    "normalize_workload",
    "workload_names",
]
