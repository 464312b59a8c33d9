"""Baseline systems the paper compares GeoTP against.

Every baseline runs on the same simulated substrate (network, data sources,
workloads) so differences in the results come only from the coordination
protocol, mirroring how the paper re-implemented QURO and Chiller on its own
platform "for a fair comparison".
"""

from repro.baselines.ssp import SSPCoordinator
from repro.baselines.ssp_local import SSPLocalCoordinator
from repro.baselines.quro import QUROCoordinator
from repro.baselines.chiller import ChillerCoordinator
from repro.baselines.scalardb import ScalarDBCoordinator
from repro.baselines.scalardb_plus import ScalarDBPlusCoordinator
from repro.baselines.yugabyte import YugabyteCoordinator

__all__ = [
    "ChillerCoordinator",
    "QUROCoordinator",
    "SSPCoordinator",
    "SSPLocalCoordinator",
    "ScalarDBCoordinator",
    "ScalarDBPlusCoordinator",
    "YugabyteCoordinator",
]
