"""Simulated data-source layer.

Each data source models the parts of MySQL / PostgreSQL that matter to the
paper's experiments: key-value tables (:mod:`repro.storage.engine`), a strict
two-phase-locking lock manager with FIFO waiting and lock-wait timeouts
(:mod:`repro.storage.lock_manager`), the XA local transaction state machine
(:mod:`repro.storage.transaction`).  :mod:`repro.storage.datasource` ties
these together into a network-attached node process.  A node's engine
(``"mysql"`` or ``"postgresql"``) is a name that keys its row of
:class:`~repro.common.CostModel`: the costs are all that differs between the
two engines in a run.  A data source keeps no log
of its own: its PREPARED branches survive a crash in the branch table, which
is what recovery lists.  :mod:`repro.storage.wal` is the middleware's
decision log, the other half of what §V-A recovery reads.
"""

from repro.storage.datasource import DataSource, DataSourceConfig
from repro.storage.engine import SharedRows, StorageEngine, Table
from repro.storage.lock_manager import (
    LockManager,
    LockMode,
    LockTimeoutError,
)
from repro.storage.record import Record
from repro.storage.transaction import LocalTransaction, TxnState
from repro.storage.wal import LogRecordType, WALRecord, WriteAheadLog

__all__ = [
    "DataSource",
    "DataSourceConfig",
    "LocalTransaction",
    "LockManager",
    "LockMode",
    "LockTimeoutError",
    "LogRecordType",
    "Record",
    "SharedRows",
    "StorageEngine",
    "Table",
    "TxnState",
    "WALRecord",
    "WriteAheadLog",
]
