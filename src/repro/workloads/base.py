"""Workload abstractions.

A workload knows how to (1) build the partitioner that maps its keys onto data
sources, (2) load the initial database into each data source and (3) generate
transaction specs for client terminals, controlling contention (key skew), the
ratio of distributed transactions, transaction length and the number of client
interaction rounds — the four knobs the paper's experiments sweep.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.middleware.router import Partitioner
from repro.middleware.statements import TransactionSpec
from repro.sim.rng import SeededRNG


@dataclass
class WorkloadConfig:
    """Knobs shared by all workloads."""

    #: Fraction of generated transactions that touch more than one data source.
    distributed_ratio: float = 0.2
    #: Number of client interaction rounds per transaction.
    rounds: int = 1
    #: RNG seed for the generator.
    seed: int = 0


#: The most recent ``initial_data()`` result of this process and the
#: ``(workload class, data source names, config)`` that produced it.  One
#: entry is enough: the consecutive points of a sweep worker (and ``ssp`` then
#: ``geotp`` of one seed) repeat the same preload, and tables adopt the rows
#: without copying them (:meth:`repro.storage.engine.StorageEngine.bulk_load`).
_last_initial_data: Optional[Tuple[Tuple[Any, ...], Dict[str, Dict[str, Dict]]]] = None


class Workload:
    """Base class for transaction generators."""

    name = "workload"

    def __init__(self, datasource_names: Sequence[str], config: WorkloadConfig):
        if not datasource_names:
            raise ValueError("a workload needs at least one data source")
        self.datasource_names = list(datasource_names)
        self.config = config
        self.rng = SeededRNG(config.seed)

    # ------------------------------------------------------------- interface
    def make_partitioner(self) -> Partitioner:
        """The partitioner that routes this workload's keys."""
        raise NotImplementedError

    def initial_data(self) -> Dict[str, Dict[str, Dict]]:
        """Initial rows per data source: ``{datasource: {table: {key: value}}}``.

        The result is loaded without being copied and is shared between
        clusters, so nothing may mutate it — neither the mappings nor the row
        values — and it should be a pure function of the data source names
        and ``config``; drawing from ``self.rng`` opts out of the sharing.
        """
        raise NotImplementedError

    def next_transaction(self, terminal_id: int = 0) -> TransactionSpec:
        """Generate the next transaction spec for a client terminal."""
        raise NotImplementedError

    # --------------------------------------------------------------- helpers
    def load_into(self, datasources: Dict[str, object]) -> None:
        """Bulk-load the initial data into :class:`~repro.storage.DataSource` objects."""
        global _last_initial_data
        key = (type(self), tuple(self.datasource_names), self.config)
        if _last_initial_data is not None and _last_initial_data[0] == key:
            data = _last_initial_data[1]
        else:
            rng_state = self.rng.getstate()
            data = self.initial_data()
            if self.rng.getstate() == rng_state:
                # The key keeps its own copy of the (mutable) config.
                _last_initial_data = (deepcopy(key), data)
        for ds_name, tables in data.items():
            datasource = datasources.get(ds_name)
            if datasource is None:
                continue
            for table_name, rows in tables.items():
                datasource.load_table(table_name, rows)
