"""Workload abstractions.

A workload knows how to (1) build the partitioner that maps its keys onto data
sources, (2) load the initial database into each data source and (3) generate
transaction specs for client terminals, controlling contention (key skew), the
ratio of distributed transactions, transaction length and the number of client
interaction rounds — the four knobs the paper's experiments sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

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

    def initial_data(self) -> Dict[str, Dict[str, Mapping]]:
        """Initial rows per data source: ``{datasource: {table: {key: row}}}``.

        Every row of the key space is loaded.  Each table is a read-only
        mapping — a :class:`~repro.storage.engine.SharedRows` view when its
        rows start equal — so a load costs O(nodes × tables) at any row
        count, and reads answer from it without storing anything.  The tables
        adopt these mappings without a copy, so nothing may mutate them or a
        row in them.
        """
        raise NotImplementedError

    def next_transaction(self, terminal_id: int = 0) -> TransactionSpec:
        """Generate the next transaction spec for a client terminal."""
        raise NotImplementedError

    # --------------------------------------------------------------- helpers
    def load_into(self, datasources: Dict[str, object]) -> None:
        """Bulk-load the initial data into :class:`~repro.storage.DataSource` objects."""
        for ds_name, tables in self.initial_data().items():
            datasource = datasources.get(ds_name)
            if datasource is None:
                continue
            for table_name, rows in tables.items():
                datasource.load_table(table_name, rows)
