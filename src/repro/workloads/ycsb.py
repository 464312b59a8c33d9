"""The YCSB transactional workload (§VII-A2).

Each transaction has a configurable number of operations (5 by default), each a
read or an update with 50/50 probability, over a single ``usertable`` whose
keys are striped across the data nodes.  Contention is controlled by the
Zipfian *skew factor* (0.3 = low, 0.9 = medium, 1.5 = high, as in the paper),
and the ratio of distributed transactions is controlled by generating keys that
live on one node (centralized) or on several nodes (distributed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common import Operation, OpType
from repro.middleware.router import ModuloPartitioner
from repro.middleware.statements import TransactionSpec
from repro.plugins import WorkloadPlugin, register_workload
from repro.sim.rng import ZipfianGenerator
from repro.storage.engine import SharedRows
from repro.workloads.base import Workload, WorkloadConfig

#: The paper's skew factors for low / medium / high contention.
CONTENTION_SKEW = {"low": 0.3, "medium": 0.9, "high": 1.5}

TABLE = "usertable"
#: Data nodes a distributed transaction touches.
NODES_PER_DISTRIBUTED_TXN = 2
#: Payload stored in each record.
VALUE_SIZE_BYTES = 100


@dataclass
class YCSBConfig(WorkloadConfig):
    """Configuration of the YCSB generator."""

    #: Records stored per data node, every one of them loaded.  The paper
    #: loads 1 M rows per node; the simulation defaults to a smaller key space
    #: (contention behaviour is governed by the skew, not the absolute table
    #: size).  A loaded table is a :class:`~repro.storage.engine.SharedRows`
    #: view and costs nothing at any size.
    records_per_node: int = 100_000
    #: Accepted only because ``perf_ledger/workloads.py`` passes it: ``None``
    #: loads every row, a number caps the rows loaded per node.
    preload_rows_per_node: Optional[int] = None
    #: Zipfian skew factor (theta).
    skew: float = 0.9
    #: Operations per transaction (the paper's "transaction length").
    operations_per_transaction: int = 5
    #: Probability that an operation is a read (the rest are updates).
    read_ratio: float = 0.5
    #: When set, every transaction is homed on this node index: centralized
    #: transactions touch only it and distributed transactions always include
    #: it.  Used by the Figure 1b motivation experiment ("80 % centralized
    #: transactions accessing DS1, 20 % distributed accessing DS1 and DS2").
    home_node: Optional[int] = None


class YCSBWorkload(Workload):
    """Generator of YCSB transaction specs."""

    name = "ycsb"

    def __init__(self, datasource_names, config: YCSBConfig):
        super().__init__(datasource_names, config)
        self.config: YCSBConfig = config
        if config.records_per_node < 1:
            raise ValueError("records_per_node must be positive")
        if not 0 <= config.distributed_ratio <= 1:
            raise ValueError("distributed_ratio must be in [0, 1]")
        self._zipf = ZipfianGenerator(config.records_per_node, config.skew,
                                      rng=self.rng.spawn(9999))
        self._partitioner = ModuloPartitioner(self.datasource_names)

    # --------------------------------------------------------------- interface
    def make_partitioner(self) -> ModuloPartitioner:
        return self._partitioner

    def initial_data(self) -> Dict[str, Dict[str, SharedRows]]:
        config = self.config
        rows = config.records_per_node
        if config.preload_rows_per_node is not None:
            rows = min(rows, config.preload_rows_per_node)
        # Every preloaded row starts from the same synthetic value, and writes
        # replace record values wholesale (nothing mutates them in place), so
        # all rows share a single dict.
        row = {"field0": "x" * VALUE_SIZE_BYTES}
        keys_for_node = self._partitioner.keys_for_node
        return {name: {TABLE: SharedRows(keys_for_node(node_index, rows), row)}
                for node_index, name in enumerate(self.datasource_names)}

    def next_transaction(self, terminal_id: int = 0) -> TransactionSpec:
        node_count = len(self.datasource_names)
        if self.config.home_node is not None:
            home = self.config.home_node % node_count
        else:
            home = self.rng.randint(0, node_count - 1)
        is_distributed = (node_count > 1
                          and self.rng.bernoulli(self.config.distributed_ratio))
        if is_distributed:
            others = [i for i in range(node_count) if i != home]
            targets = [home] + self.rng.sample(others, NODES_PER_DISTRIBUTED_TXN - 1)
        else:
            targets = [home]

        operations = self._generate_operations(targets)
        spec = TransactionSpec.from_operations(
            operations, txn_type=self.name, rounds=self.config.rounds,
            metadata={"distributed": is_distributed, "home_node": home})
        return spec

    # ----------------------------------------------------------------- helpers
    def _generate_operations(self, target_nodes: List[int]) -> List[Operation]:
        # A key is ``zipf() * node_count + node`` (``key_for_node``, inlined),
        # drawn up to 20 times until it is new to the transaction, then once
        # more regardless; the read/update coin is ``rng.bernoulli``'s draw.
        node_count = self._partitioner.node_count
        zipf = self._zipf.next
        coin = self.rng.random
        read_ratio = self.config.read_ratio
        targets = len(target_nodes)
        operations: List[Operation] = []
        used_keys = set()
        for index in range(self.config.operations_per_transaction):
            # Spread operations over the target nodes round-robin so that every
            # chosen node is actually touched (which is what makes the
            # transaction distributed).
            node = target_nodes[index % targets]
            for _attempt in range(20):
                key = zipf() * node_count + node
                if key not in used_keys:
                    break
            else:
                key = zipf() * node_count + node
            used_keys.add(key)
            if coin() < read_ratio:
                operations.append(Operation(op_type=OpType.READ, table=TABLE, key=key))
            else:
                operations.append(Operation(op_type=OpType.UPDATE, table=TABLE,
                                            key=key, value={"field0": "updated"}))
        return operations


# ------------------------------------------------------------------- plugin
register_workload(WorkloadPlugin(
    name="ycsb",
    description="YCSB key-value transactions with Zipfian contention and a "
                "distributed-ratio knob (\u00a7VII-A2)",
    factory=YCSBWorkload,
    config_factory=YCSBConfig,
    config_field="ycsb",
))
