"""Routing of records to data sources (the sharding function).

The middleware must know, for every (table, key), which data source stores the
record.  Two partitioners cover the paper's workloads:

* :class:`ModuloPartitioner` — YCSB: integer keys spread across data nodes by
  ``key % node_count``; the workload exploits this to control the ratio of
  distributed transactions.
* :class:`WarehousePartitioner` — TPC-C: all nine tables are partitioned by
  warehouse id (the first element of the composite key); the ``item`` table is
  replicated everywhere and read locally.

:class:`TableAwarePartitioner` composes per-table rules when the two schemes
must coexist.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence


class Partitioner:
    """Maps (table, key) to the name of the data source storing the record."""

    def __init__(self, datasource_names: Sequence[str]):
        if not datasource_names:
            raise ValueError("at least one data source is required")
        self.datasource_names = list(datasource_names)
        #: Number of data sources (cached: ``locate`` runs on every operation).
        self.node_count = len(self.datasource_names)

    def locate(self, table: str, key: Hashable) -> str:
        """Name of the data source holding (table, key)."""
        raise NotImplementedError

    def node_index(self, table: str, key: Hashable) -> int:
        """Index (0-based) of the data source holding (table, key)."""
        return self.datasource_names.index(self.locate(table, key))


class ModuloPartitioner(Partitioner):
    """Integer keys striped across data sources by ``key % node_count``."""

    def locate(self, table: str, key: Hashable) -> str:
        if isinstance(key, bool) or not isinstance(key, int):
            key = abs(hash(key))
        return self.datasource_names[key % self.node_count]

    def key_for_node(self, node_index: int, sequence: int) -> int:
        """The ``sequence``-th key that lives on data source ``node_index``.

        Workload generators use this to build transactions that touch a chosen
        set of nodes (and thereby control the distributed-transaction ratio).
        """
        if not 0 <= node_index < self.node_count:
            raise ValueError(f"node index {node_index} out of range")
        return sequence * self.node_count + node_index


class WarehousePartitioner(Partitioner):
    """TPC-C partitioning: warehouse ``w`` lives on node ``(w - 1) // warehouses_per_node``.

    Keys are tuples whose first element is the warehouse id (1-based).  The
    read-only ``item`` table is replicated: every node holds a copy and lookups
    resolve to the local node passed as ``home_hint`` (or node 0).
    """

    REPLICATED_TABLES = ("item",)

    def __init__(self, datasource_names: Sequence[str], warehouses_per_node: int):
        super().__init__(datasource_names)
        if warehouses_per_node < 1:
            raise ValueError("warehouses_per_node must be >= 1")
        self.warehouses_per_node = warehouses_per_node
        #: Node of every warehouse id :meth:`locate` has validated so far
        #: (an id that fails validation never enters).
        self._located: Dict[Hashable, str] = {}

    @property
    def total_warehouses(self) -> int:
        """Total number of warehouses across the cluster."""
        return self.warehouses_per_node * self.node_count

    def node_for_warehouse(self, warehouse_id: int) -> str:
        """Data source holding ``warehouse_id`` (1-based)."""
        if warehouse_id < 1:
            raise ValueError("warehouse ids are 1-based")
        index = (warehouse_id - 1) // self.warehouses_per_node
        if index >= self.node_count:
            raise ValueError(f"warehouse {warehouse_id} exceeds the configured cluster")
        return self.datasource_names[index]

    def locate(self, table: str, key: Hashable, home_hint: Optional[str] = None) -> str:
        if table in self.REPLICATED_TABLES:
            return home_hint or self.datasource_names[0]
        if isinstance(key, tuple) and key:
            warehouse_id = key[0]
        elif isinstance(key, int):
            warehouse_id = key
        else:
            raise ValueError(f"TPC-C keys must start with a warehouse id, got {key!r}")
        try:
            return self._located[warehouse_id]
        except KeyError:
            node = self._located[warehouse_id] = self.node_for_warehouse(
                int(warehouse_id))
            return node

    def warehouses_on_node(self, node_index: int) -> List[int]:
        """The warehouse ids stored on data source ``node_index``."""
        start = node_index * self.warehouses_per_node + 1
        return list(range(start, start + self.warehouses_per_node))


class TableAwarePartitioner(Partitioner):
    """Delegates to a per-table partitioner, with a default fallback."""

    def __init__(self, datasource_names: Sequence[str],
                 per_table: Dict[str, Partitioner], default: Partitioner):
        super().__init__(datasource_names)
        self.per_table = dict(per_table)
        self.default = default

    def locate(self, table: str, key: Hashable) -> str:
        return self.per_table.get(table, self.default).locate(table, key)
