"""The TPC-C workload (§VII-A2).

Nine relations partitioned by warehouse across the data nodes (the read-only
``item`` table is replicated).  The standard five transaction types are
generated with the standard mix; following the paper we exclude client think
time and the 1 % of NewOrder transactions that abort on purpose due to invalid
item ids.  The ratio of distributed transactions is controlled by choosing the
remote warehouse of Payment and NewOrder transactions on a *different data
node* with the configured probability (§VII-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

from repro.common import Operation, OpType
from repro.middleware.router import WarehousePartitioner
from repro.middleware.statements import TransactionSpec
from repro.plugins import WorkloadPlugin, register_workload
from repro.storage.engine import SharedRows
from repro.workloads.base import Workload, WorkloadConfig

#: Standard TPC-C transaction mix.
DEFAULT_MIX = {
    "new_order": 0.45,
    "payment": 0.43,
    "order_status": 0.04,
    "delivery": 0.04,
    "stock_level": 0.04,
}

DISTRICTS_PER_WAREHOUSE = 10
#: Items ordered by a NewOrder transaction: uniform in [min, max].
MIN_ORDER_LINES, MAX_ORDER_LINES = 5, 15


@dataclass
class TPCCConfig(WorkloadConfig):
    """Configuration of the TPC-C generator (sizes scaled for simulation)."""

    warehouses_per_node: int = 4
    customers_per_district: int = 30
    #: Number of items in the (replicated) item catalogue.
    item_count: int = 200
    #: Transaction mix; must sum to 1.  Use e.g. ``{"payment": 1.0}`` to run a
    #: single transaction type as in Figure 9.
    mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))


class TPCCWorkload(Workload):
    """Generator of TPC-C transaction specs."""

    name = "tpcc"

    def __init__(self, datasource_names: Sequence[str], config: TPCCConfig):
        super().__init__(datasource_names, config)
        self.config: TPCCConfig = config
        if config.warehouses_per_node < 1:
            raise ValueError("warehouses_per_node must be >= 1")
        total = sum(config.mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"transaction mix must sum to 1 (got {total})")
        unknown = set(config.mix) - set(DEFAULT_MIX)
        if unknown:
            raise ValueError(f"unknown transaction types in mix: {sorted(unknown)}")
        self._partitioner = WarehousePartitioner(
            self.datasource_names, warehouses_per_node=config.warehouses_per_node)
        self._order_counter = 3000  # = d_next_o_id; no order history is loaded

    # --------------------------------------------------------------- interface
    def make_partitioner(self) -> WarehousePartitioner:
        return self._partitioner

    @property
    def total_warehouses(self) -> int:
        """Warehouses across the whole cluster."""
        return self._partitioner.total_warehouses

    def initial_data(self) -> Dict[str, Dict[str, Mapping]]:
        districts = range(1, DISTRICTS_PER_WAREHOUSE + 1)
        customers = range(1, self.config.customers_per_district + 1)
        items = range(1, self.config.item_count + 1)
        district = {"d_ytd": 0.0, "d_tax": 0.05, "d_next_o_id": 3000}
        customer = {"c_balance": -10.0, "c_ytd_payment": 10.0, "c_payment_cnt": 1}
        stock = {"s_quantity": 100, "s_ytd": 0, "s_order_cnt": 0}
        # The item catalogue is replicated: every node shares this one dict.
        catalogue = {item_id: {"i_price": 9.99, "i_name": f"item-{item_id}"}
                     for item_id in items}
        data: Dict[str, Dict[str, Mapping]] = {}
        for node_index, name in enumerate(self.datasource_names):
            warehouses = self._partitioner.warehouses_on_node(node_index)
            data[name] = {
                "warehouse": SharedRows((warehouses,), {"w_ytd": 0.0, "w_tax": 0.05}),
                "district": SharedRows((warehouses, districts), district),
                "customer": SharedRows((warehouses, districts, customers), customer),
                "stock": SharedRows((warehouses, items), stock),
                "item": catalogue,
                "order": {}, "neworder": {}, "orderline": {}, "history": {},
            }
        return data

    def next_transaction(self, terminal_id: int = 0) -> TransactionSpec:
        txn_type = self._draw_transaction_type()
        home_warehouse = self._draw_home_warehouse(terminal_id)
        builder = {
            "new_order": self._new_order,
            "payment": self._payment,
            "order_status": self._order_status,
            "delivery": self._delivery,
            "stock_level": self._stock_level,
        }[txn_type]
        operations, is_distributed = builder(home_warehouse)
        return TransactionSpec.from_operations(
            operations, txn_type=txn_type, rounds=self.config.rounds,
            metadata={"warehouse": home_warehouse, "distributed": is_distributed})

    # ------------------------------------------------------------ txn builders
    def _draw_transaction_type(self) -> str:
        draw = self.rng.random()
        cumulative = 0.0
        for txn_type, weight in self.config.mix.items():
            cumulative += weight
            if draw < cumulative:
                return txn_type
        return next(iter(self.config.mix))

    def _draw_home_warehouse(self, terminal_id: int) -> int:
        return self.rng.randint(1, self.total_warehouses)

    def _draw_remote_warehouse(self, home_warehouse: int, force_remote_node: bool) -> int:
        """A warehouse other than ``home``; on another data node if requested."""
        home_node = self._partitioner.node_for_warehouse(home_warehouse)
        candidates = [w for w in range(1, self.total_warehouses + 1) if w != home_warehouse]
        if force_remote_node:
            remote = [w for w in candidates
                      if self._partitioner.node_for_warehouse(w) != home_node]
            if remote:
                candidates = remote
        return self.rng.choice(candidates) if candidates else home_warehouse

    def _district(self) -> int:
        return self.rng.randint(1, DISTRICTS_PER_WAREHOUSE)

    def _customer(self) -> int:
        return self.rng.randint(1, self.config.customers_per_district)

    def _item(self) -> int:
        return self.rng.randint(1, self.config.item_count)

    def _next_order_id(self) -> int:
        self._order_counter += 1
        return self._order_counter

    def _is_distributed(self, warehouses: List[int]) -> bool:
        nodes = {self._partitioner.node_for_warehouse(w) for w in warehouses}
        return len(nodes) > 1

    def _new_order(self, warehouse_id: int):
        district_id = self._district()
        customer_id = self._customer()
        order_id = self._next_order_id()
        want_distributed = self.rng.bernoulli(self.config.distributed_ratio)

        operations = [
            Operation(OpType.READ, "warehouse", (warehouse_id,)),
            Operation(OpType.UPDATE, "district", (warehouse_id, district_id),
                      value={"d_next_o_id": order_id + 1}),
            Operation(OpType.READ, "customer", (warehouse_id, district_id, customer_id)),
            Operation(OpType.WRITE, "order", (warehouse_id, district_id, order_id),
                      value={"o_c_id": customer_id, "o_ol_cnt": 0}),
            Operation(OpType.WRITE, "neworder", (warehouse_id, district_id, order_id),
                      value={}),
        ]
        line_count = self.rng.randint(MIN_ORDER_LINES, MAX_ORDER_LINES)
        warehouses_touched = [warehouse_id]
        for line_number in range(1, line_count + 1):
            item_id = self._item()
            supply_warehouse = warehouse_id
            if want_distributed and line_number == 1:
                supply_warehouse = self._draw_remote_warehouse(
                    warehouse_id, force_remote_node=True)
            elif self.rng.bernoulli(0.01):
                supply_warehouse = self._draw_remote_warehouse(
                    warehouse_id, force_remote_node=False)
            warehouses_touched.append(supply_warehouse)
            operations.append(Operation(OpType.READ, "item", item_id))
            operations.append(Operation(OpType.UPDATE, "stock",
                                        (supply_warehouse, item_id),
                                        value={"s_quantity": 91}))
            operations.append(Operation(
                OpType.WRITE, "orderline",
                (warehouse_id, district_id, order_id, line_number),
                value={"ol_i_id": item_id, "ol_supply_w_id": supply_warehouse}))
        return operations, self._is_distributed(warehouses_touched)

    def _payment(self, warehouse_id: int):
        district_id = self._district()
        customer_id = self._customer()
        amount = round(self.rng.uniform(1.0, 5000.0), 2)
        want_distributed = self.rng.bernoulli(self.config.distributed_ratio)
        customer_warehouse = warehouse_id
        if want_distributed:
            customer_warehouse = self._draw_remote_warehouse(
                warehouse_id, force_remote_node=True)

        operations = [
            Operation(OpType.UPDATE, "warehouse", (warehouse_id,),
                      value={"w_ytd_delta": amount}),
            Operation(OpType.UPDATE, "district", (warehouse_id, district_id),
                      value={"d_ytd_delta": amount}),
            Operation(OpType.UPDATE, "customer",
                      (customer_warehouse, district_id, customer_id),
                      value={"c_balance_delta": -amount}),
            Operation(OpType.WRITE, "history",
                      (warehouse_id, district_id, customer_id, self._next_order_id()),
                      value={"h_amount": amount}),
        ]
        return operations, self._is_distributed([warehouse_id, customer_warehouse])

    def _order_status(self, warehouse_id: int):
        district_id = self._district()
        customer_id = self._customer()
        order_id = self.rng.randint(2990, 3000)
        operations = [
            Operation(OpType.READ, "customer", (warehouse_id, district_id, customer_id)),
            Operation(OpType.READ, "order", (warehouse_id, district_id, order_id)),
            Operation(OpType.READ, "orderline", (warehouse_id, district_id, order_id, 1)),
        ]
        return operations, False

    def _delivery(self, warehouse_id: int):
        operations: List[Operation] = []
        # One Delivery transaction processes every district (as in the spec).
        for district_id in range(1, DISTRICTS_PER_WAREHOUSE + 1):
            order_id = self.rng.randint(2990, 3000)
            operations.append(Operation(OpType.UPDATE, "neworder",
                                        (warehouse_id, district_id, order_id),
                                        value={"delivered": True}))
            operations.append(Operation(OpType.UPDATE, "order",
                                        (warehouse_id, district_id, order_id),
                                        value={"o_carrier_id": 7}))
            operations.append(Operation(OpType.UPDATE, "customer",
                                        (warehouse_id, district_id, self._customer()),
                                        value={"c_balance_delta": 25.0}))
        return operations, False

    def _stock_level(self, warehouse_id: int):
        district_id = self._district()
        operations = [Operation(OpType.READ, "district", (warehouse_id, district_id))]
        for _ in range(5):
            operations.append(Operation(OpType.READ, "stock",
                                        (warehouse_id, self._item())))
        return operations, False


# ------------------------------------------------------------------- plugin
register_workload(WorkloadPlugin(
    name="tpcc",
    description="TPC-C order processing partitioned by warehouse (\u00a7VII-A2)",
    aliases=("tpc_c",),
    factory=TPCCWorkload,
    config_factory=TPCCConfig,
    config_field="tpcc",
))
