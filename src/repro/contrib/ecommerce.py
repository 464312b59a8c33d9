"""Session-based e-commerce checkout workload (contrib plugin).

Grown from ``examples/ecommerce_checkout.py``: the paper's motivating global
store, but as a first-class workload instead of a TPC-C remix.  Each terminal
walks a shopper *session* — a few catalog browses, some cart adds, then a
checkout that reserves stock and a payment that settles it — so the
transaction stream has the bursty read-then-write phase structure real
storefronts show, not an i.i.d. mix.

The knob this plugin contributes is the **flash crowd**:
``hotspot_shift_every`` moves the hot-product window to a fresh region of the
catalog every N generated transactions (transaction-count based, so it is
deterministic under any scheduler).  A shifted hot set invalidates whatever
locality the middleware has learned — the e-commerce equivalent of a product
going viral mid-run.

Like every contrib module this is a *plugin*: registering the workload
requires zero edits to the cluster or bench layers, and the config fuzz test
(``tests/recovery/test_config_fuzz.py``) draws the workload purely by its
registry name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common import Operation, OpType
from repro.middleware.router import ModuloPartitioner
from repro.middleware.statements import TransactionSpec
from repro.plugins import WorkloadPlugin, register_workload
from repro.storage.engine import SharedRows
from repro.workloads.base import Workload, WorkloadConfig

PRODUCTS = "products"
CARTS = "carts"
ORDERS = "orders"
CUSTOMERS = "customers"

#: Session stages, in order; ``next_transaction`` advances one stage per call.
BROWSE, ADD_TO_CART, CHECKOUT, PAYMENT = "browse", "add_to_cart", "checkout", "payment"

# Sizes are scaled for simulation.
#: Catalog rows per data node, all loaded.
PRODUCTS_PER_NODE = 10_000
#: Customers (and their carts) per data node, all loaded.
CUSTOMERS_PER_NODE = 500
#: Probability that a product draw comes from the current hot window.
HOTSPOT_PROBABILITY = 0.7
#: Size of the hot-product window.
HOTSPOT_PRODUCTS = 50
#: Browse transactions per session, drawn uniformly from [1, max].
MAX_BROWSES = 3
#: Cart-add transactions per session, drawn uniformly from [1, max].
MAX_CART_ADDS = 2
#: Line items reserved by a checkout.
ITEMS_PER_CHECKOUT = 2


@dataclass
class EcommerceConfig(WorkloadConfig):
    """Knobs of the e-commerce session generator."""

    #: Flash-crowd knob: move the hot window to a fresh catalog region every
    #: N generated transactions; 0 keeps it static for the whole run.
    hotspot_shift_every: int = 0


class EcommerceWorkload(Workload):
    """Generator of shopper-session transaction specs."""

    name = "ecommerce"

    def __init__(self, datasource_names, config: EcommerceConfig):
        super().__init__(datasource_names, config)
        self.config: EcommerceConfig = config
        if not 0 <= config.distributed_ratio <= 1:
            raise ValueError("distributed_ratio must be in [0, 1]")
        if config.hotspot_shift_every < 0:
            raise ValueError("hotspot_shift_every must be >= 0")
        self._partitioner = ModuloPartitioner(self.datasource_names)
        #: Per-terminal session state: remaining stage list + home node +
        #: customer.  Sessions are independent, so state is keyed by terminal.
        self._sessions: Dict[int, Dict] = {}
        #: Transactions generated so far — drives the flash-crowd shift.
        self._generated = 0
        self._builders = {
            BROWSE: self._browse,
            ADD_TO_CART: self._add_to_cart,
            CHECKOUT: self._checkout,
            PAYMENT: self._payment,
        }

    # --------------------------------------------------------------- interface
    def make_partitioner(self) -> ModuloPartitioner:
        return self._partitioner

    def initial_data(self) -> Dict[str, Dict[str, SharedRows]]:
        product = {"stock": 1_000, "price": 10.0}
        customer, cart = {"balance": 10_000.0}, {"items": 0}
        keys_for_node = self._partitioner.keys_for_node
        data: Dict[str, Dict[str, SharedRows]] = {}
        for node_index, name in enumerate(self.datasource_names):
            products = keys_for_node(node_index, PRODUCTS_PER_NODE)
            customers = keys_for_node(node_index, CUSTOMERS_PER_NODE)
            data[name] = {
                PRODUCTS: SharedRows(products, product),
                CUSTOMERS: SharedRows(customers, customer),
                CARTS: SharedRows(customers, cart)}
        return data

    def next_transaction(self, terminal_id: int = 0) -> TransactionSpec:
        session = self._sessions.get(terminal_id)
        if not session or not session["stages"]:
            session = self._new_session()
            self._sessions[terminal_id] = session
        stage = session["stages"].pop(0)
        self._generated += 1
        operations, is_distributed = self._builders[stage](session)
        return TransactionSpec.from_operations(
            operations, txn_type=stage, rounds=self.config.rounds,
            metadata={"distributed": is_distributed,
                      "home_node": session["home"]})

    # ----------------------------------------------------------------- session
    def _new_session(self) -> Dict:
        node_count = len(self.datasource_names)
        home = self.rng.randint(0, node_count - 1)
        stages = ([BROWSE] * self.rng.randint(1, MAX_BROWSES)
                  + [ADD_TO_CART] * self.rng.randint(1, MAX_CART_ADDS)
                  + [CHECKOUT, PAYMENT])
        customer = self._partitioner.key_for_node(
            home, self.rng.randint(0, CUSTOMERS_PER_NODE - 1))
        # The checkout's distribution draw is fixed at session start so the
        # cart adds and the checkout tell one coherent story.
        distributed = (node_count > 1
                       and self.rng.bernoulli(self.config.distributed_ratio))
        remote = home
        if distributed:
            others = [i for i in range(node_count) if i != home]
            remote = self.rng.choice(others)
        return {"stages": stages, "home": home, "remote": remote,
                "distributed": distributed, "customer": customer,
                "cart_products": []}

    # ------------------------------------------------------------ txn builders
    def _browse(self, session: Dict):
        ops = [self._read(PRODUCTS, self._draw_product(session["home"]))
               for _ in range(2)]
        return ops, False

    def _add_to_cart(self, session: Dict):
        node = (session["remote"]
                if session["distributed"] and self.rng.bernoulli(0.5)
                else session["home"])
        product = self._draw_product(node)
        session["cart_products"].append(product)
        ops = [self._read(PRODUCTS, product),
               self._update(CARTS, session["customer"], {"items": "added"})]
        return ops, False

    def _checkout(self, session: Dict):
        products = session["cart_products"][:ITEMS_PER_CHECKOUT]
        while len(products) < ITEMS_PER_CHECKOUT:
            node = (session["remote"] if session["distributed"]
                    else session["home"])
            products.append(self._draw_product(node))
        ops = [self._read(CARTS, session["customer"])]
        for product in products:
            ops += [self._read(PRODUCTS, product),
                    self._update(PRODUCTS, product, {"stock": "reserved"})]
        ops.append(self._write(ORDERS, session["customer"],
                               {"status": "placed"}))
        # Distributed iff any reserved product lives off the home node
        # (keys stripe by modulo, matching ModuloPartitioner.locate).
        home = session["home"]
        node_count = len(self.datasource_names)
        distributed = any(p % node_count != home for p in products)
        return ops, distributed

    def _payment(self, session: Dict):
        customer = session["customer"]
        ops = [self._read(CUSTOMERS, customer),
               self._update(CUSTOMERS, customer, {"balance": "charged"}),
               self._update(ORDERS, customer, {"status": "paid"})]
        session["cart_products"] = []
        return ops, False

    # ----------------------------------------------------------------- helpers
    def _hot_window_base(self) -> int:
        """First catalog sequence of the current hot window.

        Advances every ``hotspot_shift_every`` generated transactions; the
        large odd stride scatters successive windows across the catalog so a
        shift is a genuine locality break, not a neighbouring slide.
        """
        config = self.config
        if config.hotspot_shift_every <= 0:
            return 0
        shift = self._generated // config.hotspot_shift_every
        span = PRODUCTS_PER_NODE - HOTSPOT_PRODUCTS
        return (shift * 7_919) % span

    def _draw_product(self, node_index: int) -> int:
        if self.rng.bernoulli(HOTSPOT_PROBABILITY):
            sequence = self._hot_window_base() + self.rng.randint(
                0, HOTSPOT_PRODUCTS - 1)
            sequence %= PRODUCTS_PER_NODE
        else:
            sequence = self.rng.randint(0, PRODUCTS_PER_NODE - 1)
        return self._partitioner.key_for_node(node_index, sequence)

    @staticmethod
    def _read(table: str, key: int) -> Operation:
        return Operation(op_type=OpType.READ, table=table, key=key)

    @staticmethod
    def _update(table: str, key: int, value: Dict) -> Operation:
        return Operation(op_type=OpType.UPDATE, table=table, key=key,
                         value=value)

    @staticmethod
    def _write(table: str, key: int, value: Dict) -> Operation:
        return Operation(op_type=OpType.WRITE, table=table, key=key,
                         value=value)


# ------------------------------------------------------------------- plugin
register_workload(WorkloadPlugin(
    name="ecommerce",
    description="Session-based e-commerce checkout (browse/cart/checkout/"
                "payment) with a flash-crowd hotspot-shift knob",
    aliases=("ecom", "checkout"),
    factory=EcommerceWorkload,
    config_factory=EcommerceConfig,
))
