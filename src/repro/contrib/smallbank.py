"""SmallBank-style banking workload (contrib plugin).

A read-heavy variant of the classic SmallBank benchmark (Alomari et al.,
ICDE 2008): customer accounts hold a ``savings`` and a ``checking`` row, and
terminals issue short banking transactions — balance reads, deposits,
withdrawals and payments — over accounts striped across the data nodes.

The knob the geo-distributed experiments care about is ``distributed_ratio``:
with that probability a transaction spans two data nodes (a cross-node
payment, amalgamate, or multi-account balance read); otherwise every account
it touches lives on one node.  Contention is controlled with a hot-account
set, as in the original benchmark.

This module is a *plugin*: it registers the workload without any edits to
``repro.cluster.deployment`` or ``repro.bench.runner`` —
importing it (``repro.contrib`` does so automatically) is all it takes for
``smallbank`` to appear in ``python -m repro.bench list --workloads``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common import Operation, OpType
from repro.middleware.router import ModuloPartitioner
from repro.middleware.statements import TransactionSpec
from repro.plugins import WorkloadPlugin, register_workload
from repro.storage.engine import SharedRows
from repro.workloads.base import Workload, WorkloadConfig

SAVINGS = "savings"
CHECKING = "checking"

#: Default transaction mix — read-heavy: 60 % pure balance reads.
DEFAULT_MIX = {
    "balance": 0.60,
    "deposit_checking": 0.10,
    "transact_savings": 0.10,
    "write_check": 0.10,
    "send_payment": 0.10,
}

#: Transaction types that have a two-node (distributed) variant.
DISTRIBUTED_CAPABLE = ("balance", "send_payment", "amalgamate")

# Sizes are scaled for simulation.
#: Customer accounts per data node (each owns a savings + a checking row),
#: all loaded.
ACCOUNTS_PER_NODE = 20_000
#: Probability that an account draw comes from the hot set.
HOTSPOT_PROBABILITY = 0.25
#: Size of the per-node hot-account set.
HOTSPOT_ACCOUNTS = 100
#: Initial balance loaded into each savings/checking row.
INITIAL_BALANCE = 1_000.0


@dataclass
class SmallBankConfig(WorkloadConfig):
    """Configuration of the SmallBank generator."""

    #: Transaction mix; must sum to 1.  ``amalgamate`` may appear here too.
    mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))


class SmallBankWorkload(Workload):
    """Generator of SmallBank transaction specs."""

    name = "smallbank"

    def __init__(self, datasource_names, config: SmallBankConfig):
        super().__init__(datasource_names, config)
        self.config: SmallBankConfig = config
        if not 0 <= config.distributed_ratio <= 1:
            raise ValueError("distributed_ratio must be in [0, 1]")
        total = sum(config.mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"transaction mix must sum to 1 (got {total})")
        known = set(DEFAULT_MIX) | {"amalgamate"}
        unknown = set(config.mix) - known
        if unknown:
            raise ValueError(f"unknown transaction types in mix: {sorted(unknown)}")
        self._distributed_mix = {t: w for t, w in config.mix.items()
                                 if t in DISTRIBUTED_CAPABLE and w > 0}
        if not self._distributed_mix:
            # Every mix can express a cross-node payment even when the
            # configured weights exclude one (e.g. a pure-balance mix).
            self._distributed_mix = {"send_payment": 1.0}
        self._distributed_mix_total = sum(self._distributed_mix.values())
        self._partitioner = ModuloPartitioner(self.datasource_names)
        self._builders = {
            "balance": self._balance,
            "deposit_checking": self._deposit_checking,
            "transact_savings": self._transact_savings,
            "write_check": self._write_check,
            "send_payment": self._send_payment,
            "amalgamate": self._amalgamate,
        }

    # --------------------------------------------------------------- interface
    def make_partitioner(self) -> ModuloPartitioner:
        return self._partitioner

    def initial_data(self) -> Dict[str, Dict[str, SharedRows]]:
        balance = {"balance": INITIAL_BALANCE}
        data: Dict[str, Dict[str, SharedRows]] = {}
        for node_index, name in enumerate(self.datasource_names):
            accounts = self._partitioner.keys_for_node(node_index, ACCOUNTS_PER_NODE)
            data[name] = {SAVINGS: SharedRows(accounts, balance),
                          CHECKING: SharedRows(accounts, balance)}
        return data

    def next_transaction(self, terminal_id: int = 0) -> TransactionSpec:
        node_count = len(self.datasource_names)
        home = self.rng.randint(0, node_count - 1)
        is_distributed = (node_count > 1
                          and self.rng.bernoulli(self.config.distributed_ratio))
        if is_distributed:
            txn_type = self._draw_type(self._distributed_mix,
                                       self._distributed_mix_total)
            others = [i for i in range(node_count) if i != home]
            remote = self.rng.choice(others)
        else:
            txn_type = self._draw_type(self.config.mix, 1.0)  # validated sum
            remote = home
        operations = self._builders[txn_type](home, remote)
        return TransactionSpec.from_operations(
            operations, txn_type=txn_type, rounds=self.config.rounds,
            metadata={"distributed": is_distributed, "home_node": home})

    # ------------------------------------------------------------ txn builders
    # Each builder takes (home, remote) node indices; remote == home for
    # centralized transactions, so two-account types fall back to two distinct
    # accounts on the home node.
    def _balance(self, home: int, remote: int) -> List[Operation]:
        account = self._draw_account(home)
        ops = [self._read(SAVINGS, account), self._read(CHECKING, account)]
        if remote != home:
            other = self._draw_account(remote)
            ops += [self._read(SAVINGS, other), self._read(CHECKING, other)]
        return ops

    def _deposit_checking(self, home: int, remote: int) -> List[Operation]:
        account = self._draw_account(home)
        return [self._read(CHECKING, account), self._update(CHECKING, account)]

    def _transact_savings(self, home: int, remote: int) -> List[Operation]:
        account = self._draw_account(home)
        return [self._read(SAVINGS, account), self._update(SAVINGS, account)]

    def _write_check(self, home: int, remote: int) -> List[Operation]:
        account = self._draw_account(home)
        return [self._read(SAVINGS, account), self._read(CHECKING, account),
                self._update(CHECKING, account)]

    def _send_payment(self, home: int, remote: int) -> List[Operation]:
        source = self._draw_account(home)
        destination = self._draw_account(remote, exclude=source)
        return [self._read(CHECKING, source), self._update(CHECKING, source),
                self._update(CHECKING, destination)]

    def _amalgamate(self, home: int, remote: int) -> List[Operation]:
        source = self._draw_account(home)
        destination = self._draw_account(remote, exclude=source)
        return [self._read(SAVINGS, source), self._read(CHECKING, source),
                self._update(SAVINGS, source), self._update(CHECKING, destination)]

    # ----------------------------------------------------------------- helpers
    def _draw_type(self, mix: Dict[str, float], total: float) -> str:
        draw = self.rng.random() * total
        cumulative = 0.0
        for txn_type, weight in mix.items():
            cumulative += weight
            if draw < cumulative:
                return txn_type
        return next(iter(mix))

    def _draw_account(self, node_index: int, exclude: int = -1) -> int:
        for _attempt in range(20):
            if self.rng.bernoulli(HOTSPOT_PROBABILITY):
                sequence = self.rng.randint(0, HOTSPOT_ACCOUNTS - 1)
            else:
                sequence = self.rng.randint(0, ACCOUNTS_PER_NODE - 1)
            account = self._partitioner.key_for_node(node_index, sequence)
            if account != exclude:
                return account
        return self._partitioner.key_for_node(node_index, ACCOUNTS_PER_NODE - 1)

    @staticmethod
    def _read(table: str, account: int) -> Operation:
        return Operation(op_type=OpType.READ, table=table, key=account)

    @staticmethod
    def _update(table: str, account: int) -> Operation:
        return Operation(op_type=OpType.UPDATE, table=table, key=account,
                         value={"balance": "updated"})


# ------------------------------------------------------------------- plugin
register_workload(WorkloadPlugin(
    name="smallbank",
    description="SmallBank-style read-heavy banking mix with a "
                "distributed-ratio knob",
    aliases=("small_bank",),
    factory=SmallBankWorkload,
    config_factory=SmallBankConfig,
))
