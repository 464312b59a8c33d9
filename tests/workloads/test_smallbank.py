"""Unit tests for the contrib SmallBank workload plugin."""

import pytest

from repro.common import OpType
from repro.contrib.smallbank import (
    ACCOUNTS_PER_NODE,
    CHECKING,
    SAVINGS,
    SmallBankConfig,
    SmallBankWorkload,
)

NODES = ["ds0", "ds1", "ds2"]


def _workload(**overrides) -> SmallBankWorkload:
    return SmallBankWorkload(NODES, SmallBankConfig(**overrides))


def _touched_nodes(workload, spec):
    partitioner = workload.make_partitioner()
    return {partitioner.locate(op.table, op.key)
            for op in spec.all_statements}


def test_initial_data_loads_savings_and_checking_per_node():
    workload = _workload()
    data = workload.initial_data()
    assert set(data) == set(NODES)
    for node, tables in data.items():
        assert set(tables) == {SAVINGS, CHECKING}
        assert len(tables[SAVINGS]) == ACCOUNTS_PER_NODE
        assert set(tables[SAVINGS]) == set(tables[CHECKING])
        # Every loaded account actually lives on its node.
        for account in tables[SAVINGS]:
            assert workload.make_partitioner().locate(SAVINGS, account) == node


def test_distributed_ratio_zero_and_one_are_exact():
    centralized = _workload(distributed_ratio=0.0)
    for _ in range(200):
        spec = centralized.next_transaction()
        assert spec.metadata["distributed"] is False
        assert len(_touched_nodes(centralized, spec)) == 1

    distributed = _workload(distributed_ratio=1.0)
    for _ in range(200):
        spec = distributed.next_transaction()
        assert spec.metadata["distributed"] is True
        assert len(_touched_nodes(distributed, spec)) == 2


def test_distributed_ratio_is_respected_statistically():
    workload = _workload(distributed_ratio=0.4, seed=3)
    hits = sum(workload.next_transaction().metadata["distributed"]
               for _ in range(1_000))
    assert 330 <= hits <= 470


def test_default_mix_is_read_heavy():
    workload = _workload(seed=1)
    reads = writes = 0
    for _ in range(500):
        for op in workload.next_transaction().all_statements:
            if op.op_type is OpType.READ:
                reads += 1
            else:
                writes += 1
    assert reads > writes


def test_same_seed_reproduces_the_exact_transaction_stream():
    def stream(seed):
        workload = _workload(seed=seed)
        return [[(op.op_type, op.table, op.key)
                 for op in workload.next_transaction().all_statements]
                for _ in range(50)]

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_two_account_transactions_use_distinct_accounts():
    workload = _workload(distributed_ratio=0.0, seed=5,
                         mix={"send_payment": 0.5, "amalgamate": 0.5})
    for _ in range(200):
        spec = workload.next_transaction()
        accounts = {op.key for op in spec.all_statements}
        assert len(accounts) == 2


def test_config_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        _workload(mix={"balance": 0.5})
    with pytest.raises(ValueError, match="unknown transaction types"):
        _workload(mix={"balance": 0.5, "wire_fraud": 0.5})
    with pytest.raises(ValueError, match="distributed_ratio"):
        _workload(distributed_ratio=1.5)


def test_pure_balance_mix_still_supports_distribution():
    """A mix without two-account types falls back to cross-node payments."""
    workload = _workload(distributed_ratio=1.0, mix={"deposit_checking": 1.0})
    spec = workload.next_transaction()
    assert spec.metadata["distributed"] is True
    assert len(_touched_nodes(workload, spec)) == 2
    assert spec.txn_type == "send_payment"


def test_switching_workload_drops_the_stale_workload_config():
    """sweep(workload=...) must not feed a SmallBankConfig to another factory."""
    from repro.bench.runner import make_workload
    from repro.bench.scenarios import get_scenario

    sweep = get_scenario("smallbank_dist_ratio").sweep(workload="ycsb")
    assert sweep.base.workload_config is None
    workload = make_workload(sweep.base, NODES)
    assert workload.name == "ycsb"


def test_make_workload_rejects_a_mismatched_workload_config():
    from repro.bench.runner import ExperimentConfig, make_workload

    config = ExperimentConfig(workload="ycsb",
                              workload_config=SmallBankConfig())
    with pytest.raises(TypeError, match="YCSBConfig"):
        make_workload(config, NODES)


def test_registered_scenario_expands_with_ratio_axis():
    from repro.bench.scenarios import get_scenario

    points = get_scenario("smallbank_dist_ratio").sweep().points()
    assert len(points) == 6  # 2 systems x 3 ratios
    for point in points:
        assert point.config.workload == "smallbank"
        assert (point.config.workload_config.distributed_ratio
                == point.params["ratio"])
