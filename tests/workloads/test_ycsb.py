"""Unit and property tests for the YCSB workload generator."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import OpType
from repro.workloads import YCSBConfig, YCSBWorkload

NODES = ["ds0", "ds1", "ds2", "ds3"]


def make_workload(**overrides):
    config = YCSBConfig(records_per_node=1000, **overrides)
    return YCSBWorkload(NODES, config)


def participants_of(workload, spec):
    partitioner = workload.make_partitioner()
    return {partitioner.locate(op.table, op.key)
            for op in spec.all_statements}


def test_rejects_invalid_configuration():
    with pytest.raises(ValueError):
        YCSBWorkload(NODES, YCSBConfig(records_per_node=0))
    with pytest.raises(ValueError):
        YCSBWorkload(NODES, YCSBConfig(distributed_ratio=1.5))
    with pytest.raises(ValueError):
        YCSBWorkload([], YCSBConfig())


def test_transaction_has_requested_length_and_single_round():
    workload = make_workload(operations_per_transaction=5, rounds=1)
    spec = workload.next_transaction()
    assert spec.statement_count == 5
    assert spec.round_count == 1
    assert spec.txn_type == "ycsb"


def test_rounds_split_operations():
    workload = make_workload(operations_per_transaction=6, rounds=3)
    spec = workload.next_transaction()
    assert spec.round_count == 3


def test_centralized_transactions_touch_one_node():
    workload = make_workload(distributed_ratio=0.0)
    for _ in range(30):
        spec = workload.next_transaction()
        assert len(participants_of(workload, spec)) == 1
        assert spec.metadata["distributed"] is False


def test_distributed_transactions_touch_two_nodes():
    workload = make_workload(distributed_ratio=1.0)
    for _ in range(30):
        spec = workload.next_transaction()
        assert len(participants_of(workload, spec)) == 2
        assert spec.metadata["distributed"] is True


def test_distributed_ratio_is_roughly_respected():
    workload = make_workload(distributed_ratio=0.3)
    distributed = sum(1 for _ in range(400)
                      if workload.next_transaction().metadata["distributed"])
    assert 60 <= distributed <= 180  # ~30% of 400 with slack


def test_read_ratio_controls_operation_mix():
    workload = make_workload(read_ratio=1.0)
    spec = workload.next_transaction()
    assert all(op.op_type is OpType.READ for op in spec.all_statements)
    workload = make_workload(read_ratio=0.0)
    spec = workload.next_transaction()
    assert all(op.is_write for op in spec.all_statements)


def test_keys_within_transaction_are_distinct():
    workload = make_workload(skew=1.5)
    for _ in range(50):
        spec = workload.next_transaction()
        keys = [op.key for op in spec.all_statements]
        assert len(keys) == len(set(keys))


def test_initial_data_is_partition_consistent():
    workload = make_workload()
    partitioner = workload.make_partitioner()
    data = workload.initial_data()
    assert set(data) == set(NODES)
    for node, tables in data.items():
        rows = tables["usertable"]
        assert len(rows) == 1000  # every row
        assert all(partitioner.locate("usertable", key) == node for key in rows)


def test_the_ledgers_preload_spelling_still_loads_every_row():
    # The perf ledger builds YCSBConfig(preload_rows_per_node=records_per_node).
    spelled = YCSBWorkload(NODES, YCSBConfig(records_per_node=1000,
                                             preload_rows_per_node=1000))
    assert spelled.initial_data() == make_workload().initial_data()
    assert YCSBConfig().preload_rows_per_node is None


def test_same_seed_gives_same_transaction_stream():
    a = make_workload(seed=5)
    b = make_workload(seed=5)
    keys_a = [op.key for op in a.next_transaction().all_statements]
    keys_b = [op.key for op in b.next_transaction().all_statements]
    assert keys_a == keys_b


def test_high_skew_concentrates_accesses():
    hot = make_workload(skew=1.5, distributed_ratio=0.0)
    cold = make_workload(skew=0.1, distributed_ratio=0.0)

    def hot_fraction(workload):
        hits = 0
        total = 0
        for _ in range(200):
            for op in workload.next_transaction().all_statements:
                total += 1
                # local sequence = key // node_count
                if op.key // len(NODES) < 10:
                    hits += 1
        return hits / total

    assert hot_fraction(hot) > hot_fraction(cold)


@given(ratio=st.floats(min_value=0.0, max_value=1.0),
       skew=st.floats(min_value=0.0, max_value=1.8),
       length=st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_property_generated_specs_are_well_formed(ratio, skew, length):
    workload = YCSBWorkload(NODES, YCSBConfig(
        records_per_node=500, distributed_ratio=ratio,
        skew=skew, operations_per_transaction=length))
    spec = workload.next_transaction()
    assert spec.statement_count == length
    partitioner = workload.make_partitioner()
    for op in spec.all_statements:
        assert 0 <= op.key < 500 * len(NODES)
        assert partitioner.locate("usertable", op.key) in NODES


def spec_stream_digest(config, count=2_000):
    """SHA-256 over the first ``count`` specs' metadata, op types, keys and values."""
    workload = YCSBWorkload(NODES, config)
    digest = hashlib.sha256()
    for _ in range(count):
        spec = workload.next_transaction()
        digest.update(repr((sorted(spec.metadata.items()), [
            [(op.op_type.name, op.key, op.value)
             for op in statements] for statements in spec.rounds])).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("config, expected", [
    (YCSBConfig(seed=7),
     "4f941f577af05c8ad8a3273200b377d85ed9e9d753f94aebe217147a01fd01dc"),
    # Four keys per node and six operations: every centralized transaction
    # exhausts the 20 redraws and takes the final unchecked draw.
    (YCSBConfig(seed=3, records_per_node=4, skew=1.5,
                operations_per_transaction=6, distributed_ratio=0.5, rounds=2),
     "db860889d35594dcce51f73a5d38c1ced428c0ab1d49144a61b23bfefc1c69cd"),
], ids=["default", "retry-exhausted"])
def test_spec_stream_is_pinned_to_its_rng_call_sequence(config, expected):
    # Captured while keys came from ``key_for_node`` and coins from
    # ``rng.bernoulli``: inlining either must not move one RNG draw.
    assert spec_stream_digest(config) == expected
