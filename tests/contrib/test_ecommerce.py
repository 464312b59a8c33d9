"""The contrib e-commerce workload: sessions, flash crowds, plugin wiring."""

import pytest

from repro.bench.runner import run_experiment
from repro.bench.scenarios import get_scenario
from repro.contrib.ecommerce import (
    ADD_TO_CART,
    BROWSE,
    CHECKOUT,
    PAYMENT,
    EcommerceConfig,
    EcommerceWorkload,
)
from repro.plugins import get_workload_plugin, workload_names

NODES = ("ds0", "ds1", "ds2")


def make_workload(**overrides):
    return EcommerceWorkload(NODES, EcommerceConfig(**overrides))


def drain_session(workload, terminal_id=0):
    """Generate exactly one full session's transactions for a terminal."""
    spec = workload.next_transaction(terminal_id)
    stages = [spec]
    while workload._sessions[terminal_id]["stages"]:
        stages.append(workload.next_transaction(terminal_id))
    return stages


# ---------------------------------------------------------------- plugin wiring
def test_plugin_is_registered_with_aliases():
    assert "ecommerce" in workload_names()
    plugin = get_workload_plugin("ecommerce")
    assert get_workload_plugin("ecom") is plugin
    assert get_workload_plugin("checkout") is plugin
    assert plugin.factory is EcommerceWorkload
    assert plugin.config_factory is EcommerceConfig


def test_flash_crowd_scenario_is_registered():
    scenario = get_scenario("ecommerce_flash_crowd")
    (shift_axis,) = [axis for axis in scenario.axes
                     if axis.name == "shift_every"]
    assert shift_axis.values == (0, 2_000, 500)
    assert shift_axis.path == "workload_config.hotspot_shift_every"
    assert scenario.base.workload == "ecommerce"


def test_config_validation_rejects_bad_knobs():
    with pytest.raises(ValueError, match="products_per_node"):
        make_workload(products_per_node=1)
    with pytest.raises(ValueError, match="customers_per_node"):
        make_workload(customers_per_node=0)
    with pytest.raises(ValueError, match="hotspot_shift_every"):
        make_workload(hotspot_shift_every=-1)
    with pytest.raises(ValueError, match="distributed_ratio"):
        make_workload(distributed_ratio=1.5)


# -------------------------------------------------------------------- sessions
def test_sessions_follow_the_browse_cart_checkout_payment_arc():
    workload = make_workload(seed=5)
    for _ in range(20):
        stages = [spec.txn_type for spec in drain_session(workload)]
        checkout_at = stages.index(CHECKOUT)
        assert stages[checkout_at:] == [CHECKOUT, PAYMENT]
        browses = stages[:stages.index(ADD_TO_CART)]
        assert browses and all(s == BROWSE for s in browses)
        assert 1 <= len(browses) <= workload.config.max_browses
        adds = stages[len(browses):checkout_at]
        assert adds and all(s == ADD_TO_CART for s in adds)
        assert 1 <= len(adds) <= workload.config.max_cart_adds


def test_terminals_hold_independent_sessions():
    workload = make_workload(seed=1)
    first = workload.next_transaction(0)
    second = workload.next_transaction(7)
    assert first.txn_type == second.txn_type == BROWSE
    assert set(workload._sessions) == {0, 7}
    assert workload._sessions[0] is not workload._sessions[7]


def test_checkout_metadata_matches_the_reserved_product_homes():
    workload = make_workload(seed=9, distributed_ratio=0.5)
    node_count = len(NODES)
    seen = set()
    for _ in range(50):
        for spec in drain_session(workload):
            if spec.txn_type != CHECKOUT:
                continue
            home = spec.metadata["home_node"]
            reserved = [stmt.operation.key for stmt in spec.all_statements
                        if stmt.operation.table == "products"
                        and stmt.operation.op_type.name == "UPDATE"]
            assert reserved, "a checkout must reserve stock"
            expected = any(key % node_count != home for key in reserved)
            assert spec.metadata["distributed"] == expected
            seen.add(expected)
    assert seen == {True, False}, "expected a mix of local and distributed"


def spec_digest(spec):
    """Comparable view of a spec (spec_id is a process-global counter)."""
    return (spec.txn_type, spec.metadata,
            [(s.operation.op_type, s.operation.table, s.operation.key,
              s.operation.value) for s in spec.all_statements])


def test_same_seed_generators_replay_byte_identically():
    first, second = make_workload(seed=42), make_workload(seed=42)
    for _ in range(100):
        assert spec_digest(first.next_transaction(3)) == \
            spec_digest(second.next_transaction(3))


def test_initial_data_preloads_catalog_customers_and_carts():
    workload = make_workload(products_per_node=100,
                             preload_products_per_node=10,
                             customers_per_node=4)
    data = workload.initial_data()
    assert set(data) == set(NODES)
    for node_index, name in enumerate(NODES):
        assert len(data[name]["products"]) == 10
        assert len(data[name]["customers"]) == 4
        assert set(data[name]["carts"]) == set(data[name]["customers"])
        for key in data[name]["products"]:
            assert key % len(NODES) == node_index


# ----------------------------------------------------------------- flash crowd
def test_static_hot_window_never_moves():
    workload = make_workload(hotspot_shift_every=0)
    bases = set()
    for _ in range(30):
        drain_session(workload)
        bases.add(workload._hot_window_base())
    assert bases == {0}


def test_flash_crowd_shifts_scatter_the_hot_window():
    workload = make_workload(hotspot_shift_every=10, products_per_node=10_000)
    bases = []
    for _ in range(40):
        drain_session(workload)
        base = workload._hot_window_base()
        if not bases or bases[-1] != base:
            bases.append(base)
    assert len(bases) >= 3, "the hot window never shifted"
    span = workload.config.products_per_node - workload.config.hotspot_products
    assert all(0 <= base < span for base in bases)
    # Successive windows jump, they don't slide.
    gaps = [abs(b - a) for a, b in zip(bases, bases[1:])]
    assert min(gaps) > workload.config.hotspot_products


def test_hot_draws_land_inside_the_current_window():
    workload = make_workload(hotspot_probability=1.0, hotspot_products=50,
                             products_per_node=1_000, hotspot_shift_every=0)
    node_count = len(NODES)
    for _ in range(200):
        key = workload._draw_product(1)
        assert key % node_count == 1
        assert 0 <= key // node_count < 50


# ------------------------------------------------------------------ end to end
def test_flash_crowd_scenario_smoke_run_commits_transactions():
    sweep = get_scenario("ecommerce_flash_crowd").sweep(
        axes={"system": ("geotp",), "shift_every": (500,)},
        duration_ms=3_000.0, warmup_ms=600.0, terminals=4,
        workload_config__products_per_node=1_000,
        workload_config__preload_products_per_node=200,
        workload_config__customers_per_node=100)
    (point,) = sweep.points()
    result = run_experiment(point.config)
    assert result.committed > 0
    collector = result.collector
    by_type = {txn_type: (collector.committed_count(txn_type)
                          + collector.aborted_count(txn_type))
               for txn_type in (BROWSE, ADD_TO_CART, CHECKOUT, PAYMENT)}
    # No completion of any other type: the four account for every one.
    assert sum(by_type.values()) == result.committed + result.aborted
    assert by_type[CHECKOUT] > 0 and by_type[PAYMENT] > 0
