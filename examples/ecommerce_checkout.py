"""Global e-commerce checkout: TPC-C style order processing across regions.

The paper's introduction motivates GeoTP with a global store whose user
accounts live in one country and whose stock lives in another.  This example
runs the TPC-C NewOrder + Payment mix on the four-region topology, sweeps the
fraction of orders that need stock from a remote region, and shows how GeoTP
keeps checkout latency flat where the XA baseline degrades.

Usage::

    python examples/ecommerce_checkout.py
"""

from repro import ExperimentConfig, TPCCConfig, run_experiment
from repro.bench.report import print_table


def checkout_mix() -> dict:
    """Orders and payments only — the write-heavy, contended part of TPC-C."""
    return {"new_order": 0.5, "payment": 0.5}


def main() -> None:
    rows = []
    for remote_stock_ratio in (0.2, 0.6, 1.0):
        for system in ("ssp", "geotp"):
            config = ExperimentConfig(
                system=system,
                workload="tpcc",
                tpcc=TPCCConfig(
                    warehouses_per_node=4,
                    customers_per_district=30,
                    item_count=200,
                    mix=checkout_mix(),
                    distributed_ratio=remote_stock_ratio,
                ),
                terminals=32,
                duration_ms=15_000,
                warmup_ms=3_000,
            )
            result = run_experiment(config)
            rows.append((f"{int(remote_stock_ratio * 100)}%", system,
                         round(result.throughput_tps, 1),
                         round(result.average_latency_ms, 1),
                         round(result.collector.average_latency_ms(
                             txn_type="new_order"), 1),
                         round(result.collector.average_latency_ms(
                             txn_type="payment"), 1)))

    print_table(
        "Checkout performance vs share of orders needing remote stock",
        ["remote stock", "system", "orders+payments /s", "avg latency (ms)",
         "NewOrder latency (ms)", "Payment latency (ms)"], rows)


if __name__ == "__main__":
    main()
