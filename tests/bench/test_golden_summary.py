"""Golden-output determinism tests for the simulation engine.

These snapshots pin the exact ``ExperimentSummary`` a fixed seed must produce:
throughput, latency percentiles, abort counts and a SHA-256 digest over the
full latency sample list.  Any engine change that alters simulation results —
however subtly — shifts at least one latency sample and trips the digest.

Each test reduces its run with :func:`repro.bench.equivalence.snapshot` and
checks it against its entry in ``tests/bench/data/pins.json`` (``pins.py``).
A deliberate semantic change re-pins them through the one procedure in
EXPERIMENTS.md ("Statistical equivalence"), at most once per PR.
"""

from __future__ import annotations

import pytest

from repro.bench.equivalence import snapshot
from repro.bench.runner import ExperimentConfig
from repro.bench.scenarios import get_scenario
from repro.workloads.ycsb import YCSBConfig
from tests.bench.pins import assert_pinned


def contended_config(system: str) -> ExperimentConfig:
    """The high-contention pin: lock waits, timeouts and admission aborts."""
    return ExperimentConfig(
        system=system, terminals=24, duration_ms=9_000.0, warmup_ms=1_000.0,
        ycsb=YCSBConfig(skew=1.1, distributed_ratio=0.5,
                        records_per_node=100),
        seed=7)


def scale_config() -> ExperimentConfig:
    """The medium-scale pin: heap compaction and lock-timer churn territory."""
    return ExperimentConfig(
        system="geotp", terminals=32, duration_ms=10_000.0, warmup_ms=1_000.0,
        ycsb=YCSBConfig(skew=0.9, distributed_ratio=0.2))


@pytest.mark.parametrize("pin", ["golden.smoke.ssp", "golden.smoke.geotp"])
def test_smoke_scenario_summary_is_byte_identical_to_snapshot(pin):
    system = pin.split(".")[-1]
    (point,) = [point for point in get_scenario("smoke").sweep().points()
                if point.params["system"] == system]
    assert_pinned(pin, snapshot(point.config))


def test_contended_run_summary_is_byte_identical_to_snapshot():
    # Lock waits, lock-wait timeouts, admission aborts, release/withdraw paths.
    assert_pinned("golden.contended.geotp", snapshot(contended_config("geotp")))


def test_contended_ssp_run_summary_is_byte_identical_to_snapshot():
    # Keeps a non-GeoTP coordinator's lock-timeout and release paths pinned
    # (the smoke runs are too gentle to reach them).
    assert_pinned("golden.contended.ssp", snapshot(contended_config("ssp")))


def test_medium_scale_run_summary_is_byte_identical_to_snapshot():
    # Large enough for heap compaction and lock-timer churn: a stale-queue
    # compaction bug once stalled exactly this class of run.
    assert_pinned("golden.scale.geotp", snapshot(scale_config()))
