"""Golden-output determinism tests for the simulation engine.

These snapshots pin the exact ``ExperimentSummary`` a fixed seed must produce:
throughput, latency percentiles, abort counts and a SHA-256 digest over the
full latency sample list.  Any engine change that alters simulation results —
however subtly — shifts at least one latency sample and trips the digest.

Re-pin history
--------------

* The smoke, contended and scale snapshots were captured on the *unoptimized*
  engine (pre PR 2); the byte-identical fast-path work of PR 2/3 kept every
  one of them green.
* The two **contended** snapshots were re-pinned ONCE when the
  ordering-relaxed fast paths landed (run-to-first-yield processes, same-time
  microqueue dispatch, hashed timer wheel for lock waits).  Those
  optimizations deliberately change same-timestamp event interleaving and
  round lock-wait expiries up to the next 1 ms wheel tick, which shifted a
  handful of latency samples by <= 1.2 ms in the lock-heavy runs; committed
  and abort counts (and the low-contention smoke/scale snapshots) were
  untouched.  The statistical-equivalence harness
  (``tests/bench/test_equivalence.py`` / :mod:`repro.bench.equivalence`) is
  the primary safety net for that class of change; these pins now guard
  *accidental* drift between deliberate re-pins.

If another deliberate semantic change lands, follow the re-pin procedure in
EXPERIMENTS.md ("Statistical equivalence"): refresh the equivalence reference,
verify the equivalence suite passes, then update the constants below from the
failure output — and say so in the commit message.  Goldens must be re-pinned
at most once per PR.

Each pin reduces its run with :func:`repro.bench.equivalence.snapshot`, the
one snapshot helper every determinism check shares; the pinned
configurations are defined below, next to the constants they must produce.
"""

from __future__ import annotations

from repro.bench.equivalence import snapshot
from repro.bench.runner import ExperimentConfig
from repro.bench.scenarios import get_scenario
from repro.workloads.ycsb import YCSBConfig


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


#: Exact summaries of the registered ``smoke`` scenario (seed 0), per system.
GOLDEN_SMOKE = {
    "ssp": {
        "throughput_tps": 17.0,
        "committed": 34,
        "aborted": 0,
        "average_latency_ms": 231.03529411764714,
        "p50": 150.60000000000014,
        "p99": 759.0,
        "abort_rate": 0.0,
        "abort_reasons": {},
        "n_samples": 34,
        "latency_sha256":
            "b366dc8c4bf21fe5e92d7e9769378d8b77f7216ebd84a426ba55ce2f7d52cc43",
    },
    "geotp": {
        "throughput_tps": 18.5,
        "committed": 37,
        "aborted": 0,
        "average_latency_ms": 205.33802056726134,
        "p50": 152.19999999999982,
        "p99": 540.8835520000001,
        "abort_rate": 0.0,
        "abort_reasons": {},
        "n_samples": 37,
        "latency_sha256":
            "be467fee84eae3fdaa08fda32dcbb3159e350c9d244af09a59358438226f9aad",
    },
}

#: Exact summary of a high-contention run (seed 7) that exercises lock waits,
#: lock-wait timeouts, admission aborts and the release/withdraw paths.
#: Re-pinned once for the ordering-relaxed engine (see module docstring):
#: identical committed/abort mix, latency samples shifted <= 1.2 ms by the
#: 1 ms timer-wheel rounding of lock-wait expiries.
GOLDEN_CONTENDED = {
    "throughput_tps": 1.875,
    "committed": 15,
    "aborted": 17,
    "average_latency_ms": 3927.496666666667,
    "p50": 5074.150000000001,
    "p99": 5488.912,
    "abort_rate": 0.53125,
    "abort_reasons": {"lock_timeout": 11, "admission_blocked": 6},
    "n_samples": 15,
    "latency_sha256":
        "033bc5a418360988f5079c4a9949ee1293be35b92a69be1aef968b79ad83d86a",
}


#: Exact summary of the same contended configuration under SSP (seed 7): the
#: registry refactor routes baseline wiring through plugin builders, and this
#: pin keeps a non-GeoTP coordinator byte-identical too (the smoke pins above
#: are too gentle to exercise SSP's lock-timeout and release paths).
#: Re-pinned once for the ordering-relaxed engine alongside GOLDEN_CONTENDED.
GOLDEN_CONTENDED_SSP = {
    "throughput_tps": 1.5,
    "committed": 12,
    "aborted": 22,
    "average_latency_ms": 1210.2999999999995,
    "p50": 387.8999999999992,
    "p99": 5542.853999999999,
    "abort_rate": 0.6470588235294118,
    "abort_reasons": {"lock_timeout": 22},
    "n_samples": 12,
    "latency_sha256":
        "f03705fe7fa193f7c876de87f0645286a3c2a046c0d416fa4dce2b9905ff9194",
}


#: Exact summary of a medium-scale run (32 terminals, 10 s) — large enough to
#: trigger heap compaction and lock-timer churn, which the two snapshots above
#: are too small to reach (a stale-queue compaction bug once stalled exactly
#: this class of run while the small snapshots stayed green).
GOLDEN_SCALE = {
    "throughput_tps": 125.33333333333333,
    "committed": 1128,
    "aborted": 5,
    "average_latency_ms": 239.41741446690526,
    "p50": 151.4000000000001,
    "p99": 1444.40779804659,
    "abort_rate": 0.00441306266548985,
    "abort_reasons": {"admission_blocked": 5},
    "n_samples": 1128,
    "latency_sha256":
        "a60979226c947c592108393806e3432ada2abbdad717f2d242c0bd52a50a3b00",
}


def test_smoke_scenario_summary_is_byte_identical_to_snapshot():
    snapshots = {point.params["system"]: snapshot(point.config)
                 for point in get_scenario("smoke").sweep().points()}
    assert set(snapshots) == set(GOLDEN_SMOKE)
    for system, pinned in snapshots.items():
        assert pinned == GOLDEN_SMOKE[system], (
            f"smoke[{system}] diverged from the golden snapshot")


def test_contended_run_summary_is_byte_identical_to_snapshot():
    assert snapshot(contended_config("geotp")) == GOLDEN_CONTENDED, (
        "contended geotp run diverged")


def test_contended_ssp_run_summary_is_byte_identical_to_snapshot():
    assert snapshot(contended_config("ssp")) == GOLDEN_CONTENDED_SSP, (
        "contended ssp run diverged")


def test_medium_scale_run_summary_is_byte_identical_to_snapshot():
    assert snapshot(scale_config()) == GOLDEN_SCALE, "medium-scale run diverged"
