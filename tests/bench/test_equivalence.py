"""The statistical-equivalence suite: the safety net for ordering-relaxed
engine optimizations.

The byte-identical golden pins (``test_golden_summary.py``) freeze one event
interleaving; this suite instead asserts the properties that must survive ANY
legal same-timestamp reordering:

1. per-seed bit-determinism of the engine,
2. the paper's headline system ordering (GeoTP >= SSP under contention,
   aggregated across seeds),
3. committed counts and the abort mix within a tolerance band of the
   reference capture taken on the ordering-strict engine
   (``tests/bench/data/equivalence_reference.json``).

CI runs this file explicitly in the test job; see EXPERIMENTS.md for the
procedure to refresh the reference after a future deliberate ordering change.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.equivalence import (
    CASES,
    DEFAULT_SEEDS,
    check_determinism,
    check_tolerance,
    check_trend,
    load_reference,
    run_case,
    snapshot,
)

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "data",
                              "equivalence_reference.json")


@pytest.fixture(scope="module")
def reference():
    return load_reference(REFERENCE_PATH)


@pytest.fixture(scope="module", params=[case.name for case in CASES])
def case_results(request):
    case = next(c for c in CASES if c.name == request.param)
    return case, run_case(case)


def test_reference_capture_covers_every_case_and_seed(reference):
    for case in CASES:
        ref_case = reference["cases"][case.name]
        for system in case.systems:
            assert set(ref_case[system]) == {str(seed) for seed in case.seeds}


def test_cases_run_at_least_three_seeds():
    assert len(DEFAULT_SEEDS) >= 3
    for case in CASES:
        assert len(case.seeds) >= 3


def test_engine_is_bit_deterministic_per_seed(case_results):
    case, results = case_results
    violations = []
    check_determinism(case, results, violations)
    assert not violations, "\n".join(violations)


def test_paper_trend_geotp_beats_ssp_across_seeds(case_results):
    case, results = case_results
    violations = []
    check_trend(case, results, violations)
    assert not violations, "\n".join(violations)


def test_committed_and_abort_mix_within_reference_band(case_results, reference):
    case, results = case_results
    violations = []
    check_tolerance(case, results, reference, violations)
    assert not violations, "\n".join(violations)


def test_snapshot_digest_detects_any_sample_change():
    config = CASES[0].config("geotp", CASES[0].seeds[0])
    first = snapshot(config)
    second = snapshot(config)
    assert first == second
    assert first["latency_sha256"] == second["latency_sha256"]
