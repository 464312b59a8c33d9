"""Every registered system runs through a data-source and a middleware crash.

The fault scenarios sweep only a few systems; this runs all of them, so a
coordinator change that breaks one baseline under a crash fails by name.
"""

import pytest

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.plugins import system_names
from repro.recovery.failures import FaultPlan
from repro.recovery.invariants import violations

DURATION_MS = 4_000.0


@pytest.mark.parametrize("fault", ["ds_crash", "mw_crash"])
@pytest.mark.parametrize("system", system_names())
def test_no_invariant_fails_under_a_crash(system, fault):
    summary = run_experiment(ExperimentConfig(
        system=system, terminals=8, duration_ms=DURATION_MS, seed=5,
        fault_plan=FaultPlan.named(fault, DURATION_MS)))
    assert summary.faults["injected"], summary.faults
    assert summary.invariants and not violations(summary.invariants)
