"""Failure injection and recovery (§V-A of the paper)."""

from repro.recovery.failures import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    post_recovery_band,
)
from repro.recovery.recovery_manager import RecoveryManager, RecoveryReport

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "RecoveryManager",
    "RecoveryReport",
    "post_recovery_band",
]
