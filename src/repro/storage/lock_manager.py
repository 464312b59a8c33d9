"""Strict two-phase-locking lock manager: the public home of its names.

The implementation lives in the simulation kernel,
:mod:`repro.sim._kernel.locks`, because its grant/release/wheel-timer paths run
once per record access and are part of the simulator's hot loop.  See that
module for the design notes on lock compatibility, FIFO hand-off and
wheel-timer timeouts.
"""

from repro.sim._kernel.locks import (
    LOCK_WAIT_TIMEOUT_MS,
    LockManager,
    LockMode,
    LockRequest,
    LockStats,
    LockTimeoutError,
)

__all__ = [
    "LOCK_WAIT_TIMEOUT_MS",
    "LockManager",
    "LockMode",
    "LockRequest",
    "LockStats",
    "LockTimeoutError",
]
