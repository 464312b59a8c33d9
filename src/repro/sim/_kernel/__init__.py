"""The simulation kernel.

This package holds the hot kernel of the discrete-event engine — events,
processes, the environment dispatch loop, resources and the 2PL lock
manager — as fully annotated Python with explicit ``__slots__`` and only
relative imports between its modules.

Code outside :mod:`repro.sim` imports the kernel classes from
:mod:`repro.sim` (the lock-manager names from
:mod:`repro.storage.lock_manager`); modules inside :mod:`repro.sim` import
them from here, which keeps the package's own initialisation free of cycles.
"""

from repro.sim._kernel import environment, events, locks, process, resources

__all__ = ["environment", "events", "locks", "process", "resources"]
