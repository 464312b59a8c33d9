"""Engine selection: pure-Python kernel vs the optional mypyc-compiled core.

The hot kernel of the simulator lives in :mod:`repro.sim._kernel` (pure
Python, the source of truth) and — when the optional build has been run — as
an ahead-of-time-compiled twin in :mod:`repro.sim._ckernel` (mypyc).  Both
packages export the same five modules (``events``, ``process``,
``environment``, ``resources``, ``locks``) with identical semantics; the
compiled one simply removes interpreter overhead.

Which kernel a process uses is decided **once, at import time**, from the
``REPRO_ENGINE`` environment variable:

``pure``
    Always use the interpreted kernel.
``compiled``
    Require the compiled kernel; raise immediately if it is not built (never
    silently fall back — benchmarks asking for the compiled engine must not
    quietly measure the pure one).
``auto`` (default)
    Use the compiled kernel when available, else the pure one.

The public modules (:mod:`repro.sim.events`, :mod:`repro.sim.process`,
:mod:`repro.sim.environment`, :mod:`repro.sim.resources`,
:mod:`repro.storage.lock_manager`) are thin facades re-exporting from the
selected kernel, so the two class sets are never mixed within one process.
Worker processes (e.g. ``SweepRunner``'s ``ProcessPoolExecutor`` children)
inherit ``REPRO_ENGINE`` through the environment and therefore make the same
choice.

:func:`engine_info` is the introspection API every entry point (runner, CLI)
reports, and the ``engine`` field of experiment summaries and CLI documents
comes from :func:`active_engine`.
"""

from __future__ import annotations

import os
from types import ModuleType
from typing import Any, Dict, Optional, Tuple

ENGINE_ENV_VAR = "REPRO_ENGINE"
VALID_ENGINES: Tuple[str, ...] = ("pure", "compiled", "auto")

_requested: str = os.environ.get(ENGINE_ENV_VAR, "auto").strip().lower() or "auto"
if _requested not in VALID_ENGINES:
    raise RuntimeError(
        f"{ENGINE_ENV_VAR}={_requested!r} is not a valid engine; "
        f"choose one of {', '.join(VALID_ENGINES)}")

_compiled_error: Optional[str] = None


def _import_compiled() -> Optional[ModuleType]:
    """Import the compiled kernel package, or record why it is unusable."""
    global _compiled_error
    try:
        from repro.sim import _ckernel  # noqa: PLC0415 - deliberate lazy probe
    except ImportError as exc:
        _compiled_error = str(exc)
        return None
    return _ckernel


kernel: ModuleType
if _requested == "pure":
    from repro.sim import _kernel as kernel

    _active = "pure"
    _compiled_error = f"not attempted ({ENGINE_ENV_VAR}=pure)"
else:
    _compiled = _import_compiled()
    if _compiled is not None:
        kernel = _compiled
        _active = "compiled"
    elif _requested == "compiled":
        raise RuntimeError(
            f"{ENGINE_ENV_VAR}=compiled but the compiled engine core is not "
            f"available: {_compiled_error}. Build it with "
            f"`python tools/build_compiled.py` (requires mypy and a C "
            f"toolchain) or use {ENGINE_ENV_VAR}=auto|pure.")
    else:
        from repro.sim import _kernel as kernel

        _active = "pure"

#: The five kernel modules of the selected engine, re-exported by the facades.
events: ModuleType = kernel.events
process: ModuleType = kernel.process
environment: ModuleType = kernel.environment
resources: ModuleType = kernel.resources
locks: ModuleType = kernel.locks


def requested_engine() -> str:
    """The engine asked for via ``REPRO_ENGINE`` (``auto`` if unset)."""
    return _requested


def active_engine() -> str:
    """The engine this process actually runs: ``pure`` or ``compiled``."""
    return _active


def compiled_available() -> bool:
    """True if the compiled kernel can be imported in this interpreter.

    When the active engine is pure this *probes* the compiled package (the
    probe is cached); the imported compiled classes are simply unused, so the
    probe cannot contaminate the running engine.
    """
    if _active == "compiled":
        return True
    if _requested == "pure" and _compiled_error is not None \
            and _compiled_error.startswith("not attempted"):
        # REPRO_ENGINE=pure skipped the import-time probe; do it now.
        return _import_compiled() is not None
    return False


def engine_info() -> Dict[str, Any]:
    """Describe the engine selection of this process (JSON-serialisable)."""
    return {
        "requested": _requested,
        "active": _active,
        "compiled_available": compiled_available(),
        "compiled_error": None if compiled_available() else _compiled_error,
        "kernel": kernel.__name__,
        "env_var": ENGINE_ENV_VAR,
    }
