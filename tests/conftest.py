"""Shared fixtures: engine parameterization for the pure/compiled kernels.

The simulation kernel is selected once per process (``REPRO_ENGINE``), so a
test that wants to exercise *both* engines cannot simply flip a flag — the
non-active engine has to run in a fresh interpreter.  The ``engine`` fixture
parameterizes a test over every engine that can actually run here (the
compiled param skips cleanly when the mypyc core was never built, which is the
normal state on a machine without mypy), and ``goldens_runner`` evaluates a
``repro.bench.goldens`` command under a given engine: in-process when it is
the active one, otherwise in a ``REPRO_ENGINE``-pinned subprocess whose JSON
stdout is parsed and whose reported engine is verified.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import pytest

from repro.sim.engine import active_engine, compiled_available

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"

#: Every selectable engine, in the order tests should try them.
ENGINES = ("pure", "compiled")


def engine_runnable(engine: str) -> bool:
    """True when ``engine`` can execute in this environment."""
    if engine == "compiled":
        return active_engine() == "compiled" or compiled_available()
    return True


def require_engine(engine: str) -> None:
    """Skip the current test when ``engine`` cannot run here."""
    if not engine_runnable(engine):
        pytest.skip(f"{engine} engine core is not built in this environment "
                    f"(build it with `python tools/build_compiled.py`)")


@pytest.fixture(params=ENGINES)
def engine(request: pytest.FixtureRequest) -> str:
    """Parameterize a test over every runnable engine."""
    require_engine(request.param)
    return request.param


def subprocess_env(engine: str) -> Dict[str, str]:
    """Environment for a child interpreter pinned to ``engine``."""
    env = dict(os.environ)
    env["REPRO_ENGINE"] = engine
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_goldens(engine: str, *cli_args: str) -> Dict[str, Any]:
    """Evaluate a ``repro.bench.goldens`` command under ``engine``.

    The active engine runs in-process (no interpreter start-up); any other
    engine runs in a subprocess with ``REPRO_ENGINE`` pinned.  Both paths
    return the same JSON-shaped document, and the document's self-reported
    engine is asserted so a mis-pinned subprocess cannot pass silently.
    """
    if engine == active_engine():
        from repro.bench import goldens

        command, rest = cli_args[0], list(cli_args[1:])
        if command == "snapshot":
            document = goldens.snapshot_document(rest[0])
        elif command == "determinism":
            document = goldens.determinism_document(rest[0] if rest else
                                                    "default")
        elif command == "equivalence":
            reference = rest[rest.index("--reference") + 1]
            cases = (rest[rest.index("--cases") + 1:]
                     if "--cases" in rest else None)
            document = goldens.equivalence_document(reference, cases)
        elif command == "resume":
            cache_dir = (rest[rest.index("--cache-dir") + 1]
                         if "--cache-dir" in rest else None)
            interrupt_after = (int(rest[rest.index("--interrupt-after") + 1])
                               if "--interrupt-after" in rest else 2)
            document = goldens.resume_document(cache_dir, interrupt_after)
        else:
            raise ValueError(f"unknown goldens command {command!r}")
        # Round-trip through JSON so both paths compare identically typed
        # documents (and so non-serializable snapshots fail loudly here too).
        return json.loads(json.dumps(document))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench.goldens", *cli_args],
        capture_output=True, text=True, env=subprocess_env(engine),
        cwd=REPO_ROOT, check=False)
    assert proc.returncode == 0, (
        f"goldens {cli_args} failed under REPRO_ENGINE={engine}:\n{proc.stderr}")
    document = json.loads(proc.stdout)
    assert document["engine"] == engine, (
        f"subprocess reported engine {document['engine']!r}, "
        f"expected {engine!r}")
    return document


@pytest.fixture
def goldens_runner():
    """Callable ``(engine, *cli_args) -> document`` (see :func:`run_goldens`)."""
    return run_goldens


@contextlib.contextmanager
def recorded_completions() -> Iterator[List[Tuple[str, bool]]]:
    """Capture every ``(txn_id, committed)`` handed to a collector meanwhile.

    The collector keeps nothing per transaction, so the lost/duplicated
    accounting tests observe the completions where they enter it:
    ``MetricsCollector.record`` is wrapped for the duration of the block.
    """
    from repro.metrics import MetricsCollector

    recorded: List[Tuple[str, bool]] = []
    fold = MetricsCollector.record

    def record(self, result, txn_type="generic"):
        recorded.append((result.txn_id, result.committed))
        fold(self, result, txn_type)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MetricsCollector, "record", record)
        yield recorded
