"""Shared test helpers: the repository paths, a child-interpreter environment
and a recorder of the completions a collector sees."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"


def subprocess_env() -> Dict[str, str]:
    """Environment for a child interpreter that imports ``repro`` from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


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
