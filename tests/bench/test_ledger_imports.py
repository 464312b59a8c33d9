"""Every name the perf ledger takes from ``repro`` must still exist.

``perf_ledger/`` is the repo's benchmark and changes only with the benchmark,
so a change that deletes or moves a ``repro`` name the ledger uses would
silently turn benchmark operations into failures or null metrics.  This test parses
every ``perf_ledger/*.py`` (without importing it), collects each
``from repro... import name`` and each counted-function spec of
``perf_ledger/layers.py``, and resolves them against the package, one test id
per reference.
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro.sim

LEDGER_DIR = Path(__file__).resolve().parents[2] / "perf_ledger"

#: References the ledger still makes to names that are gone on purpose,
#: with the reason; each must stay stale (a fixed ledger drops its entry).
KNOWN_STALE = {
    "repro.metrics.collector:StreamingMetricsCollector":
        "deleted with the second collector; metrics.record_streaming_ns "
        "reports null until the benchmark drops it",
}


def _imported_names():
    """``module:name`` for every ``from repro... import name`` in the ledger."""
    names = set()
    for path in sorted(LEDGER_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                names.update(f"{node.module}:{alias.name}" for alias in node.names)
    return names


def _counted_functions():
    """The ``module:attr.path`` specs of ``layers.COUNTED_FUNCTIONS``."""
    tree = ast.parse((LEDGER_DIR / "layers.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.AnnAssign)
                and getattr(node.target, "id", None) == "COUNTED_FUNCTIONS"):
            return sorted(spec for specs in ast.literal_eval(node.value).values()
                          for spec in specs)
    raise AssertionError("perf_ledger/layers.py defines no COUNTED_FUNCTIONS")


def _resolve(reference):
    """The object behind ``module:attr.path`` (an attribute or a submodule)."""
    module_name, _, attr_path = reference.partition(":")
    target = importlib.import_module(module_name)
    for part in attr_path.split("."):
        if not hasattr(target, part):
            importlib.import_module(f"{target.__name__}.{part}")
        target = getattr(target, part)
    return target


IMPORTED = sorted(_imported_names())
COUNTED = _counted_functions()


@pytest.mark.parametrize("reference", sorted(set(IMPORTED) - set(KNOWN_STALE)))
def test_every_name_the_ledger_imports_resolves(reference):
    _resolve(reference)


@pytest.mark.parametrize("spec", COUNTED)
def test_every_counted_function_has_python_code(spec):
    assert hasattr(_resolve(spec), "__code__"), spec


@pytest.mark.parametrize("reference", sorted(KNOWN_STALE))
def test_known_stale_references_are_still_stale(reference):
    assert reference in IMPORTED, f"the ledger no longer uses {reference}"
    with pytest.raises((ImportError, AttributeError)):
        _resolve(reference)


def test_active_engine_reports_the_one_kernel():
    assert repro.sim.active_engine() == "pure"
