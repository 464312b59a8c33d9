"""Every name the perf ledger takes from ``repro`` must still exist.

``perf_ledger/`` is the repo's benchmark and changes only with the benchmark,
so a change that deletes or moves a ``repro`` name the ledger uses would
silently turn benchmark operations into failures or null metrics.  This test parses
every ``perf_ledger/*.py`` (without importing it), collects each
``from repro... import name`` and each counted-function spec of
``perf_ledger/layers.py``, and resolves them against the package, one test id
per reference.

A name can resolve while the attribute a benchmark calls on it is gone (a
removed ``inbox.set_consumer``, say), and ``micro.run_all`` turns the
``AttributeError`` into a silent null metric.  So the kernel, lock, network and
storage microbenchmarks are also run here, each on a handful of operations, and
so are the middleware, core and workload ones: they call the statement API
(``all_statements``, ``Operation.rendered_sql``, ``plan_round`` on a round,
``statement_count``), which a change of the transaction records reshapes.
The bench micros run too: they call the config hash, the sweep cache, the
summary pickle and ``get_scenario(...).sweep(...)`` through ``SweepRunner.run``
into the figure builders.
"""

import ast
import importlib
import sys
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


def _micro_names(*layers):
    """The names ``perf_ledger/micro.py`` registers with ``@micro`` in ``layers``."""
    tree = ast.parse((LEDGER_DIR / "micro.py").read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        for decorator in getattr(node, "decorator_list", ()):
            if (isinstance(decorator, ast.Call)
                    and getattr(decorator.func, "id", None) == "micro"):
                name = decorator.args[0].value
                if name.split(".")[0] in layers:
                    names.append(name)
    return names


IMPORTED = sorted(_imported_names())
COUNTED = _counted_functions()
KERNEL_MICROS = _micro_names("sim_kernel", "locks", "network", "storage")
MODEL_MICROS = _micro_names("middleware", "core", "workloads")
BENCH_MICROS = _micro_names("bench")


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


@pytest.fixture(scope="module")
def ledger_micro():
    """``perf_ledger/micro.py``, imported with the ledger's directory on the
    path; the ledger's own modules leave ``sys.modules`` again afterwards."""
    sys.path.insert(0, str(LEDGER_DIR))
    try:
        micro = importlib.import_module("micro")
    finally:
        sys.path.remove(str(LEDGER_DIR))
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == LEDGER_DIR:
                del sys.modules[name]
    return micro


def test_the_kernel_micros_are_all_found():
    assert "network.request_reply_ns" in KERNEL_MICROS
    assert len(KERNEL_MICROS) >= 8


@pytest.mark.parametrize("name", KERNEL_MICROS)
def test_a_kernel_layer_micro_runs_on_the_current_api(ledger_micro, name):
    bench, _operations = ledger_micro.MICROBENCHMARKS[name]
    assert bench(20) >= 0.0


def test_the_model_micros_are_all_found():
    assert {"middleware.parse_ns", "middleware.plan_round_ns",
            "workloads.ycsb_next_ns", "workloads.tpcc_next_ns"} <= set(MODEL_MICROS)
    assert len(MODEL_MICROS) >= 8


@pytest.mark.parametrize("name", MODEL_MICROS)
def test_a_model_layer_micro_runs_on_the_current_api(ledger_micro, name):
    bench, _operations = ledger_micro.MICROBENCHMARKS[name]
    assert bench(20) >= 0.0


def test_the_bench_micros_are_all_found():
    assert {"bench.config_hash_us", "bench.cache_store_lookup_us",
            "bench.summary_roundtrip_us", "bench.figures_build_ms"} <= set(BENCH_MICROS)


@pytest.mark.parametrize("name", BENCH_MICROS)
def test_a_bench_layer_micro_runs_on_the_current_api(ledger_micro, name):
    bench, _operations = ledger_micro.MICROBENCHMARKS[name]
    assert bench(2) >= 0.0
