"""Option census: every configuration field is read, and some caller sets it.

A field that nothing reads is a switch no run can turn: it invites callers to
set it, and tests to pin behaviour it does not control.  This census parses
``src/repro`` and collects every field of its ``*Config`` / ``*Policy``
dataclasses and of ``DataNodeSpec`` / ``MiddlewareSpec``.  It then fails,
naming the field, for each one that is never read as an attribute anywhere in
the package.  A workload plugin's ``config_field="..."`` names the
``ExperimentConfig`` field the runner reads through ``getattr``, so it counts
as a read too.  Matching is by name, not by type: the census finds dead
fields, not duplicated ones.

A field that is read but that no caller sets holds one value in every run:
it is a constant dressed as an option.  The census also fails, naming the
field, for each one that nothing outside the tests sets.  The writers are
``src/repro``, ``benchmarks/``, ``perf_ledger/`` and ``examples/``; a field
counts as set when its name appears there as a keyword argument, as an
attribute store, or as a string constant that equals the name or ends in
``.name`` or ``__name`` (a sweep axis path or a ``field__name`` override).
The few unset fields kept on purpose are listed, each with its reason, in
:data:`SINGLE_VALUE_KEPT`, and a test keeps that list exact.

A second check keeps every service time in :class:`~repro.common.CostModel`:
no option dataclass may declare a per-component cost field.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.common import CostModel

PACKAGE = Path(repro.__file__).resolve().parent
SPEC_CLASSES = {"DataNodeSpec", "MiddlewareSpec"}
#: The code besides the package that may set an option (tests do not count).
CALLERS = tuple(PACKAGE.parents[1] / name
                for name in ("benchmarks", "perf_ledger", "examples"))

#: Option fields that no caller sets, kept with one value for a named reason.
SINGLE_VALUE_KEPT = {
    "TopologyConfig.lan_rtt_ms": "ROADMAP item 4(b) screening factor",
    "GeoTPConfig.forecast_scale": "ROADMAP item 4(b) screening factor",
    "GeoTPConfig.forecast_cap_ms": "ROADMAP item 4(b) screening factor",
    "YCSBConfig.read_ratio": "the read-only mix of the closed-form cost "
                             "anchors (ROADMAP item 3(c))",
    "FleetConfig.probe_interval_ms": "fleet field; the fleet is parked",
    "FleetConfig.suspect_after": "fleet field; the fleet is parked",
    "FleetConfig.down_after": "fleet field; the fleet is parked",
    "RetryPolicy.max_failovers": "fleet field; the fleet is parked",
    "RetryPolicy.budget": "fleet field; the fleet is parked",
}


def _trees(*directories):
    """``{path: module AST}`` of every module under ``directories``."""
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for directory in directories for path in sorted(directory.rglob("*.py"))}


@pytest.fixture(scope="module")
def package():
    return _trees(PACKAGE)


@pytest.fixture(scope="module")
def writers(package):
    """The package and its callers: every module whose code may set an option."""
    return {**package, **_trees(*CALLERS)}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_option_class(name: str) -> bool:
    return name.endswith(("Config", "Policy")) or name in SPEC_CLASSES


def _may_not_hold_costs(name: str) -> bool:
    return name.endswith(("Config", "Spec", "Policy"))


def option_fields(trees, is_option_class=_is_option_class):
    """``(class, field)`` of every option dataclass under ``src/repro``."""
    fields = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef) and is_option_class(node.name)
                    and _is_dataclass(node)):
                fields.extend((node.name, stmt.target.id) for stmt in node.body
                              if isinstance(stmt, ast.AnnAssign)
                              and isinstance(stmt.target, ast.Name))
    return fields


def read_names(trees):
    """Every attribute name loaded anywhere, plus ``config_field`` values."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (isinstance(node, ast.keyword) and node.arg == "config_field"
                  and isinstance(node.value, ast.Constant)):
                names.add(node.value.value)
    return names


def set_names(trees):
    """Every name a keyword argument, attribute store or string constant sets.

    A name is the whole text or its last ``.``- or ``__``-separated part, so
    an axis path ``"workload_config.name"`` and an override keyword
    ``workload_config__name=`` both set ``name``.
    """
    texts = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg:
                texts.add(node.arg)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                texts.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts.add(node.value)
    return texts | {re.split(r"\.|__", text)[-1] for text in texts}


def unset_fields(option_trees, writer_trees):
    """``Class.field`` of every option field that no writer sets."""
    sets = set_names(writer_trees)
    return [f"{cls}.{name}" for cls, name in option_fields(option_trees)
            if name not in sets]


def test_census_finds_the_option_classes(package):
    classes = {cls for cls, _ in option_fields(package)}
    assert {"ExperimentConfig", "GeoTPConfig", "DataSourceConfig",
            "TopologyConfig", "RetryPolicy", "DataNodeSpec",
            "MiddlewareSpec"} <= classes


def test_every_option_field_is_read_somewhere(package):
    reads = read_names(package)
    unread = [f"{cls}.{name}" for cls, name in option_fields(package)
              if name not in reads]
    assert unread == [], f"option fields nothing reads: {unread}"


def test_every_option_field_is_set_outside_tests(package, writers):
    unset = [field for field in unset_fields(package, writers)
             if field not in SINGLE_VALUE_KEPT]
    assert unset == [], (
        f"option fields nothing outside tests sets (make each a constant of "
        f"the code that reads it): {unset}")


def test_single_value_kept_lists_only_existing_unset_fields(package, writers):
    fields = {f"{cls}.{name}" for cls, name in option_fields(package)}
    unset = set(unset_fields(package, writers))
    for field in SINGLE_VALUE_KEPT:
        assert field in fields and field in unset, field


def test_census_names_an_unset_field():
    options = ast.parse("@dataclass\n"
                        "class FakeConfig:\n"
                        "    by_keyword: int = 1\n"
                        "    by_store: int = 2\n"
                        "    by_path: int = 3\n"
                        "    by_override: int = 4\n"
                        "    by_name: int = 5\n"
                        "    never_set: int = 6\n")
    writers = ast.parse("FakeConfig(by_keyword=2)\n"
                        "config.by_store = 3\n"
                        "Axis('x', (1, 2), path='fake.by_path')\n"
                        "scenario.sweep(fake__by_override=4)\n"
                        "getattr(config, 'by_name')\n")
    assert unset_fields({Path("options.py"): options},
                        {Path("writers.py"): writers}) == ["FakeConfig.never_set"]


def cost_copies(trees):
    """``Class.field`` of every option field that is a service time."""
    costs = {field.name for field in dataclasses.fields(CostModel)}
    return [f"{cls}.{name}"
            for cls, name in option_fields(trees, _may_not_hold_costs)
            if name in costs or name.endswith(("_cost_ms", "_overhead_ms"))]


def test_no_option_declares_a_service_time(package):
    assert cost_copies(package) == [], (
        "declare service times once, in repro.common.CostModel")


def test_cost_guard_names_each_copy():
    tree = ast.parse("@dataclass(frozen=True)\n"
                     "class FakeConfig:\n"
                     "    name: str\n"
                     "    analysis_ms: float = 0.5\n"
                     "    statement_cost_ms: float = 0.4\n"
                     "    hop_overhead_ms: float = 0.1\n")
    assert cost_copies({Path("fake.py"): tree}) == [
        "FakeConfig.analysis_ms", "FakeConfig.statement_cost_ms",
        "FakeConfig.hop_overhead_ms"]
