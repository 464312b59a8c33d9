"""Option census: every configuration field is read somewhere in the model.

A field that nothing reads is a switch no run can turn: it invites callers to
set it, and tests to pin behaviour it does not control.  This census parses
``src/repro`` and collects every field of its ``*Config`` / ``*Policy``
dataclasses and of ``DataNodeSpec`` / ``MiddlewareSpec``.  It then fails,
naming the field, for each one that is never read as an attribute anywhere in
the package.  A workload plugin's ``config_field="..."`` names the
``ExperimentConfig`` field the runner reads through ``getattr``, so it counts
as a read too.  Matching is by name, not by type: the census finds dead
fields, not duplicated ones.

A second check keeps every service time in :class:`~repro.common.CostModel`:
no option dataclass may declare a per-component cost field.
"""

import ast
import dataclasses
from pathlib import Path

import repro
from repro.common import CostModel

PACKAGE = Path(repro.__file__).resolve().parent
SPEC_CLASSES = {"DataNodeSpec", "MiddlewareSpec"}


def _trees():
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.rglob("*.py"))}


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


def test_census_finds_the_option_classes():
    classes = {cls for cls, _ in option_fields(_trees())}
    assert {"ExperimentConfig", "GeoTPConfig", "DataSourceConfig",
            "TopologyConfig", "RetryPolicy", "DataNodeSpec",
            "MiddlewareSpec"} <= classes


def test_every_option_field_is_read_somewhere():
    trees = _trees()
    reads = read_names(trees)
    unread = [f"{cls}.{name}" for cls, name in option_fields(trees)
              if name not in reads]
    assert unread == [], f"option fields nothing reads: {unread}"


def cost_copies(trees):
    """``Class.field`` of every option field that is a service time."""
    costs = {field.name for field in dataclasses.fields(CostModel)}
    return [f"{cls}.{name}"
            for cls, name in option_fields(trees, _may_not_hold_costs)
            if name in costs or name.endswith(("_cost_ms", "_overhead_ms"))]


def test_no_option_declares_a_service_time():
    assert cost_copies(_trees()) == [], (
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
