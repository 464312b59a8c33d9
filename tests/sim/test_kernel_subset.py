"""Kernel-subset lint: ``sim/_kernel/`` stays inside the subset PR 6 established.

The compiled (mypyc) twin of the kernel cannot be built where mypy is not
installed, so a PR that edits the kernel has no compiler to tell it that it
left the compilable subset.  This lint pins, by AST, what holds for every
kernel module today; each finding names file, line and rule.
"""

import ast
from pathlib import Path

import pytest

import repro.sim._kernel as kernel_package

KERNEL_DIR = Path(kernel_package.__file__).resolve().parent

#: Absolute imports a kernel module may make (the stdlib modules in use now).
ALLOWED_STDLIB = {"__future__", "collections", "enum", "functools", "heapq",
                  "math", "typing"}
#: Classes without ``__slots__`` today: exceptions (their layout is the
#: interpreter's), the lock-mode enum and the pending-value sentinel.
SLOTLESS = {"EmptySchedule", "Interrupt", "LockTimeoutError", "DeadlockError",
            "LockMode", "_PendingValue"}
FORBIDDEN_CALLS = {"exec", "eval", "setattr", "globals"}


def check_source(source: str, filename: str, package_init: bool = False):
    """``["file:line: rule — detail", ...]`` for one kernel module's source."""
    findings = []

    def report(node, rule, detail):
        findings.append(f"{filename}:{node.lineno}: {rule} — {detail}")

    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == "dataclasses":
                    report(node, "no-dataclasses", "mypyc compiles plain slotted "
                                                   "classes, not dataclasses")
                elif root not in ALLOWED_STDLIB:
                    report(node, "imports", f"`import {alias.name}` is neither "
                                            f"relative nor an allowed stdlib module")
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root == "dataclasses":
                report(node, "no-dataclasses", "mypyc compiles plain slotted "
                                               "classes, not dataclasses")
            elif node.level == 0 and root not in ALLOWED_STDLIB and not (
                    package_init and node.module == "repro.sim._kernel"):
                report(node, "imports", f"`from {node.module} import ...` is neither "
                                        f"relative nor an allowed stdlib module")
        elif isinstance(node, ast.ClassDef):
            if node.decorator_list:
                report(node, "no-class-decorator",
                       f"class {node.name} is decorated")
            declares_slots = any(
                isinstance(stmt, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__slots__"
                    for target in stmt.targets)
                for stmt in node.body)
            if not declares_slots and node.name not in SLOTLESS:
                report(node, "slots", f"class {node.name} declares no __slots__")
        elif isinstance(node, ast.Call):
            callee = node.func
            name = (callee.id if isinstance(callee, ast.Name)
                    else callee.attr if isinstance(callee, ast.Attribute) else None)
            if name in FORBIDDEN_CALLS:
                report(node, "no-dynamic-construct", f"call to {name}()")
    findings.sort(key=lambda finding: int(finding.split(":")[1]))   # by line
    return findings


def kernel_modules():
    modules = sorted(KERNEL_DIR.glob("*.py"))
    assert {path.name for path in modules} >= {
        "__init__.py", "environment.py", "events.py", "locks.py", "process.py",
        "resources.py"}
    return modules


@pytest.mark.parametrize("path", kernel_modules(), ids=lambda path: path.name)
def test_kernel_module_stays_inside_the_compilable_subset(path):
    findings = check_source(path.read_text(encoding="utf-8"),
                            f"sim/_kernel/{path.name}",
                            package_init=path.name == "__init__.py")
    assert not findings, "\n".join(findings)


def test_the_slotless_allowlist_names_only_classes_that_exist():
    defined = {node.name for path in kernel_modules()
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)}
    assert SLOTLESS <= defined


OFFENDING = '''\
from __future__ import annotations
import os
import dataclasses
from dataclasses import dataclass
from repro.sim.rng import SeededRNG
from .events import Event
from typing import Any


@dataclass
class Carrier:
    value: Any = None


class Plain:
    def poke(self, name: str) -> None:
        setattr(self, name, eval("1"))
        globals()[name] = exec
'''


def test_an_offending_module_is_rejected_rule_by_rule():
    findings = check_source(OFFENDING, "sim/_kernel/offending.py")
    assert findings == [
        "sim/_kernel/offending.py:2: imports — `import os` is neither relative "
        "nor an allowed stdlib module",
        "sim/_kernel/offending.py:3: no-dataclasses — mypyc compiles plain "
        "slotted classes, not dataclasses",
        "sim/_kernel/offending.py:4: no-dataclasses — mypyc compiles plain "
        "slotted classes, not dataclasses",
        "sim/_kernel/offending.py:5: imports — `from repro.sim.rng import ...` is "
        "neither relative nor an allowed stdlib module",
        "sim/_kernel/offending.py:11: no-class-decorator — class Carrier is decorated",
        "sim/_kernel/offending.py:11: slots — class Carrier declares no __slots__",
        "sim/_kernel/offending.py:15: slots — class Plain declares no __slots__",
        "sim/_kernel/offending.py:17: no-dynamic-construct — call to setattr()",
        "sim/_kernel/offending.py:17: no-dynamic-construct — call to eval()",
        "sim/_kernel/offending.py:18: no-dynamic-construct — call to globals()",
    ]


def test_the_package_init_exemption_does_not_leak_to_modules():
    absolute = "from repro.sim._kernel import events\n"
    assert check_source(absolute, "sim/_kernel/__init__.py", package_init=True) == []
    assert len(check_source(absolute, "sim/_kernel/locks.py")) == 1
