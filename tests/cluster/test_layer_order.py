"""Layer census: lower layers never import higher ones.

ARCHITECTURE.md's layer map puts the simulation kernel (``repro/sim/``) at
the bottom and the bench layer (``repro/bench/``) at the top.  This census
parses every module of ``src/repro`` with ``ast`` (imports inside functions
included, ``if TYPE_CHECKING:`` blocks excluded, since annotations cost
nothing at run time) and fails, naming the module, when

* a module outside ``repro/bench/`` imports ``repro.bench``; the facade
  ``repro/__init__.py`` is the one exception, or
* a module under ``repro/sim/`` imports anything of ``repro`` outside
  ``repro/sim/``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def module_name(path):
    """The dotted name of the module at ``path`` under ``src/``."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_type_checking(test):
    return (getattr(test, "id", None) == "TYPE_CHECKING"
            or getattr(test, "attr", None) == "TYPE_CHECKING")


def imported_modules(source, name, is_package=False):
    """Every module ``source`` (the module ``name``) imports at run time.

    ``from package import name`` counts ``package.name`` as well, since
    ``name`` may be a submodule.
    """
    package = name if is_package else name.rpartition(".")[0]
    found = set()

    def visit(node):
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            nodes = node.orelse
        else:
            nodes = ast.iter_child_nodes(node)
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = package.split(".")
                    anchor = parts[:len(parts) - node.level + 1]
                    base = ".".join(anchor + ([base] if base else []))
                found.add(base)
                found.update(f"{base}.{alias.name}" for alias in node.names)
        for child in nodes:
            visit(child)

    visit(ast.parse(source))
    return found


def _within(module, package):
    return module == package or module.startswith(package + ".")


def layer_violations(name, imports):
    """The imports of module ``name`` that break the layer order."""
    bad = set()
    if not _within(name, "repro.bench") and name != "repro":
        bad.update(m for m in imports if _within(m, "repro.bench"))
    if _within(name, "repro.sim"):
        bad.update(m for m in imports
                   if _within(m, "repro") and not _within(m, "repro.sim"))
    return sorted(bad)


MODULES = {module_name(path): path
           for path in sorted((SRC / "repro").rglob("*.py"))}


def test_the_census_sees_every_layer():
    assert {"repro", "repro.bench.scenarios", "repro.sim.network",
            "repro.contrib.smallbank"} <= set(MODULES)


def test_the_parser_counts_function_imports_and_skips_type_checking():
    source = ("from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n    from repro.bench import runner\n"
              "def later():\n    from ..bench.scenarios import register\n")
    imports = imported_modules(source, "repro.recovery.demo")
    assert "repro.bench.scenarios" in imports
    assert "repro.bench.runner" not in imports
    assert layer_violations("repro.recovery.demo", imports) == [
        "repro.bench.scenarios", "repro.bench.scenarios.register"]
    assert layer_violations("repro.sim.demo", {"repro.common"}) == ["repro.common"]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_module_imports_a_higher_layer(name):
    path = MODULES[name]
    imports = imported_modules(path.read_text(encoding="utf-8"), name,
                               is_package=path.name == "__init__.py")
    assert not layer_violations(name, imports), (
        f"{name} imports {', '.join(layer_violations(name, imports))} "
        f"across the layer order")
