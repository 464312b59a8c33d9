"""The committed EXPERIMENTS.md registry tables must match the live registries.

``python -m repro.bench list --markdown`` is the single source of the
scenario/system/workload tables; EXPERIMENTS.md commits its output between
marker comments.  This test (and the CI drift step, which runs the same
comparison from the shell) fails whenever a registration lands without the
doc refresh — killing table drift:

    PYTHONPATH=src python -c "from repro.bench.report import \\
        update_registry_block; update_registry_block('EXPERIMENTS.md')"
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

from repro.bench.__main__ import main
from repro.bench.report import (
    extract_registry_block,
    format_markdown_table,
    registry_markdown,
    update_registry_block,
)
from repro.bench.scenarios import SCENARIO_FAMILIES, SCENARIOS, scenario_names
from repro.plugins import system_names, workload_names

REPO_ROOT = Path(__file__).resolve().parents[2]
EXPERIMENTS_MD = REPO_ROOT / "EXPERIMENTS.md"
#: The prose docs.  perf_ledger/README.md is frozen with the benchmark and
#: not checked.
DOC_FILES = ("README.md", "EXPERIMENTS.md", "ARCHITECTURE.md", "PLUGINS.md")
#: Every file that quotes CLI commands for people (or CI) to run.
COMMAND_QUOTING_FILES = DOC_FILES + (".github/workflows/ci.yml",)
#: Backticked CamelCase names the docs mention that are not this package's.
FOREIGN_CLASS_NAMES = {"ProcessPoolExecutor", "TypeError", "ClassVar"}
#: `ClassName`, `ClassName.attribute`, either followed by a call, a further
#: attribute chain or a `/alternative` — but nothing else (`ScalarDB+` is a
#: system name, not a class).
_CLASS_REFERENCE = re.compile(
    r"`([A-Z][A-Za-z0-9]*)(?:\.([A-Za-z_]\w*))?(?:[.(/][^`\n]*)?`")
#: `some/dir/file.ext`, optionally `::name` — globs, `<placeholders>` and
#: directories are not files.
_FILE_REFERENCE = re.compile(
    r"`((?:[\w.-]+/)*[\w.-]+\.(?:py|md|json|ya?ml|toml|ini|txt))(?:::\w+)?`")
#: Backticked file names the docs mention that a command writes.
OUTPUT_FILE_NAMES = {"knee.json"}


def test_committed_registry_tables_match_the_live_registries():
    committed = extract_registry_block(EXPERIMENTS_MD.read_text(encoding="utf-8"))
    fresh = registry_markdown()
    assert committed == fresh, (
        "EXPERIMENTS.md registry tables are stale; regenerate with\n"
        "  PYTHONPATH=src python -c \"from repro.bench.report import "
        "update_registry_block; update_registry_block('EXPERIMENTS.md')\"")


def test_every_quoted_cli_command_is_a_live_subcommand(capsys):
    quoted = {}
    for name in COMMAND_QUOTING_FILES:
        text = (REPO_ROOT / name).read_text(encoding="utf-8")
        # \s+ also spans a line wrap between the module and the subcommand.
        for command in re.findall(r"python3? -m repro\.bench\s+([a-z][\w-]*)",
                                  text):
            quoted.setdefault(command, name)
    assert quoted, "expected the docs to quote at least one CLI command"
    for command, name in quoted.items():
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0, (
            f"{name} quotes `python -m repro.bench {command}`, which the "
            f"parser rejects: {capsys.readouterr().err}")


def _repro_classes():
    """Every class defined in some importable ``repro.*`` module, by name."""
    import repro
    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__.startswith("repro"):
                classes.setdefault(name, value)
    return classes


def _has_attribute(cls, attribute):
    """A class attribute, method, slot, dataclass field or constructor
    argument (how the docs name an instance attribute set in ``__init__``)."""
    if hasattr(cls, attribute):
        return True
    if dataclasses.is_dataclass(cls):
        return attribute in {field.name for field in dataclasses.fields(cls)}
    return attribute in inspect.signature(cls).parameters


def test_every_quoted_class_and_attribute_exists():
    classes = _repro_classes()
    checked = 0
    stale = []
    for name in DOC_FILES:
        in_migration_table = False
        for number, line in enumerate(
                (REPO_ROOT / name).read_text(encoding="utf-8").splitlines(), 1):
            # PLUGINS.md's "before -> now" tables name what is gone on purpose.
            if re.match(r"\|\s*(before|was)\s*\|\s*now\s*\|", line):
                in_migration_table = True
            elif not line.startswith("|"):
                in_migration_table = False
            if in_migration_table:
                continue
            for match in _CLASS_REFERENCE.finditer(line):
                cls, attribute = match.groups()
                # Looks like one of our classes: CamelCase, an inner capital.
                if (cls in FOREIGN_CLASS_NAMES or not re.search("[a-z]", cls)
                        or sum(c.isupper() for c in cls) < 2):
                    continue
                checked += 1
                if cls not in classes or (
                        attribute and not _has_attribute(classes[cls], attribute)):
                    stale.append(f"{name}:{number}: {match.group(0)}")
    assert checked > 50, "expected the docs to name the package's classes"
    assert not stale, (
        "the docs name classes/attributes that no repro module defines:\n  "
        + "\n  ".join(stale))


def test_every_quoted_file_path_exists():
    """A quoted path may be a suffix (`core/hotspot.py`) of a repo file's path.
    ROADMAP.md and CHANGES.md are not checked: they name deleted files."""
    files = {path.relative_to(REPO_ROOT).as_posix()
             for path in REPO_ROOT.rglob("*")
             if path.is_file() and ".git" not in path.parts}
    checked = 0
    stale = []
    for name in DOC_FILES:
        text = (REPO_ROOT / name).read_text(encoding="utf-8")
        for quoted in set(_FILE_REFERENCE.findall(text)) - OUTPUT_FILE_NAMES:
            checked += 1
            if not any(path == quoted or path.endswith("/" + quoted)
                       for path in files):
                stale.append(f"{name}: `{quoted}`")
    assert checked > 50, "expected the docs to name the repo's files"
    assert not stale, ("the docs name files the repo does not have:\n  "
                       + "\n  ".join(sorted(stale)))


def test_markdown_block_lists_every_registration():
    block = registry_markdown()
    for name in scenario_names():
        scenario = SCENARIOS[name]
        if scenario.family is not None:
            # Generated families collapse into one summary row; the member
            # scenarios stay discoverable via plain `list`.
            assert f"`{scenario.family}_*`" in block
        else:
            assert f"`{name}`" in block
    for name in system_names():
        assert f"`{name}`" in block
    for name in workload_names():
        assert f"`{name}`" in block


def test_family_rows_carry_registered_descriptions():
    block = registry_markdown()
    assert "#### Generated scenario families" in block
    for family, description in SCENARIO_FAMILIES.items():
        assert f"`{family}_*`" in block
        assert description in block
    # Family members must NOT get individual rows (that is the point).
    members = [n for n in scenario_names() if SCENARIOS[n].family is not None]
    assert members, "expected at least one generated scenario family"
    assert f"`{members[0]}`" not in block


def test_update_registry_block_roundtrip(tmp_path):
    doc = tmp_path / "doc.md"
    from repro.bench.report import REGISTRY_BLOCK_BEGIN, REGISTRY_BLOCK_END
    doc.write_text(f"prefix\n\n{REGISTRY_BLOCK_BEGIN}\nstale\n"
                   f"{REGISTRY_BLOCK_END}\n\nsuffix\n", encoding="utf-8")
    assert update_registry_block(str(doc)) is True        # replaced stale text
    assert update_registry_block(str(doc)) is False       # now a no-op
    text = doc.read_text(encoding="utf-8")
    assert text.startswith("prefix")
    assert text.endswith("suffix\n")
    assert extract_registry_block(text) == registry_markdown()


def test_extract_registry_block_requires_markers():
    with pytest.raises(ValueError):
        extract_registry_block("no markers here")


def test_markdown_table_escapes_pipes():
    table = format_markdown_table(("a",), [("x|y",)])
    assert "x\\|y" in table
