"""Record census: every field of the transaction path's records has a reader.

A field that is filled per operation or per transaction and that nothing
reads costs allocations per commit, and it invites tests to pin what no run
uses.  This census parses ``src/repro`` and collects every field (annotated
class attribute) of the records a transaction passes through:
:data:`RECORDS`.  It fails, naming the field, for each one that is never read
in the package, as a loaded attribute or as the string a ``getattr`` call
names.  It also fails for each field that has no row in ARCHITECTURE.md's
"Who reads what" table.

Matching is by name, as in the option census: a field counts as read when any
attribute of that name is read anywhere in the package.  So the census finds
dead names, not every dead field.  A re-added ``SubtxnResult.results`` would
go unnoticed, say, because ``TransactionContext.results`` has the same name
and is read.

The few fields that only the tests read are kept on purpose, each with its
reason, in :data:`KEPT`, and a test keeps that list exact.
"""

import ast
import re
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent
ARCHITECTURE = PACKAGE.parents[1] / "ARCHITECTURE.md"

#: The records of the transaction path, from a client's spec to the
#: data source's branch and the hotspot footprint.
RECORDS = ("Operation", "TransactionSpec", "SubtransactionPlan", "SubtxnResult",
           "TransactionResult", "TransactionContext", "LocalTransaction",
           "HotspotEntry")

#: Fields that nothing in ``src/repro`` reads, kept for a named reason.
KEPT = {
    "TransactionSpec.metadata":
        "the generators' declared intent (home node, distributed or not): "
        "the workload tests and the strict xfail on TPC-C routing use it as "
        "their oracle",
    "LocalTransaction.started_at":
        "the recovery tests' restart check: no branch predates a restart",
}


@pytest.fixture(scope="module")
def package():
    """``{path: module AST}`` of every module of ``src/repro``."""
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(PACKAGE.rglob("*.py"))}


def record_fields(trees, records=RECORDS):
    """``Class.field`` of every annotated attribute of the ``records`` classes."""
    fields = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in records:
                fields.extend(f"{node.name}.{stmt.target.id}" for stmt in node.body
                              if isinstance(stmt, ast.AnnAssign)
                              and isinstance(stmt.target, ast.Name))
    return fields


def read_names(trees):
    """Every attribute name loaded, plus every name a ``getattr`` call reads."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                names.add(node.args[1].value)
    return names


def unread_fields(trees):
    """``Class.field`` of every record field whose name nothing reads."""
    reads = read_names(trees)
    return [name for name in record_fields(trees)
            if name.split(".")[1] not in reads]


def table_rows(text):
    """``Class.field`` of every row of the "Who reads what" table in ``text``.

    A row whose object cell is empty continues the object above it; every
    backticked name in the field cell is a field of that object.
    """
    lines = text.split("Who reads what", 1)[1].splitlines()[1:]
    rows, record = set(), None
    for line in lines:
        if not line.startswith("|"):
            if rows:
                break
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] == "object" or cells[0].startswith("---"):
            continue
        record = cells[0].strip("`") or record
        rows.update(f"{record}.{name}"
                    for name in re.findall(r"`(\w+)`", cells[1]))
    return rows


@pytest.fixture(scope="module")
def fields(package):
    return record_fields(package)


@pytest.fixture(scope="module")
def unread(package):
    return unread_fields(package)


@pytest.fixture(scope="module")
def rows():
    return table_rows(ARCHITECTURE.read_text(encoding="utf-8"))


def test_census_finds_every_record(fields):
    assert {name.split(".")[0] for name in fields} == set(RECORDS)


def test_every_record_field_is_read_in_the_package(unread):
    dead = [name for name in unread if name not in KEPT]
    assert dead == [], (
        f"record fields nothing in src/repro reads (delete each, or name its "
        f"reader): {dead}")


def test_kept_lists_only_existing_unread_fields(fields, unread):
    for name in KEPT:
        assert name in fields and name in unread, name


def test_every_record_field_has_a_row_in_the_architecture_table(fields, rows):
    missing = [name for name in fields if name not in rows]
    assert missing == [], (
        f"record fields without a row in ARCHITECTURE.md's 'Who reads what' "
        f"table: {missing}")


def test_the_architecture_table_names_no_field_that_is_gone(fields, rows):
    stale = sorted(row for row in rows
                   if row.split(".")[0] in RECORDS and row not in fields)
    assert stale == [], f"'Who reads what' rows of deleted fields: {stale}"


def test_census_names_an_unread_field():
    records = ast.parse("class Operation:\n"
                        "    by_attribute: int = 1\n"
                        "    by_getattr: int = 2\n"
                        "    only_stored: int = 3\n"
                        "    def rendered(self):\n"
                        "        return self.by_attribute\n"
                        "op.only_stored = 4\n"
                        "getattr(op, 'by_getattr')\n")
    assert unread_fields({Path("records.py"): records}) == [
        "Operation.only_stored"]


def test_table_rows_continue_the_object_above():
    text = ("Who reads what:\n\n"
            "| object | field | read by |\n"
            "|---|---|---|\n"
            "| `Operation` | `key`, `value` | the engine |\n"
            "| | `record_id` (the id) | the lock table, `Rewriter` |\n"
            "| `SubtxnResult` | `success` | `_absorb_results` |\n"
            "\n| other | `table` | after the blank line |\n")
    assert table_rows(text) == {"Operation.key", "Operation.value",
                                "Operation.record_id", "SubtxnResult.success"}
