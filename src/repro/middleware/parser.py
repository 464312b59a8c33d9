"""A small SQL parser for the statement shapes the benchmarks use.

The real ShardingSphere embeds a full SQL engine; the experiments only ever
issue key-predicate reads and updates, so the parser here recognises exactly
that subset:

* ``BEGIN`` / ``COMMIT`` / ``ROLLBACK``
* ``SELECT <columns> FROM <table> WHERE <key_col> = <value> [FOR SHARE]``
* ``UPDATE <table> SET <col> = <value> WHERE <key_col> = <value>``
* ``INSERT INTO <table> (<key_col>, <col>) VALUES (<key>, <value>)``

No run parses SQL: the workloads build statements from operations.  The
parser serves the examples, its tests and the perf ledger's
``middleware.parse_ns`` micro.

Keys are returned as ``int`` when the literal looks numeric, otherwise as the
unquoted string, which matches how the workloads generate keys.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Hashable, List, Optional

from repro.common import Operation, OpType
from repro.middleware.statements import TransactionSpec


class ParseError(Exception):
    """The SQL text did not match the supported grammar."""


_SELECT_RE = re.compile(
    r"^select\s+.+?\s+from\s+(?P<table>\w+)\s+where\s+(?P<col>\w+)\s*=\s*(?P<key>[^;\s]+)"
    r"(?:\s+for\s+share|\s+for\s+update)?\s*$",
    re.IGNORECASE | re.DOTALL)
_UPDATE_RE = re.compile(
    r"^update\s+(?P<table>\w+)\s+set\s+(?P<assignments>.+?)\s+where\s+"
    r"(?P<col>\w+)\s*=\s*(?P<key>[^;\s]+)\s*$",
    re.IGNORECASE | re.DOTALL)
_INSERT_RE = re.compile(
    r"^insert\s+into\s+(?P<table>\w+)\s*\((?P<cols>[^)]+)\)\s*values\s*\((?P<vals>[^)]+)\)\s*$",
    re.IGNORECASE | re.DOTALL)


def _unquote(literal: str) -> Hashable:
    text = literal.strip().rstrip(";")
    if (text.startswith("'") and text.endswith("'")) or \
            (text.startswith('"') and text.endswith('"')):
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


@dataclass
class ParsedStatement:
    """Outcome of parsing one SQL line."""

    kind: str                       # "begin" | "commit" | "rollback" | "dml"
    operation: Optional[Operation] = None


class SqlParser:
    """Parses SQL text into operations and transaction specs."""

    def parse_statement(self, sql: str) -> ParsedStatement:
        """Parse one SQL statement."""
        text = sql.strip().rstrip(";").strip()
        if not text:
            raise ParseError(f"empty statement: {sql!r}")

        lowered = text.lower()
        if lowered == "begin" or lowered.startswith("start transaction"):
            return ParsedStatement(kind="begin")
        if lowered == "commit":
            return ParsedStatement(kind="commit")
        if lowered == "rollback":
            return ParsedStatement(kind="rollback")

        select = _SELECT_RE.match(text)
        if select:
            operation = Operation(op_type=OpType.READ, table=select.group("table"),
                                  key=_unquote(select.group("key")))
            return ParsedStatement(kind="dml", operation=operation)

        update = _UPDATE_RE.match(text)
        if update:
            assignments = update.group("assignments")
            value = _unquote(assignments.split("=", 1)[1]) if "=" in assignments else assignments
            operation = Operation(op_type=OpType.UPDATE, table=update.group("table"),
                                  key=_unquote(update.group("key")), value=value)
            return ParsedStatement(kind="dml", operation=operation)

        insert = _INSERT_RE.match(text)
        if insert:
            cols = [c.strip() for c in insert.group("cols").split(",")]
            vals = [_unquote(v) for v in insert.group("vals").split(",")]
            if not cols or len(cols) != len(vals):
                raise ParseError(f"column/value arity mismatch in {sql!r}")
            key = vals[0]
            value = dict(zip(cols[1:], vals[1:])) if len(vals) > 1 else None
            operation = Operation(op_type=OpType.WRITE, table=insert.group("table"),
                                  key=key, value=value)
            return ParsedStatement(kind="dml", operation=operation)

        raise ParseError(f"unsupported SQL: {sql!r}")

    def parse_transaction(self, sql_lines: List[str], txn_type: str = "sql") -> TransactionSpec:
        """Parse a BEGIN...COMMIT block into a single-round transaction spec.

        Statements between BEGIN and COMMIT form one round.
        """
        statements: List[Operation] = []
        saw_begin = False
        saw_commit = False
        for line in sql_lines:
            if not line.strip():
                continue
            parsed = self.parse_statement(line)
            if parsed.kind == "begin":
                saw_begin = True
            elif parsed.kind == "commit":
                saw_commit = True
                break
            elif parsed.kind == "rollback":
                raise ParseError("cannot build a transaction spec from a ROLLBACK block")
            else:
                statements.append(parsed.operation)
        if not saw_begin or not saw_commit:
            raise ParseError("transaction text must be wrapped in BEGIN ... COMMIT")
        if not statements:
            raise ParseError("transaction contains no DML statements")
        return TransactionSpec(rounds=[statements], txn_type=txn_type)
