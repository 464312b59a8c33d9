"""SQL-dialect profiles for heterogeneous data sources.

The paper stresses that GeoTP works across heterogeneous data sources
(MySQL and PostgreSQL in the evaluation, Table I).  What actually differs
between them, from the middleware's point of view, is:

* the command sequence used to drive the XA protocol (``XA START/END/PREPARE/
  COMMIT`` for MySQL versus ``BEGIN`` / ``PREPARE TRANSACTION`` / ``COMMIT
  PREPARED`` for PostgreSQL);
* whether plain ``SELECT`` statements take shared record locks (InnoDB under
  serializable does; PostgreSQL needs the middleware to rewrite reads to
  ``SELECT ... FOR SHARE``, §VII-A);
* local execution costs, which :class:`~repro.common.CostModel` keys by ``name``.

A :class:`Dialect` bundles these differences so the data source, the rewriter
and the geo-agent never special-case engine names directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class Dialect:
    """Behavioural profile of one database engine."""

    name: str
    #: True if the middleware must rewrite reads to lock explicitly
    #: (``SELECT ... FOR SHARE``) for shared locks to be taken at all.
    reads_need_explicit_lock_rewrite: bool

    # ------------------------------------------------- XA statement rendering
    def begin_statements(self, xid: str) -> List[str]:
        """Statements that open an XA branch on this engine."""
        raise NotImplementedError

    def end_prepare_statements(self, xid: str) -> List[str]:
        """Statements that end execution and prepare the branch."""
        raise NotImplementedError

    def commit_statements(self, xid: str) -> List[str]:
        """Statements that commit a prepared branch."""
        raise NotImplementedError

    def rollback_statements(self, xid: str) -> List[str]:
        """Statements that roll back the branch."""
        raise NotImplementedError

    def rewrite_read(self, sql: str) -> str:
        """Rewrite a read statement so it takes a shared lock if needed."""
        if not self.reads_need_explicit_lock_rewrite:
            return sql
        stripped = sql.rstrip().rstrip(";")
        if stripped.upper().endswith("FOR SHARE"):
            return sql
        return f"{stripped} FOR SHARE;"


@dataclass(frozen=True)
class MySQLDialect(Dialect):
    """MySQL 8.0 / InnoDB profile (XA verbs, implicit read locks under SERIALIZABLE)."""

    name: str = "mysql"
    reads_need_explicit_lock_rewrite: bool = False

    def begin_statements(self, xid: str) -> List[str]:
        return [f"XA START '{xid}';"]

    def end_prepare_statements(self, xid: str) -> List[str]:
        return [f"XA END '{xid}';", f"XA PREPARE '{xid}';"]

    def commit_statements(self, xid: str) -> List[str]:
        return [f"XA COMMIT '{xid}';"]

    def rollback_statements(self, xid: str) -> List[str]:
        return [f"XA ROLLBACK '{xid}';"]


@dataclass(frozen=True)
class PostgreSQLDialect(Dialect):
    """PostgreSQL 15 profile (prepared transactions, explicit FOR SHARE reads)."""

    name: str = "postgresql"
    reads_need_explicit_lock_rewrite: bool = True

    def begin_statements(self, xid: str) -> List[str]:
        return ["BEGIN;"]

    def end_prepare_statements(self, xid: str) -> List[str]:
        return [f"PREPARE TRANSACTION '{xid}';"]

    def commit_statements(self, xid: str) -> List[str]:
        return [f"COMMIT PREPARED '{xid}';"]

    def rollback_statements(self, xid: str) -> List[str]:
        return [f"ROLLBACK PREPARED '{xid}';"]


def dialect_by_name(name: str) -> Dialect:
    """Look up a dialect profile by its engine name."""
    normalized = name.strip().lower()
    if normalized in ("mysql", "innodb"):
        return MySQLDialect()
    if normalized in ("postgresql", "postgres", "pg"):
        return PostgreSQLDialect()
    raise ValueError(f"unknown dialect {name!r}; expected 'mysql' or 'postgresql'")
