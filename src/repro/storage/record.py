"""Record objects stored by the simulated data sources."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable


@dataclass(slots=True)
class Record:
    """A single versioned record.

    ``version`` increments on every committed write; the ScalarDB baseline and
    the recovery tests use it to detect lost or duplicated updates.
    """

    key: Hashable
    value: Any = None
    version: int = 0
    last_writer: str = ""

    def apply_write(self, value: Any, writer: str) -> None:
        """Install a new committed value written by transaction ``writer``."""
        self.value = value
        self.version += 1
        self.last_writer = writer

    def copy(self) -> "Record":
        """Shallow copy (used when handing records across the network model)."""
        return Record(key=self.key, value=self.value, version=self.version,
                      last_writer=self.last_writer)


@dataclass(slots=True)
class RecordSnapshot:
    """Immutable view of a record returned by reads."""

    key: Hashable
    value: Any
    version: int
