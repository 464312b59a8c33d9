"""Record objects stored by the simulated data sources."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable


@dataclass(slots=True)
class Record:
    """A single versioned record: a key written since the load.

    ``version`` increments on every committed write (``Table.put``, the only
    place a record is created); the ScalarDB baseline and the recovery tests
    use it to detect lost or duplicated updates.
    """

    key: Hashable
    value: Any = None
    version: int = 0
    last_writer: str = ""


@dataclass(slots=True)
class RecordSnapshot:
    """Immutable view of a record returned by reads."""

    key: Hashable
    value: Any
    version: int
