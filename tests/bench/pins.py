"""Exact pins of seeded runs, read by name from ``tests/bench/data/pins.json``.

A test reduces its run with :func:`repro.bench.equivalence.reduce` and calls
:func:`assert_pinned`.  A pin compares exactly the fields its entry holds; a
dotted field (``faults.availability``) reads into a nested report.  A pin
name, ``<family>.<run>.<system>``, is a string literal in the test that reads
it, which is where the pin census (``test_pin_census.py``) finds it.  The
re-pin procedure is in EXPERIMENTS.md, "Statistical equivalence".
"""

import json
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
PINS_PATH = REPO_ROOT / "tests" / "bench" / "data" / "pins.json"
#: Where a failing pin records what it saw, one file per pin, for repin.py.
RECORDS = REPO_ROOT / ".pytest_cache" / "repin"
NAME = re.compile(r"[a-z_]+\.[a-z0-9_]+\.[a-z0-9_]+")


def load_pins():
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def dumps(pins):
    """The file's layout: one line per pin, pins and fields sorted."""
    return "{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(pins[name], sort_keys=True)}"
        for name in sorted(pins)) + "\n}\n"


def field(document, path):
    """The value at dotted ``path``; ``None`` where the document has none."""
    for part in path.split("."):
        document = document.get(part) if isinstance(document, dict) else None
    return document


def assert_pinned(name, value):
    """Fail unless each field of pin ``name`` equals that field of ``value``;
    a failure records ``value`` for ``tests/bench/repin.py``."""
    assert NAME.fullmatch(name), f"{name!r} is not <family>.<run>.<system>"
    observed = json.loads(json.dumps(value))    # the types pins.json holds
    pinned = load_pins().get(name, {})
    moved = [f"| {path} | {want!r} | {field(observed, path)!r} |"
             for path, want in sorted(pinned.items())
             if field(observed, path) != want]
    record = RECORDS / f"{name}.json"
    if pinned and not moved:
        record.unlink(missing_ok=True)
        return
    RECORDS.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"name": name, "observed": observed}),
                      encoding="utf-8")
    raise AssertionError(
        f"pin {name!r} {'moved' if pinned else 'is not in pins.json'}.  If "
        f"that is meant, run `python tests/bench/repin.py` and paste its "
        f"table into CHANGES.md.\n| field | pinned | observed |\n|---|---|---|\n"
        + "\n".join(moved))
