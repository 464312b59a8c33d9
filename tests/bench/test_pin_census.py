"""Pin census: every pin is read by a test, and every pin a test reads exists.

Names are the ``pins.NAME`` string literals of the test modules that call
``assert_pinned``.  A moved pin is refreshed with ``tests/bench/repin.py``,
not by hand, which also keeps ``pins.json`` in the layout checked here.
"""

import ast

from tests.bench.pins import NAME, PINS_PATH, REPO_ROOT, dumps, load_pins


def read_names():
    """Pin name -> the test module that reads it."""
    names = {}
    for path in sorted((REPO_ROOT / "tests").rglob("test_*.py")):
        source = path.read_text(encoding="utf-8")
        if "assert_pinned(" in source:
            names.update({node.value: path.name for node in ast.walk(ast.parse(source))
                          if isinstance(node, ast.Constant)
                          and isinstance(node.value, str) and NAME.fullmatch(node.value)})
    return names


def test_every_pin_is_read_by_a_test():
    assert sorted(set(load_pins()) - set(read_names())) == []


def test_every_pin_a_test_reads_is_in_the_file():
    pins = load_pins()
    assert {name: module for name, module in read_names().items()
            if name not in pins} == {}


def test_the_file_is_in_the_layout_repin_writes():
    assert PINS_PATH.read_text(encoding="utf-8") == dumps(load_pins())
