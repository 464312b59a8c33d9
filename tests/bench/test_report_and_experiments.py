"""Tests for the reporting helpers: ``format_table`` and ``sweep_table``.

``format_table`` gets property-style coverage (hypothesis): for any mix of
int/float/str cells and any header widths, the rendered table must stay
rectangular, aligned and lossless about cell order — and the float formatting
must depend on magnitude, not sign (the ``abs()`` regression pin).
``sweep_table`` is checked on tiny-scale runs of two paper scenarios.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.parallel import SweepRunner
from repro.bench.report import _format_cell, format_table, print_table, \
    sweep_table
from repro.bench.scenarios import get_scenario

METRIC_HEADERS = ["tput (tps)", "avg latency (ms)", "p99 (ms)", "abort (%)"]


def test_format_table_aligns_columns_and_formats_numbers():
    text = format_table(["system", "tput"], [("geotp", 123.456), ("ssp", 7.1)])
    lines = text.splitlines()
    assert lines[0].startswith("system")
    assert "123.5" in text
    assert "7.10" in text
    assert len(lines) == 4  # header, rule, two rows


def test_format_cell_uses_magnitude_not_sign_for_float_precision():
    # Regression pin: -12345.678 used to fall through to the two-decimal
    # branch because the threshold compared the signed value.
    assert _format_cell(12345.678) == "12345.7"
    assert _format_cell(-12345.678) == "-12345.7"
    assert _format_cell(99.994) == "99.99"
    assert _format_cell(-99.994) == "-99.99"
    assert _format_cell(100.0) == "100.0"
    assert _format_cell(-100.0) == "-100.0"


def test_format_table_negative_large_floats_align_with_positive_ones():
    text = format_table(["v"], [(1234.5,), (-1234.5,)])
    rows = text.splitlines()[2:]
    assert rows[0].rstrip() == "1234.5"
    assert rows[1].rstrip() == "-1234.5"


_cell = st.one_of(
    st.integers(-10**9, 10**9),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e9, max_value=1e9),
    st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            max_size=12))


@settings(max_examples=60, deadline=None)
@given(headers=st.lists(st.text(
           alphabet=st.characters(min_codepoint=33, max_codepoint=126),
           min_size=1, max_size=20), min_size=1, max_size=5),
       data=st.data())
def test_format_table_is_rectangular_and_aligned(headers, data):
    n_columns = len(headers)
    rows = data.draw(st.lists(
        st.lists(_cell, min_size=n_columns, max_size=n_columns), max_size=6))
    lines = format_table(headers, rows).splitlines()
    assert len(lines) == 2 + len(rows)
    # Alignment invariant: every line is exactly as wide as the rule line
    # (modulo the trailing padding of left-justified last cells).
    rule_width = len(lines[1])
    for line in lines:
        assert len(line.rstrip()) <= rule_width
    # The rule is dashes and separators only.
    assert set(lines[1]) <= {"-", " "}
    # Losslessness: every rendered cell appears in its row's line, in order.
    for row, line in zip(rows, lines[2:]):
        position = 0
        for cell in row:
            rendered = _format_cell(cell)
            found = line.find(rendered, position)
            assert found >= 0, (rendered, line)
            position = found + len(rendered)


@settings(max_examples=30, deadline=None)
@given(headers=st.lists(st.sampled_from(["a", "bb", "a really wide header"]),
                        min_size=1, max_size=4))
def test_format_table_with_no_rows_renders_headers_and_rule_only(headers):
    lines = format_table(headers, []).splitlines()
    assert len(lines) == 2
    # Column widths are the (possibly ragged) header widths.
    assert [len(dash) for dash in lines[1].split("  ")] \
        == [len(h) for h in headers]


@settings(max_examples=30, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False,
                       min_value=1e-9, max_value=1e15))
def test_format_cell_float_precision_is_symmetric_in_sign(value):
    assert _format_cell(-value) == "-" + _format_cell(value)


def test_print_table_writes_to_stdout(capsys):
    print_table("demo", ["x", "y"], [(1, 2)])
    out = capsys.readouterr().out
    assert "== demo ==" in out
    assert "x" in out and "y" in out


def test_fig6_experiment_smoke():
    """A tiny fig6 sweep: one varying param, metric and ``extra`` columns."""
    out = SweepRunner(max_workers=1).run(
        get_scenario("fig6_breakdown").sweep(duration_ms=3000, terminals=8))
    headers, rows = sweep_table(out, extra={
        "wan msgs/commit": lambda s: s.resources.wan_messages_per_commit,
        "prepare (ms)": lambda s: s.breakdown["prepare"]})
    assert headers == ["system", *METRIC_HEADERS, "wan msgs/commit",
                       "prepare (ms)"]
    for row, point, system in zip(rows, out, ("ssp", "geotp")):
        summary = point.summary
        assert row == [system, *summary.summary_row()[1:],
                       summary.resources.wan_messages_per_commit,
                       summary.breakdown["prepare"]]


def test_fig15_experiment_smoke():
    """A tiny fig15 sweep: rows in point order, only varying params shown."""
    out = SweepRunner(max_workers=1).run(
        get_scenario("fig15_multi_region").sweep(duration_ms=3000, terminals=8))
    headers, rows = sweep_table(out)
    assert headers == ["system", "deployment", *METRIC_HEADERS]
    assert [tuple(row[:2]) for row in rows] == [
        ("ssp", "single"), ("ssp", "multi"),
        ("geotp", "single"), ("geotp", "multi")]
    assert [row[2] for row in rows] \
        == [round(point.summary.throughput_tps, 1) for point in out]
    headers, rows = sweep_table(out.select(deployment="multi"))
    assert headers == ["system", *METRIC_HEADERS]
    assert [row[0] for row in rows] == ["ssp", "geotp"]


def test_sweep_table_of_an_empty_sweep_has_headers_and_no_rows():
    assert sweep_table([], extra={"x": len}) == ([*METRIC_HEADERS, "x"], [])
