"""Tests for the checked figure pipeline (``repro.bench.figures``).

One broken-fixture test per registered sanity check — each must produce an
actionable message naming the check — plus the end-to-end guarantees: a figure
failing any check gets *no* artifact files, the builders reshape real CLI
documents correctly, every figure kind renders to well-formed SVG whose bytes
depend only on the figure, and the ``figures`` CLI fails loudly on broken
input.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import pytest

from repro.bench.__main__ import main
from repro.bench.figures import (FIGURE_CHECKS, Figure, availability_figures,
                                 build_figures,
                                 check_figure, emit_figures,
                                 fleet_scaleout_figures, load_sweep_figures,
                                 render_svg)

DATA_DIR = Path(__file__).parent / "data"


def line_figure(**overrides) -> Figure:
    """A minimal well-formed two-series line figure."""
    spec = dict(
        name="probe", title="probe", kind="line",
        columns={"system": ["a", "a", "b", "b"],
                 "rate_tps": [100.0, 200.0, 100.0, 200.0],
                 "goodput_tps": [90.0, 150.0, 80.0, 140.0]},
        x="rate_tps", y="goodput_tps", series="system",
        x_label="x", y_label="y",
        checks=("columns_aligned", "no_nans", "nonempty_series",
                "monotone_x"),
        annotations={"expected_series": ["a", "b"]})
    spec.update(overrides)
    return Figure(**spec)


def test_well_formed_figure_passes_every_check():
    assert check_figure(line_figure()) == []


# ------------------------------------------------ one broken fixture per check
def test_columns_aligned_rejects_ragged_columns():
    broken = line_figure()
    broken.columns["goodput_tps"] = broken.columns["goodput_tps"][:-1]
    failures = check_figure(broken)
    assert any("columns_aligned" in f and "unequal lengths" in f
               for f in failures)


def test_columns_aligned_rejects_missing_declared_column():
    broken = line_figure()
    del broken.columns["goodput_tps"]
    failures = check_figure(broken)
    assert any("'goodput_tps' is missing" in f for f in failures)


def test_columns_aligned_rejects_empty_data():
    broken = line_figure(columns={"system": [], "rate_tps": [],
                                  "goodput_tps": []})
    failures = check_figure(broken)
    assert any("no data to plot" in f for f in failures)


def test_no_nans_rejects_nan_and_inf_cells():
    broken = line_figure()
    broken.columns["goodput_tps"][1] = float("nan")
    failures = check_figure(broken)
    assert any("no_nans" in f and "row 1" in f for f in failures)
    broken = line_figure()
    broken.columns["rate_tps"][0] = math.inf
    assert any("no_nans" in f for f in check_figure(broken))


def test_no_nans_rejects_none_in_plotted_columns():
    broken = line_figure()
    broken.columns["goodput_tps"][2] = None
    failures = check_figure(broken)
    assert any("no_nans" in f and "None" in f for f in failures)


def test_nonempty_series_rejects_a_vanished_system():
    broken = line_figure(annotations={"expected_series": ["a", "b", "geotp"]})
    failures = check_figure(broken)
    assert any("nonempty_series" in f and "geotp" in f for f in failures)


def test_monotone_x_rejects_duplicate_and_out_of_order_x():
    broken = line_figure()
    broken.columns["rate_tps"][1] = 100.0  # duplicate within series "a"
    failures = check_figure(broken)
    assert any("monotone_x" in f and "'a'" in f for f in failures)
    broken = line_figure()
    broken.columns["rate_tps"][3] = 50.0   # folds back within series "b"
    assert any("monotone_x" in f for f in check_figure(broken))


def timeline_figure(**overrides) -> Figure:
    spec = dict(
        name="avail", title="avail", kind="timeline",
        columns={"t_s": [0.0, 1.0, 2.0], "committed": [10, 0, 8],
                 "aborted": [0, 3, 0]},
        x="t_s", y="committed", x_label="t", y_label="txns",
        checks=("columns_aligned", "no_nans", "monotone_x",
                "buckets_sum_to_totals"),
        annotations={"totals": {"committed": 18, "aborted": 3}})
    spec.update(overrides)
    return Figure(**spec)


def test_buckets_sum_to_totals_accepts_exact_accounting():
    assert check_figure(timeline_figure()) == []


def test_buckets_sum_to_totals_rejects_dropped_transactions():
    broken = timeline_figure(
        annotations={"totals": {"committed": 19, "aborted": 3}})
    failures = check_figure(broken)
    assert any("buckets_sum_to_totals" in f and "19" in f for f in failures)


def test_buckets_sum_to_totals_requires_the_totals_annotation():
    broken = timeline_figure(annotations={})
    failures = check_figure(broken)
    assert any("totals" in f and "missing" in f for f in failures)


def heatmap_figure(**overrides) -> Figure:
    spec = dict(
        name="grid", title="grid", kind="heatmap",
        columns={"scenario": ["s1", "s1", "s2", "s2"],
                 "invariant": ["i1", "i2", "i1", "i2"],
                 "status": [1.0, 0.5, 1.0, 0.0]},
        x="invariant", y="status", series="scenario",
        x_label="invariant", y_label="scenario",
        checks=("columns_aligned", "no_nans", "heatmap_complete"),
        annotations={"rows": ["s1", "s2"], "cols": ["i1", "i2"]})
    spec.update(overrides)
    return Figure(**spec)


def test_heatmap_complete_accepts_a_full_grid():
    assert check_figure(heatmap_figure()) == []


def test_heatmap_complete_rejects_a_missing_cell():
    broken = heatmap_figure()
    for column in broken.columns.values():
        column.pop()
    failures = check_figure(broken)
    assert any("heatmap_complete" in f and "2x2=4" in f for f in failures)


def test_heatmap_complete_rejects_unknown_status_values():
    broken = heatmap_figure()
    broken.columns["status"][0] = 0.7
    failures = check_figure(broken)
    assert any("0.7" in f for f in failures)


def test_heatmap_complete_requires_grid_axes():
    broken = heatmap_figure(annotations={})
    failures = check_figure(broken)
    assert any("rows" in f for f in failures)


def test_unregistered_check_name_fails_instead_of_passing_silently():
    broken = line_figure(checks=("no_such_check",))
    failures = check_figure(broken)
    assert any("not registered" in f for f in failures)


def test_every_registered_check_has_a_broken_fixture_test():
    # Guard for future checks: extend this map (and add a test) when
    # registering a new sanity check.
    assert set(FIGURE_CHECKS) == {"columns_aligned", "no_nans",
                                  "nonempty_series", "monotone_x",
                                  "buckets_sum_to_totals", "heatmap_complete"}


# ------------------------------------------------------------------- builders
def test_load_sweep_builder_marks_the_knee_per_system():
    document = {"scenario": "load_sweep", "rows": [
        {"params": {"system": "geotp", "rate_tps": rate},
         "throughput_tps": tps, "p99_latency_ms": 10.0,
         "open_loop": {"drop_rate": 0.0}}
        for rate, tps in [(100.0, 95.0), (200.0, 180.0), (400.0, 170.0)]]}
    goodput, p99 = load_sweep_figures(document)
    assert goodput.name == "load_sweep_goodput"
    assert p99.y == "p99_latency_ms"
    # The knee is the rate of maximum goodput, not the maximum rate.
    assert goodput.annotations["knees"]["geotp"]["rate_tps"] == 200.0
    assert check_figure(goodput) == [] and check_figure(p99) == []


def test_availability_builder_carries_totals_and_fault_windows():
    document = {"scenario": "fault_x", "rows": [
        {"params": {"system": "geotp"}, "committed": 18, "aborted": 3,
         "faults": {"availability": {"bucket_ms": 1000.0,
                                     "series": [[0.0, 10, 0], [1000.0, 0, 3],
                                                [2000.0, 8, 0]]},
                    "plan": [{"kind": "datasource_crash", "at_ms": 900.0,
                              "duration_ms": 600.0, "target": "ds1"}]}}]}
    [figure] = availability_figures(document)
    assert figure.annotations["totals"] == {"committed": 18, "aborted": 3}
    assert figure.annotations["windows"] == [
        {"start_s": 0.9, "end_s": 1.5, "label": "datasource_crash"}]
    assert check_figure(figure) == []


def test_fleet_builder_computes_scaleout_efficiency_against_k1():
    document = {"scenario": "fleet_scaleout", "rows": [
        {"params": {"system": "geotp", "middleware_count": k},
         "throughput_tps": tps}
        for k, tps in [(1, 100.0), (2, 190.0), (4, 360.0)]]}
    throughput, efficiency = fleet_scaleout_figures(document)
    assert efficiency.columns["efficiency"] == [1.0, 0.95, 0.9]
    assert check_figure(throughput) == [] and check_figure(efficiency) == []


def test_chaos_builder_grids_every_point_and_marks_absent_as_skipped():
    document = {"scenario": "chaos", "rows": [
        {"params": {"fault": "dual", "system": "geotp"},
         "invariants": {"books_balance": {"status": "passed"},
                        "wal_in_doubt_empty": {"status": "failed"}}},
        {"params": {"fault": "dual", "system": "ssp"},
         "invariants": {"books_balance": {"status": "passed"}}}]}
    [figure] = build_figures(document)
    assert figure.annotations["rows"] == ["dual [geotp]", "dual [ssp]"]
    index = {(figure.columns["scenario"][i], figure.columns["invariant"][i]):
             figure.columns["status"][i] for i in range(figure.n_rows())}
    assert index[("dual [geotp]", "wal_in_doubt_empty")] == 0.0
    assert index[("dual [ssp]", "wal_in_doubt_empty")] == 0.5  # never ran
    assert check_figure(figure) == []


def test_build_figures_rejects_a_document_with_no_applicable_builder():
    with pytest.raises(ValueError, match="no figure builder applies"):
        build_figures({"scenario": "smoke", "rows": [
            {"params": {"system": "geotp"}, "throughput_tps": 1.0}]})


# ------------------------------------------------------------------ rendering
def one_figure_of_each_kind():
    """A knee-marked line, a timeline with a fault window, and a heatmap whose
    labels need XML escaping."""
    line = line_figure(name="knee", y="goodput_tps", annotations={
        "expected_series": ["a", "b"],
        "knees": {"a": {"rate_tps": 200.0, "goodput_tps": 150.0}}})
    timeline = timeline_figure(annotations={
        "totals": {"committed": 18, "aborted": 3},
        "windows": [{"start_s": 0.9, "end_s": 1.5, "label": "ds<1> & co"}]})
    heatmap = heatmap_figure(
        columns={"scenario": ["c [geotp]", "c [geotp]", "d <&>", "d <&>"],
                 "invariant": ["i1", "i2", "i1", "i2"],
                 "status": [1.0, 0.5, 1.0, 0.0]},
        annotations={"rows": ["c [geotp]", "d <&>"], "cols": ["i1", "i2"]})
    return [line, timeline, heatmap]


def svg_texts(document):
    return {node.firstChild.data
            for node in document.getElementsByTagName("text")}


def test_every_figure_kind_renders_to_well_formed_svg():
    for figure in one_figure_of_each_kind():
        assert check_figure(figure) == []
        svg = render_svg(figure)
        document = minidom.parseString(svg)
        assert document.documentElement.tagName == "svg"
        assert figure.title in svg_texts(document)
        assert svg == render_svg(figure)
    line, timeline, heatmap = one_figure_of_each_kind()
    # Line: one polyline per series, a ring on the knee, a legend entry each.
    document = minidom.parseString(render_svg(line))
    assert len(document.getElementsByTagName("polyline")) == 2
    rings = [c for c in document.getElementsByTagName("circle")
             if c.getAttribute("fill") == "none"]
    assert len(rings) == 1
    assert {"a", "b"} <= svg_texts(document)
    # Timeline: committed and aborted, the window shaded and labelled.
    document = minidom.parseString(render_svg(timeline))
    assert {"committed", "aborted", "ds<1> & co"} <= svg_texts(document)
    assert [r.getAttribute("fill-opacity") for r
            in document.getElementsByTagName("rect")].count("0.15") == 1
    # Heatmap: one cell per pair in the three status colors, escaped labels.
    svg = render_svg(heatmap)
    document = minidom.parseString(svg)
    cells = [r.getAttribute("fill") for r in document.getElementsByTagName(
        "rect") if r.getAttribute("width") == "24"]
    assert len(cells) == 4 and len(set(cells)) == 3
    assert {"c [geotp]", "d <&>", "passed", "skipped", "failed"} <= \
        svg_texts(document)
    assert "d &lt;&amp;&gt;" in svg


def test_svg_bytes_do_not_depend_on_the_hash_seed():
    script = ("import sys, tests.bench.test_figures as t\n"
              "from repro.bench.figures import render_svg\n"
              "sys.stdout.write(''.join(render_svg(f) for f in "
              "t.one_figure_of_each_kind()))\n")
    root = Path(__file__).resolve().parents[2]
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        outputs.append(subprocess.run(
            [sys.executable, "-c", script], cwd=root, env=env, check=True,
            capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0] == "".join(render_svg(figure)
                                 for figure in one_figure_of_each_kind())


# ------------------------------------------------------------------- emission
def test_emit_figures_blocks_artifacts_for_failing_figures(tmp_path):
    good = line_figure(name="good")
    bad = line_figure(name="bad")
    bad.columns["goodput_tps"][0] = float("nan")
    report = emit_figures([good, bad], tmp_path, render=False)
    assert [entry["figure"] for entry in report["figures"]] == ["good"]
    assert (tmp_path / "good.json").exists()
    assert not (tmp_path / "bad.json").exists(), \
        "a failing figure must not leave artifacts behind"
    [violation] = report["violations"]
    assert violation["figure"] == "bad"
    assert any("no_nans" in f for f in violation["failures"])


def test_emitted_data_json_round_trips_the_figure(tmp_path):
    figure = line_figure()
    emit_figures([figure], tmp_path, render=False)
    restored = json.loads((tmp_path / "probe.json").read_text())
    assert restored["columns"] == figure.columns
    assert restored["checks"] == list(figure.checks)
    assert restored["annotations"]["expected_series"] == ["a", "b"]


# ------------------------------------------------------------------------ CLI
def test_figures_cli_fails_on_broken_input_and_emits_nothing(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    status = main(["figures", "load_sweep",
                   "--input", str(DATA_DIR / "broken_load_sweep.json"),
                   "--output-dir", str(out_dir)])
    assert status == 1
    err = capsys.readouterr().err
    assert "FIGURE CHECK FAILED" in err
    assert "monotone_x" in err or "no_nans" in err
    assert not list(out_dir.glob("load_sweep_*")), \
        "broken figures must not reach the artifact directory"


def test_figures_cli_emits_checked_artifacts_from_an_input_document(tmp_path,
                                                                    capsys):
    document = {"scenario": "fleet_scaleout", "rows": [
        {"params": {"system": "geotp", "middleware_count": k},
         "throughput_tps": tps}
        for k, tps in [(1, 100.0), (2, 190.0)]]}
    source = tmp_path / "doc.json"
    source.write_text(json.dumps(document))
    out_dir = tmp_path / "figs"
    status = main(["figures", "fleet_scaleout", "--input", str(source),
                   "--output-dir", str(out_dir), "--data-only"])
    assert status == 0
    assert (out_dir / "fleet_scaleout_throughput.json").exists()
    assert (out_dir / "fleet_scaleout_efficiency.json").exists()
    assert "emitted 2 checked figure(s)" in capsys.readouterr().err


def test_figures_cli_rejects_an_inapplicable_document(tmp_path, capsys):
    source = tmp_path / "doc.json"
    source.write_text(json.dumps({"scenario": "smoke", "rows": []}))
    status = main(["figures", "smoke", "--input", str(source),
                   "--output-dir", str(tmp_path / "figs")])
    assert status == 2
    assert "no figure builder applies" in capsys.readouterr().err


def test_figures_cli_rejects_an_inapplicable_scenario_before_running_it(
        tmp_path, capsys, monkeypatch):
    def must_not_run(point):
        raise AssertionError(f"point {point.index} ran before the check")

    monkeypatch.setattr("repro.bench.parallel.run_sweep_point", must_not_run)
    out_dir = tmp_path / "figs"
    status = main(["figures", "fig6_breakdown", "--output-dir", str(out_dir)])
    assert status == 2
    assert "no figure builder applies" in capsys.readouterr().err
    assert not out_dir.exists()


def run_tiny_load_sweep(out_dir, *flags):
    # The smallest real scenario with a figure builder: load_sweep collapsed
    # to one rate and one tiny duration.
    return main(["figures", "load_sweep", "--rate-tps", "80",
                 "--duration-ms", "400", "--warmup-ms", "100",
                 "--output-dir", str(out_dir), *flags])


def test_figures_cli_runs_a_scenario_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    assert run_tiny_load_sweep(out_dir, "--data-only") == 0
    emitted = sorted(path.name for path in out_dir.iterdir())
    assert emitted == ["load_sweep_goodput.json", "load_sweep_p99.json"]


def test_figures_cli_writes_an_svg_next_to_each_data_json(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    assert run_tiny_load_sweep(out_dir) == 0
    emitted = sorted(path.name for path in out_dir.iterdir())
    assert emitted == ["load_sweep_goodput.json", "load_sweep_goodput.svg",
                       "load_sweep_p99.json", "load_sweep_p99.svg"]
    for svg in out_dir.glob("*.svg"):
        minidom.parse(str(svg))
