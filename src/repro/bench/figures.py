"""Checked figure pipeline: sweep documents → sanity-checked paper figures.

The report layer that turns the JSON documents emitted by ``python -m
repro.bench run``/``chaos`` into the paper-shaped artifacts: throughput and
tail-latency knees vs offered load, availability timelines around fault
windows, fleet scale-out efficiency and the chaos invariant heatmap.

Two deliberate constraints shape the module:

* **No pandas.**  A figure's backing data is a plain dict-of-columns
  (:class:`Figure.columns`): equal-length lists keyed by column name.  That is
  all the structure the checks and the renderer need, and it keeps the bench
  layer dependency-free.
* **No unchecked artifacts** (the ``df_to_figure`` discipline from
  data-to-paper): every :class:`Figure` names the sanity checks registered
  for it — monotone offered-load axis, availability buckets summing to the
  collector totals, no NaNs, no empty series, complete heatmap grids — and
  :func:`emit_figures` refuses to write *any* file for a figure whose backing
  data fails one.  A violation is a loud, actionable message, not a quietly
  wrong SVG in a paper.

Rendering is a small standard-library SVG writer (:func:`render_svg`) whose
bytes depend only on the figure, so a rendered artifact is as testable as its
data.  ``python -m repro.bench figures`` drives the pipeline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# ----------------------------------------------------------------- the figure
@dataclass
class Figure:
    """One figure: columnar backing data plus everything needed to render it.

    ``columns`` is the dict-of-columns table; ``x``/``y`` name the plotted
    columns and ``series`` (optional) the column whose distinct values become
    plot series.  ``checks`` lists registered sanity-check names — all of
    them must pass before the figure may be emitted.  ``annotations`` carries
    check parameters and render hints (knee markers, fault windows, expected
    series, heatmap axes) as plain JSON-serialisable values.
    """

    name: str
    title: str
    kind: str                       # "line" | "timeline" | "heatmap"
    columns: Dict[str, List[Any]]
    x: str
    y: str
    x_label: str
    y_label: str
    series: Optional[str] = None
    checks: Tuple[str, ...] = ()
    annotations: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------- accessors
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def series_values(self) -> List[Any]:
        """Distinct series values, in first-appearance order."""
        if self.series is None:
            return []
        seen: List[Any] = []
        for value in self.columns.get(self.series, []):
            if value not in seen:
                seen.append(value)
        return seen

    def rows_for(self, series_value: Any) -> List[int]:
        """Row indices belonging to one series value."""
        column = self.columns.get(self.series or "", [])
        return [i for i, value in enumerate(column) if value == series_value]

    def to_dict(self) -> Dict[str, Any]:
        """The JSON artifact written next to the rendered figure."""
        return {"name": self.name, "title": self.title, "kind": self.kind,
                "x": self.x, "y": self.y, "x_label": self.x_label,
                "y_label": self.y_label, "series": self.series,
                "checks": list(self.checks), "annotations": self.annotations,
                "columns": self.columns}


# ------------------------------------------------------------ check registry
#: Registered sanity checks: name -> callable returning failure messages.
FIGURE_CHECKS: Dict[str, Callable[[Figure], List[str]]] = {}


def figure_check(name: str):
    """Register a sanity check under ``name`` (used in ``Figure.checks``)."""
    def decorator(fn: Callable[[Figure], List[str]]):
        FIGURE_CHECKS[name] = fn
        return fn
    return decorator


def check_figure(figure: Figure) -> List[str]:
    """Run every check the figure names; returns all failure messages."""
    failures: List[str] = []
    for name in figure.checks:
        try:
            check = FIGURE_CHECKS[name]
        except KeyError:
            failures.append(f"check {name!r} is not registered "
                            f"(known: {sorted(FIGURE_CHECKS)})")
            continue
        failures.extend(f"[{name}] {message}" for message in check(figure))
    return failures


def _is_bad_number(value: Any) -> bool:
    return isinstance(value, float) and not math.isfinite(value)


@figure_check("columns_aligned")
def _check_columns_aligned(figure: Figure) -> List[str]:
    """Every column exists, all columns share one nonzero length."""
    failures = []
    if not figure.columns:
        return ["figure has no columns at all"]
    lengths = {name: len(values) for name, values in figure.columns.items()}
    if len(set(lengths.values())) > 1:
        failures.append(f"columns have unequal lengths {lengths}; the "
                        f"dict-of-columns table must be rectangular")
    if min(lengths.values()) == 0:
        failures.append("columns are empty — there is no data to plot")
    for required in (figure.x, figure.y, *( [figure.series]
                                            if figure.series else [] )):
        if required not in figure.columns:
            failures.append(f"declared column {required!r} is missing from "
                            f"the data (have {sorted(figure.columns)})")
    return failures


@figure_check("no_nans")
def _check_no_nans(figure: Figure) -> List[str]:
    """No NaN/inf anywhere, and no ``None`` in the plotted x/y columns."""
    failures = []
    for name, values in figure.columns.items():
        for i, value in enumerate(values):
            if _is_bad_number(value):
                failures.append(f"column {name!r} row {i} is {value!r}; "
                                f"a non-finite value means the producing run "
                                f"or reshaping is broken")
            elif value is None and name in (figure.x, figure.y):
                failures.append(f"plotted column {name!r} row {i} is None")
    return failures


@figure_check("nonempty_series")
def _check_nonempty_series(figure: Figure) -> List[str]:
    """At least one row per expected series (no silently vanished system)."""
    if figure.series is None:
        return ["check requires a series column but the figure declares none"]
    present = figure.series_values()
    if not present:
        return [f"series column {figure.series!r} has no values"]
    expected = figure.annotations.get("expected_series")
    if expected:
        missing = [value for value in expected if value not in present]
        if missing:
            return [f"expected series {missing} are missing from the data "
                    f"(present: {present}); a system dropped out of the sweep"]
    return []


@figure_check("monotone_x")
def _check_monotone_x(figure: Figure) -> List[str]:
    """Within each series the x axis is strictly increasing.

    The offered-load and time axes must never fold back: a duplicate or
    out-of-order x value means rows were duplicated, shuffled or merged from
    incompatible sweeps.
    """
    failures = []
    xs = figure.columns.get(figure.x, [])
    groups = ([(value, figure.rows_for(value))
               for value in figure.series_values()]
              if figure.series else [("all", list(range(len(xs))))])
    for series_value, rows in groups:
        for prev, cur in zip(rows, rows[1:]):
            if not (xs[cur] > xs[prev]):
                failures.append(
                    f"series {series_value!r}: x ({figure.x}) is not "
                    f"strictly increasing at rows {prev}->{cur} "
                    f"({xs[prev]!r} -> {xs[cur]!r}); rows are duplicated or "
                    f"out of order")
                break
    return failures


@figure_check("buckets_sum_to_totals")
def _check_buckets_sum_to_totals(figure: Figure) -> List[str]:
    """Timeline buckets account for every counted transaction.

    ``annotations["totals"]`` carries the collector totals of the producing
    run; the committed/aborted columns must sum to them exactly (the
    availability buckets start at the warm-up boundary, so measured counters
    and buckets cover the same window).
    """
    totals = figure.annotations.get("totals")
    if not isinstance(totals, dict):
        return ["annotations['totals'] (collector totals) is missing — the "
                "builder must record what the buckets should sum to"]
    failures = []
    for column, expected in sorted(totals.items()):
        got = sum(figure.columns.get(column, []))
        if got != expected:
            failures.append(f"column {column!r} sums to {got} but the "
                            f"collector counted {expected}; buckets are "
                            f"dropping or double-counting transactions")
    return failures


@figure_check("heatmap_complete")
def _check_heatmap_complete(figure: Figure) -> List[str]:
    """The heatmap grid is complete and every cell value is a known status."""
    rows = figure.annotations.get("rows") or []
    cols = figure.annotations.get("cols") or []
    failures = []
    if not rows or not cols:
        failures.append("annotations['rows']/'cols' (the grid axes) are "
                        "missing or empty")
    expected = len(rows) * len(cols)
    if expected and figure.n_rows() != expected:
        failures.append(f"grid has {figure.n_rows()} cells but "
                        f"{len(rows)}x{len(cols)}={expected} are required; "
                        f"a scenario/invariant pair is missing or duplicated")
    allowed = {0.0, 0.5, 1.0}
    for i, value in enumerate(figure.columns.get(figure.y, [])):
        if value not in allowed:
            failures.append(f"cell {i} has status {value!r}; expected one of "
                            f"{sorted(allowed)} (fail / skipped / passed)")
            break
    return failures


# ------------------------------------------------------------- figure builders
_LINE_CHECKS = ("columns_aligned", "no_nans", "nonempty_series", "monotone_x")


def load_sweep_figures(document: Dict[str, Any]) -> List[Figure]:
    """Goodput and p99 vs offered rate, the knee marked per system."""
    scenario = document.get("scenario", "load_sweep")
    systems: List[str] = []
    columns: Dict[str, List[Any]] = {"system": [], "rate_tps": [],
                                     "goodput_tps": [], "p99_latency_ms": [],
                                     "drop_rate": []}
    for row in document.get("rows", []):
        params = row.get("params", {})
        if "rate_tps" not in params or row.get("open_loop") is None:
            continue
        system = params.get("system", row.get("system"))
        if system not in systems:
            systems.append(system)
        columns["system"].append(system)
        columns["rate_tps"].append(params["rate_tps"])
        columns["goodput_tps"].append(row["throughput_tps"])
        columns["p99_latency_ms"].append(row["p99_latency_ms"])
        columns["drop_rate"].append(row["open_loop"]["drop_rate"])
    knees = {}
    for system in systems:
        best, best_rate = -1.0, None
        for i, s in enumerate(columns["system"]):
            if s == system and columns["goodput_tps"][i] > best:
                best, best_rate = columns["goodput_tps"][i], columns["rate_tps"][i]
        knees[system] = {"rate_tps": best_rate, "goodput_tps": best}
    annotations = {"expected_series": systems, "knees": knees}
    return [
        Figure(name=f"{scenario}_goodput", kind="line",
               title="Goodput vs offered load (knee marked)",
               columns={k: list(v) for k, v in columns.items()},
               x="rate_tps", y="goodput_tps", series="system",
               x_label="offered load (tps)", y_label="goodput (tps)",
               checks=_LINE_CHECKS, annotations=dict(annotations)),
        Figure(name=f"{scenario}_p99", kind="line",
               title="p99 latency vs offered load",
               columns={k: list(v) for k, v in columns.items()},
               x="rate_tps", y="p99_latency_ms", series="system",
               x_label="offered load (tps)", y_label="p99 latency (ms)",
               checks=_LINE_CHECKS, annotations=dict(annotations)),
    ]


def availability_figures(document: Dict[str, Any]) -> List[Figure]:
    """Per-second availability timeline around the fault window, per row."""
    scenario = document.get("scenario", "faults")
    figures = []
    for row in document.get("rows", []):
        faults = row.get("faults")
        if not faults:
            continue
        availability = faults["availability"]
        series = availability["series"]
        columns = {"t_s": [bucket[0] / 1000.0 for bucket in series],
                   "committed": [bucket[1] for bucket in series],
                   "aborted": [bucket[2] for bucket in series]}
        label = "_".join(str(value) for value in row.get("params", {}).values()) \
            or row.get("system", "run")
        windows = [{"start_s": event["at_ms"] / 1000.0,
                    "end_s": (event["at_ms"] + event["duration_ms"]) / 1000.0,
                    "label": event["kind"]}
                   for event in faults.get("plan", [])]
        figures.append(Figure(
            name=f"{scenario}_availability_{label}", kind="timeline",
            title=f"Availability timeline — {scenario} ({label})",
            columns=columns, x="t_s", y="committed",
            x_label="simulated time (s)", y_label="transactions per bucket",
            checks=("columns_aligned", "no_nans", "monotone_x",
                    "buckets_sum_to_totals"),
            annotations={"windows": windows,
                         "totals": {"committed": row["committed"],
                                    "aborted": row["aborted"]}}))
    return figures


def fleet_scaleout_figures(document: Dict[str, Any]) -> List[Figure]:
    """Throughput and scale-out efficiency vs fleet size."""
    scenario = document.get("scenario", "fleet_scaleout")
    systems: List[str] = []
    columns: Dict[str, List[Any]] = {"system": [], "middleware_count": [],
                                     "throughput_tps": []}
    for row in document.get("rows", []):
        params = row.get("params", {})
        if "middleware_count" not in params:
            continue
        system = params.get("system")
        if system not in systems:
            systems.append(system)
        columns["system"].append(system)
        columns["middleware_count"].append(params["middleware_count"])
        columns["throughput_tps"].append(row["throughput_tps"])
    figures = [Figure(
        name=f"{scenario}_throughput", kind="line",
        title="Fleet scale-out: throughput vs coordinator count",
        columns={k: list(v) for k, v in columns.items()},
        x="middleware_count", y="throughput_tps", series="system",
        x_label="middlewares (K)", y_label="throughput (tps)",
        checks=_LINE_CHECKS,
        annotations={"expected_series": list(systems)})]
    baselines = {}
    for i, system in enumerate(columns["system"]):
        if columns["middleware_count"][i] == 1:
            baselines[system] = columns["throughput_tps"][i]
    if baselines:
        eff: Dict[str, List[Any]] = {"system": [], "middleware_count": [],
                                     "efficiency": []}
        for i, system in enumerate(columns["system"]):
            base = baselines.get(system)
            if not base:
                continue
            k = columns["middleware_count"][i]
            eff["system"].append(system)
            eff["middleware_count"].append(k)
            eff["efficiency"].append(columns["throughput_tps"][i] / (k * base))
        figures.append(Figure(
            name=f"{scenario}_efficiency", kind="line",
            title="Fleet scale-out efficiency (tps(K) / K·tps(1))",
            columns=eff, x="middleware_count", y="efficiency",
            series="system", x_label="middlewares (K)",
            y_label="scale-out efficiency",
            checks=_LINE_CHECKS,
            annotations={"expected_series": sorted(baselines)}))
    return figures


#: Invariant status -> heatmap cell value (the only values the check allows).
_INVARIANT_STATUS = {"failed": 0.0, "skipped": 0.5, "passed": 1.0}


def chaos_heatmap_figures(document: Dict[str, Any]) -> List[Figure]:
    """Fault×system by invariant pass/fail heatmap of a document whose rows
    all carry a ``fault`` param and an invariant report (``run chaos``,
    ``chaos``)."""
    row_labels: List[str] = []
    cells: Dict[str, Dict[str, float]] = {}
    invariant_names: List[str] = []
    for row in document["rows"]:
        params = row["params"]
        label = f"{params['fault']} [{params['system']}]"
        row_labels.append(label)
        cells[label] = {}
        for name, report in (row.get("invariants") or {}).items():
            if name not in invariant_names:
                invariant_names.append(name)
            cells[label][name] = _INVARIANT_STATUS.get(report.get("status"),
                                                       0.0)
    columns: Dict[str, List[Any]] = {"scenario": [], "invariant": [],
                                     "status": []}
    for label in row_labels:
        for name in invariant_names:
            columns["scenario"].append(label)
            columns["invariant"].append(name)
            # An invariant missing from a point never ran there: skipped.
            columns["status"].append(cells[label].get(name, 0.5))
    return [Figure(
        name="chaos_invariants", kind="heatmap",
        title="Robustness invariants per catalogue fault and system",
        columns=columns, x="invariant", y="status", series="scenario",
        x_label="invariant", y_label="fault [system]",
        checks=("columns_aligned", "no_nans", "heatmap_complete"),
        annotations={"rows": row_labels, "cols": invariant_names})]


#: Builder registry in detection order; each predicate inspects the document.
FIGURE_BUILDERS: Tuple[Tuple[str, Callable[[Dict[str, Any]], bool],
                             Callable[[Dict[str, Any]], List[Figure]]], ...] = (
    ("chaos_heatmap",
     lambda doc: bool(doc.get("rows"))
     and all("invariants" in row and "fault" in row.get("params", {})
             for row in doc["rows"]),
     chaos_heatmap_figures),
    ("load_knee",
     lambda doc: any(row.get("open_loop") is not None
                     and "rate_tps" in row.get("params", {})
                     for row in doc.get("rows", [])),
     load_sweep_figures),
    ("fleet_scaleout",
     lambda doc: any("middleware_count" in row.get("params", {})
                     for row in doc.get("rows", [])),
     fleet_scaleout_figures),
    ("availability",
     lambda doc: any(row.get("faults") for row in doc.get("rows", [])),
     availability_figures),
)


def build_figures(document: Dict[str, Any]) -> List[Figure]:
    """All figures the applicable builders derive from ``document``."""
    figures: List[Figure] = []
    for _name, applies, builder in FIGURE_BUILDERS:
        if applies(document):
            figures.extend(builder(document))
    if not figures:
        raise ValueError(
            "no figure builder applies to this document; expected a "
            "`run` document of an open-system, fault, or fleet scenario, "
            "or a `chaos` report")
    return figures


# ------------------------------------------------------------------ rendering
#: Fixed categorical palette (validated colorblind-safe set, light mode) and
#: the stable system -> slot assignment: a system keeps its color across every
#: figure and filter, never its rank in one sweep.
_PALETTE = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100", "#e87ba4",
            "#008300", "#4a3aa7", "#e34948")
_SYSTEM_SLOTS = {"geotp": 0, "ssp": 1, "scalardb_plus": 2, "ssp_local": 3,
                 "scalardb": 4, "quro": 5, "chiller": 6, "yugabyte": 7}
#: Status colors (reserved; never used for plain series).
_STATUS_GOOD, _STATUS_BAD, _STATUS_NEUTRAL = "#0ca30c", "#e34948", "#f0efec"
_INK_PRIMARY, _INK_SECONDARY, _SURFACE = "#0b0b0b", "#52514e", "#fcfcfb"
#: Heatmap cell value -> (fill, legend label), in legend order.
_STATUS_FILLS = {1.0: (_STATUS_GOOD, "passed"),
                 0.5: (_STATUS_NEUTRAL, "skipped"), 0.0: (_STATUS_BAD, "failed")}
#: Line/timeline canvas and plot area (px).
_WIDTH, _HEIGHT, _LEFT, _TOP, _PLOT_W, _PLOT_H = 640, 400, 64, 40, 448, 312


def _series_color(series_value: Any, fallback_index: int) -> str:
    slot = _SYSTEM_SLOTS.get(str(series_value), fallback_index)
    return _PALETTE[slot % len(_PALETTE)]


def _el(tag: str, text: Any = None, **attrs: Any) -> str:
    """One SVG element: float attributes at one decimal, ``_`` named ``-``,
    text XML-escaped."""
    fields = "".join(
        f' {name.replace("_", "-")}="'
        f'{f"{value:.1f}" if isinstance(value, float) else value}"'
        for name, value in attrs.items())
    if text is None:
        return f"<{tag}{fields}/>"
    text = str(text).replace("&", "&amp;").replace("<", "&lt;")
    return f"<{tag}{fields}>{text.replace('>', '&gt;')}</{tag}>"


def _legend(x: float, entries) -> List[str]:
    """A swatch and a label per ``(color, label)`` entry, stacked downwards."""
    return [element for i, (color, label) in enumerate(entries) for element in (
        _el("rect", x=x, y=_TOP + 14 * i, width=10, height=10, fill=color),
        _el("text", label, x=x + 14, y=_TOP + 14 * i + 9, fill=_INK_PRIMARY))]


def _xy_body(figure: Figure) -> List[str]:
    """Line and timeline figures: one polyline with markers per series."""
    xs = figure.columns[figure.x]
    if figure.kind == "timeline":
        series = [(name, color, list(zip(xs, figure.columns[name])))
                  for name, color in (("committed", _PALETTE[0]),
                                      ("aborted", _STATUS_BAD))]
    else:
        ys = figure.columns[figure.y]
        series = [(value, _series_color(value, i),
                   [(xs[row], ys[row]) for row in figure.rows_for(value)])
                  for i, value in enumerate(figure.series_values())]
    windows = figure.annotations.get("windows", [])
    knees = figure.annotations.get("knees", {}) \
        if figure.y == "goodput_tps" else {}
    all_x = xs + [w[edge] for w in windows for edge in ("start_s", "end_s")]
    all_y = [y for _, _, points in series for _, y in points]
    x_lo, x_hi, y_lo, y_hi = min(all_x), max(all_x), min(0, *all_y), max(all_y)
    x_span, y_span = (x_hi - x_lo) or 1.0, (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return _LEFT + (x - x_lo) / x_span * _PLOT_W

    def sy(y: float) -> float:
        return _TOP + (y_hi - y) / y_span * _PLOT_H

    out = [_el("path", d=f"M{_LEFT} {_TOP}v{_PLOT_H}h{_PLOT_W}", fill="none",
               stroke=_INK_SECONDARY),
           _el("text", figure.y_label, x=_LEFT, y=_TOP - 8, text_anchor="middle"),
           _el("text", figure.x_label, x=_LEFT + _PLOT_W / 2, y=_HEIGHT - 10,
               text_anchor="middle")]
    for k in range(5):
        tx, ty = x_lo + k * x_span / 4, y_lo + k * y_span / 4
        out += [_el("text", f"{ty:.4g}", x=_LEFT - 6, y=sy(ty) + 3,
                    text_anchor="end"),
                _el("text", f"{tx:.4g}", x=sx(tx), y=_TOP + _PLOT_H + 14,
                    text_anchor="middle")]
    for w in windows:
        start, end = sx(w["start_s"]), sx(w["end_s"])
        out += [_el("rect", x=start, y=_TOP, width=end - start, height=_PLOT_H,
                    fill=_INK_SECONDARY, fill_opacity="0.15"),
                _el("text", w["label"], x=start + 2, y=_TOP + 10)]
    for value, color, points in series:
        out.append(_el("polyline", fill="none", stroke=color, stroke_width=2,
                       points=" ".join(f"{sx(x):.1f},{sy(y):.1f}"
                                       for x, y in points)))
        out += [_el("circle", cx=sx(x), cy=sy(y), r=3, fill=color)
                for x, y in points]
        if value in knees:
            out.append(_el("circle", cx=sx(knees[value]["rate_tps"]),
                           cy=sy(knees[value]["goodput_tps"]), r=7,
                           fill="none", stroke=color, stroke_width=2))
    return out + _legend(_LEFT + _PLOT_W + 12,
                         [(color, value) for value, color, _ in series])


def _heatmap_body(figure: Figure) -> Tuple[int, int, List[str]]:
    """The scenario x invariant grid: one status-colored 24x12 px cell each."""
    rows, cols = figure.annotations["rows"], figure.annotations["cols"]
    status = dict(zip(zip(figure.columns["scenario"],
                          figure.columns["invariant"]), figure.columns["status"]))
    left, bottom = 8 + 5 * max(map(len, rows)), _TOP + 12 * len(rows)
    right = left + 24 * len(cols)
    out = _legend(right + 12, _STATUS_FILLS.values())
    for r, row in enumerate(rows):
        out.append(_el("text", row, x=left - 4, y=_TOP + 12 * r + 9,
                       text_anchor="end"))
        out += [_el("rect", x=left + 24 * c, y=_TOP + 12 * r, width=24,
                    height=12, fill=_STATUS_FILLS[status[row, col]][0],
                    stroke=_SURFACE) for c, col in enumerate(cols)]
    for c, col in enumerate(cols):
        x = left + 24 * c + 12
        out.append(_el("text", col, x=x, y=bottom + 6,
                       transform=f"rotate(45 {x} {bottom + 6})"))
    return right + 96, bottom + 8 + 5 * max(map(len, cols)), out


def render_svg(figure: Figure) -> str:
    """One checked figure as a standalone SVG document whose bytes depend
    only on the figure: fixed-precision coordinates, drawing in column and
    annotation order, and XML-escaped labels."""
    width, height, body = _heatmap_body(figure) if figure.kind == "heatmap" \
        else (_WIDTH, _HEIGHT, _xy_body(figure))
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="8" '
        f'fill="{_INK_SECONDARY}">', _el("title", figure.title),
        _el("rect", width=width, height=height, fill=_SURFACE),
        _el("text", figure.title, x=width / 2, y=22, font_size=12,
            fill=_INK_PRIMARY, text_anchor="middle"), *body, "</svg>", ""])


# ------------------------------------------------------------------- emission
def emit_figures(figures: Sequence[Figure], output_dir: str,
                 render: bool = True) -> Dict[str, Any]:
    """Check every figure; write artifacts only for the ones that pass.

    Each passing figure gets its backing data as ``<name>.json`` and, unless
    ``render`` is false, its drawing as ``<name>.svg``.  A failing figure gets
    *no* files; its failure messages are collected in the returned report's
    ``violations`` list.  Callers (the CLI, CI) treat a nonempty
    ``violations`` as a hard failure.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report: Dict[str, Any] = {"figures": [], "violations": []}
    for figure in figures:
        failures = check_figure(figure)
        if failures:
            report["violations"].append({"figure": figure.name,
                                         "failures": failures})
            continue
        artifacts = {"json": json.dumps(figure.to_dict(), indent=2) + "\n"}
        if render:
            artifacts["svg"] = render_svg(figure)
        files = []
        for suffix, text in artifacts.items():
            path = out / f"{figure.name}.{suffix}"
            path.write_text(text, encoding="utf-8")
            files.append(str(path))
        report["figures"].append({"figure": figure.name, "checks":
                                  list(figure.checks), "files": files})
    return report
