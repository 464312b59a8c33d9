"""Plain-text and markdown reporting: result tables and the registry tables.

Two consumers: ``run --output``, the examples and the paper-claim tests under
``benchmarks/`` print a sweep as the :func:`sweep_table` rows through
:func:`format_table`/:func:`print_table`, and ``python -m repro.bench list
--markdown`` emits the scenario/system/workload registry as markdown via
:func:`registry_markdown` — the same text committed in EXPERIMENTS.md and kept
in sync by ``tests/bench/test_docs_sync.py`` plus the CI drift check.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

if TYPE_CHECKING:
    from repro.bench.parallel import PointResult


def _format_cell(value) -> str:
    if isinstance(value, float):
        # Magnitude, not signed value: -12345.6 needs the compact one-decimal
        # form just as much as 12345.6 does.
        if abs(value) >= 100:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned plain-text table."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print a titled table to stdout."""
    print(f"\n== {title} ==")
    print(format_table(headers, rows))


def sweep_table(result: Iterable["PointResult"],
                extra: Optional[Mapping[str, Callable[[Any], Any]]] = None,
                ) -> Tuple[List[str], List[list]]:
    """One row per sweep point, in point order, as ``(headers, rows)``.

    ``result`` is a ``SweepResult`` (or a ``select()`` slice of one).  The
    columns are the params that vary across it, then throughput, average and
    p99 latency and abort percentage; ``extra`` maps a header to a function of
    the point's summary for the few figure-specific columns (centralized-
    transaction latency, WAN messages per commit, a breakdown phase, ...).
    """
    extra = extra or {}
    points = list(result)
    names = dict.fromkeys(name for point in points for name in point.params)
    varying = [name for name in names
               if any(point.params.get(name) != points[0].params.get(name)
                      for point in points)]
    headers = [*varying, "tput (tps)", "avg latency (ms)", "p99 (ms)",
               "abort (%)", *extra]
    rows = [[*(point.params.get(name) for name in varying),
             *point.summary.summary_row()[1:],
             *(column(point.summary) for column in extra.values())]
            for point in points]
    return headers, rows


# ------------------------------------------------------------------- markdown
def format_markdown_table(headers: Sequence[str],
                          rows: Iterable[Sequence]) -> str:
    """Render a GitHub-flavoured markdown pipe table."""
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        cells = [str(cell).replace("|", "\\|") for cell in row]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def system_capabilities(plugin) -> str:
    """Compact capability-flag summary of one system plugin (``-`` if none)."""
    flags = [flag for flag, enabled in (
        ("agents", plugin.needs_agents),
        ("colocated-ds0", plugin.colocated_with_ds0),
        ("probing", plugin.supports_active_probing),
        (f"ablations[{len(plugin.ablations)}]", bool(plugin.ablations)),
    ) if enabled]
    return ",".join(flags) or "-"


def registry_markdown() -> str:
    """The scenario/system/workload registries as three markdown tables.

    This is the exact text ``python -m repro.bench list --markdown`` prints
    and EXPERIMENTS.md commits between its GENERATED REGISTRY TABLES markers;
    regenerating and diffing the two is how table drift is caught.
    """
    from repro.bench.scenarios import (SCENARIO_FAMILIES, SCENARIOS,
                                       scenario_names)
    from repro.plugins import system_plugins, workload_plugins

    def point_count(scenario) -> int:
        points = 1
        for axis in scenario.axes:
            points *= len(axis.values)
        return points

    # Generated scenario families (hundreds of members) collapse into one
    # summary row each; only family-less scenarios get individual lines.
    scenario_rows = []
    family_totals: dict = {}
    for name in scenario_names():
        scenario = SCENARIOS[name]
        if scenario.family is not None:
            members, points = family_totals.get(scenario.family, (0, 0))
            family_totals[scenario.family] = (members + 1,
                                              points + point_count(scenario))
            continue
        axes = " × ".join(f"{axis.name}[{len(axis.values)}]"
                          for axis in scenario.axes)
        scenario_rows.append((f"`{name}`", axes, point_count(scenario),
                              scenario.description))

    family_rows = [(f"`{family}_*`", members, points,
                    SCENARIO_FAMILIES.get(family, ""))
                   for family, (members, points)
                   in sorted(family_totals.items())]

    system_rows = [(f"`{plugin.name}`", ", ".join(plugin.aliases) or "-",
                    system_capabilities(plugin), plugin.description)
                   for plugin in system_plugins()]
    workload_rows = [(f"`{plugin.name}`", ", ".join(plugin.aliases) or "-",
                      plugin.description)
                     for plugin in workload_plugins()]

    sections = [
        "#### Scenarios\n\n" + format_markdown_table(
            ("scenario", "axes", "points", "description"), scenario_rows),
        "#### Systems\n\n" + format_markdown_table(
            ("system", "aliases", "capabilities", "description"), system_rows),
        "#### Workloads\n\n" + format_markdown_table(
            ("workload", "aliases", "description"), workload_rows),
    ]
    if family_rows:
        sections.insert(1, "#### Generated scenario families\n\n"
                        + format_markdown_table(
                            ("family", "scenarios", "points", "description"),
                            family_rows))
    return "\n\n".join(sections) + "\n"


#: Markers delimiting the committed registry block in EXPERIMENTS.md.
REGISTRY_BLOCK_BEGIN = ("<!-- BEGIN GENERATED REGISTRY TABLES "
                        "(python -m repro.bench list --markdown) -->")
REGISTRY_BLOCK_END = "<!-- END GENERATED REGISTRY TABLES -->"


def extract_registry_block(text: str) -> str:
    """The committed registry tables between the EXPERIMENTS.md markers."""
    try:
        start = text.index(REGISTRY_BLOCK_BEGIN) + len(REGISTRY_BLOCK_BEGIN)
        end = text.index(REGISTRY_BLOCK_END)
    except ValueError:
        raise ValueError("registry-table markers not found") from None
    return text[start:end].strip("\n") + "\n"


def update_registry_block(path: str) -> bool:
    """Rewrite the registry block of ``path`` in place; True if it changed.

    The refresh command after registering a new scenario/system/workload::

        PYTHONPATH=src python -c "from repro.bench.report import \\
            update_registry_block; update_registry_block('EXPERIMENTS.md')"
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    current = extract_registry_block(text)
    fresh = registry_markdown()
    if current == fresh:
        return False
    begin = text.index(REGISTRY_BLOCK_BEGIN) + len(REGISTRY_BLOCK_BEGIN)
    end = text.index(REGISTRY_BLOCK_END)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text[:begin] + "\n" + fresh + text[end:])
    return True
