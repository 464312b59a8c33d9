"""Command-line entry point for the scenario registry.

``python -m repro.bench list`` shows every registered scenario with its axes
(``list --systems`` / ``list --workloads`` print the plugin registries
instead, including aliases and capability flags);
``python -m repro.bench run NAME`` expands the scenario into sweep points,
executes them (optionally across a process pool) and emits a JSON document
with one row per point.  Examples::

    PYTHONPATH=src python -m repro.bench list
    PYTHONPATH=src python -m repro.bench list --systems --workloads
    PYTHONPATH=src python -m repro.bench run smoke --workers 2
    PYTHONPATH=src python -m repro.bench run fig5_overall \\
        --duration-ms 5000 --terminals 16 --workers 4 --output fig5.json
    PYTHONPATH=src python -m repro.bench run load_sweep --workers 2 \\
        --rate-tps 400 --output knee.json
    PYTHONPATH=src python -m repro.bench run load_sweep --workers 2 \\
        --cache-dir .repro_cache --resume --output load.json
    PYTHONPATH=src python -m repro.bench figures load_sweep --workers 2 \\
        --output-dir figures/
    PYTHONPATH=src python -m repro.bench figures chaos \\
        --input chaos_report.json --output-dir figures/
    PYTHONPATH=src python -m repro.bench run chaos --workers 2 \\
        --output chaos_report.json

``run --output FILE`` also prints the sweep's table (``report.sweep_table``, one
row per point) on stderr.  Every ``run`` document carries a ``violations``
list of the robustness invariants (``repro.recovery.invariants``) that failed
on any point, and ``run`` exits 1 when that list is not empty.
``run --cache-dir DIR`` persists every executed sweep point into a resumable
result cache; adding ``--resume`` consults the cache first, so a killed sweep
re-run computes only the missing points and assembles a byte-identical
document (hits/misses/invalidations are reported in the JSON's ``cache``
section).  ``figures NAME`` runs (or loads, with ``--input``) a scenario
document and renders the paper-shaped figures from it — every figure must
pass its registered sanity checks or nothing is emitted for it and the
command fails.  Each checked figure is written as ``<name>.json`` (its data)
and ``<name>.svg`` (its drawing); ``--data-only`` writes the JSONs alone.

Host-time measurement lives outside this CLI, in ``perf_ledger/`` (see its
README).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.bench.cache import DEFAULT_CACHE_DIR, SweepCache
from repro.bench.parallel import SweepRunner, SweepResult
from repro.bench.report import (format_table, registry_markdown,
                                sweep_table, system_capabilities)
from repro.bench.scenarios import SCENARIOS, get_scenario, scenario_names
from repro.plugins import system_plugins, workload_plugins


def _add_sweep_flags(parser: argparse.ArgumentParser,
                     positional: bool = True) -> None:
    """The flags shared by ``run`` and ``figures``: overrides + cache."""
    if positional:
        parser.add_argument("scenario",
                            help="registered scenario name (see `list`)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size (default: REPRO_BENCH_WORKERS "
                             "or serial)")
    parser.add_argument("--duration-ms", type=float, default=None,
                        help="override the simulated duration of every point")
    parser.add_argument("--warmup-ms", type=float, default=None,
                        help="override the warm-up window of every point")
    parser.add_argument("--terminals", type=int, default=None,
                        help="override the client terminal count of every point")
    parser.add_argument("--rate-tps", type=float, default=None,
                        help="override the offered arrival rate of every point "
                             "(open-system scenarios only; collapses the "
                             "rate_tps axis of load_sweep)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the base RNG seed of every point")
    parser.add_argument("--cache-dir", default=None,
                        help="persist every executed point into this sweep "
                             "cache (created if missing); off by default")
    parser.add_argument("--resume", action="store_true",
                        help="consult the cache before running: only missing "
                             "points are simulated (implies --cache-dir "
                             f"{DEFAULT_CACHE_DIR} unless given)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="List and run the registered experiment scenarios.")
    commands = parser.add_subparsers(dest="command", required=True)

    lister = commands.add_parser(
        "list", help="list registered scenarios (default), systems or workloads")
    lister.add_argument("--systems", action="store_true",
                        help="list the system registry (aliases + capabilities)")
    lister.add_argument("--workloads", action="store_true",
                        help="list the workload registry (aliases + descriptions)")
    lister.add_argument("--markdown", action="store_true",
                        help="emit the scenario/system/workload tables as "
                             "markdown (the EXPERIMENTS.md registry block)")

    run = commands.add_parser("run", help="run one scenario and emit JSON")
    _add_sweep_flags(run)
    run.add_argument("--output", default=None,
                     help="write the JSON document here instead of stdout")

    figures = commands.add_parser(
        "figures", help="run (or load) a scenario document and render the "
                        "sanity-checked figures derived from it")
    figures.add_argument("scenario",
                         help="registered scenario name to run, or any label "
                              "when --input supplies the document")
    figures.add_argument("--input", default=None,
                         help="JSON document from a previous `run --output` "
                              "instead of running the scenario")
    figures.add_argument("--output-dir", default="figures",
                         help="directory for the figure artifacts "
                              "(default: figures/)")
    figures.add_argument("--data-only", action="store_true",
                         help="write only the per-figure data JSONs, not "
                              "the SVG drawings")
    _add_sweep_flags(figures, positional=False)
    return parser


def _list_scenarios() -> int:
    width = max(len(name) for name in SCENARIOS)
    for name in scenario_names():
        scenario = SCENARIOS[name]
        axes = " x ".join(f"{axis.name}[{len(axis.values)}]"
                          for axis in scenario.axes)
        print(f"{name:<{width}}  {axes:<40}  {scenario.description}")
    return 0


def _list_registry(plugins, capabilities) -> int:
    width = max(len(plugin.name) for plugin in plugins)
    for plugin in plugins:
        aliases = ",".join(plugin.aliases) or "-"
        extra = f"  {capabilities(plugin):<24}" if capabilities else ""
        print(f"{plugin.name:<{width}}  aliases: {aliases:<24}{extra}  "
              f"{plugin.description}")
    return 0


def _run_list(args: argparse.Namespace) -> int:
    if args.markdown:
        # The committed EXPERIMENTS.md registry block: always all three
        # tables, so regenerate-and-diff has a single canonical form.
        print(registry_markdown(), end="")
        return 0
    if not args.systems and not args.workloads:
        return _list_scenarios()
    status = 0
    if args.systems:
        status |= _list_registry(system_plugins(), system_capabilities)
    if args.workloads:
        status |= _list_registry(workload_plugins(), None)
    return status


def _result_document(result: SweepResult,
                     cache: Optional[SweepCache] = None) -> dict:
    document = {
        "scenario": result.sweep_name,
        "workers": result.workers,
        "points": len(result),
        "wall_clock_s": round(result.wall_clock_s, 3),
        "rows": [
            {"params": point.params,
             "wall_clock_s": round(point.wall_clock_s, 3),
             # Environment fields (peak_rss_bytes) are wanted in CLI output —
             # the load-sweep CI artifact reads them per point — and the CLI
             # never diffs rows across worker layouts, so including them is
             # safe here (unlike in the deterministic default payload).
             **point.summary.to_dict(include_environment=True)}
            for point in result
        ],
    }
    if cache is not None:
        document["cache"] = cache.stats()
    return document


def _make_cache(args: argparse.Namespace) -> Optional[SweepCache]:
    """The sweep cache the flags ask for, or ``None`` (caching is opt-in)."""
    if args.cache_dir is None and not args.resume:
        return None
    return SweepCache(args.cache_dir or DEFAULT_CACHE_DIR)


def _expand_sweep(args: argparse.Namespace):
    """The overridden sweep of ``args.scenario``."""
    # The rate is not an ExperimentConfig field: it lives on the arrival
    # config (which only open-system scenarios carry — others fail loudly).
    overrides = {"duration_ms": args.duration_ms, "warmup_ms": args.warmup_ms,
                 "terminals": args.terminals, "seed": args.seed,
                 "arrival__rate_tps": args.rate_tps}
    # An override naming one of the scenario's axes (--terminals for
    # fig5_overall, --rate-tps for load_sweep) collapses that axis; one that
    # a scenario recomputes per point (fig11b's duration, admission_knee's
    # rate) makes points() raise instead of being ignored.
    return get_scenario(args.scenario).sweep(**overrides)


def _require_figure_builder(points) -> None:
    """Raise ``build_figures``' "no figure builder applies" before any point
    runs: the builders' own predicates judge a preview of the rows — params
    plus the sections an arrival config / a fault plan will put on them."""
    from repro.bench.figures import FIGURE_BUILDERS, build_figures

    preview = {"rows": [
        {"params": point.params,
         "open_loop": None if point.config.arrival is None else {},
         "faults": point.config.fault_plan is not None}
        for point in points]}
    if not any(applies(preview) for _name, applies, _build in FIGURE_BUILDERS):
        build_figures(preview)


def _execute_scenario(args: argparse.Namespace, for_figures: bool = False):
    """Run ``args.scenario`` with overrides; returns (result, JSON document)."""
    sweep = _expand_sweep(args)
    if for_figures:
        _require_figure_builder(sweep.points())
    cache = _make_cache(args)
    result = SweepRunner(max_workers=args.workers, cache=cache,
                         resume=args.resume).run(sweep)
    return result, _result_document(result, cache=cache)


def _run_scenario(args: argparse.Namespace) -> int:
    """``run NAME``: the scenario's document plus a ``violations`` list of
    every failed robustness invariant, exit 1 when that list is nonempty."""
    from repro.recovery.invariants import violations

    try:
        result, document = _execute_scenario(args)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except (AttributeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    document["violations"] = [
        {"params": row["params"], "violation": message}
        for row in document["rows"]
        for message in violations(row.get("invariants"))]
    text = json.dumps(document, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {document['points']} points to {args.output}",
              file=sys.stderr)
        print(format_table(*sweep_table(result)), file=sys.stderr)
    else:
        print(text)
    for entry in document["violations"]:
        print(f"INVARIANT VIOLATION [{entry['params']}]: "
              f"{entry['violation']}", file=sys.stderr)
    if document["violations"]:
        print(f"{len(document['violations'])} invariant violation(s) across "
              f"{document['points']} points", file=sys.stderr)
        return 1
    return 0


def _run_figures(args: argparse.Namespace) -> int:
    """Derive, check and emit the figures of one scenario document.

    Exit 0 only when every derived figure passed all its sanity checks and
    was written; any violation is printed with the failing check's message
    and fails the command — a broken figure never reaches the artifact dir.
    """
    from repro.bench.figures import build_figures, emit_figures

    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load --input {args.input!r}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        try:
            _result, document = _execute_scenario(args, for_figures=True)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        except (AttributeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        figures = build_figures(document)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = emit_figures(figures, args.output_dir,
                          render=not args.data_only)
    for entry in report["figures"]:
        print(f"figure {entry['figure']}: "
              f"{', '.join(entry['files'])}", file=sys.stderr)
    if report["violations"]:
        for violation in report["violations"]:
            for failure in violation["failures"]:
                print(f"FIGURE CHECK FAILED [{violation['figure']}]: "
                      f"{failure}", file=sys.stderr)
        print(f"{len(report['violations'])} figure(s) failed sanity checks; "
              f"no artifacts were written for them", file=sys.stderr)
        return 1
    print(f"emitted {len(report['figures'])} checked figure(s) to "
          f"{args.output_dir}", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _run_list(args)
    if args.command == "figures":
        return _run_figures(args)
    return _run_scenario(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    sys.exit(main())
