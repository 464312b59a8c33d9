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
    PYTHONPATH=src python -m repro.bench chaos --sample 10 --workers 2 \\
        --output chaos_report.json

``run --output FILE`` also prints the sweep's table (``report.sweep_table``, one
row per point) on stderr.
``run --cache-dir DIR`` persists every executed sweep point into a resumable
result cache; adding ``--resume`` consults the cache first, so a killed sweep
re-run computes only the missing points and assembles a byte-identical
document (hits/misses/invalidations are reported in the JSON's ``cache``
section).  ``figures NAME`` runs (or loads, with ``--input``) a scenario
document and renders the paper-shaped figures from it — every figure must
pass its registered sanity checks or nothing is emitted for it and the
command fails.  PNG rendering needs matplotlib (the ``figures`` optional
dependency); without it the checked data JSONs are still written.

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
                         help="JSON document from a previous `run`/`chaos` "
                              "--output instead of running the scenario")
    figures.add_argument("--output-dir", default="figures",
                         help="directory for the figure artifacts "
                              "(default: figures/)")
    figures.add_argument("--data-only", action="store_true",
                         help="write only the per-figure data JSONs, even "
                              "when matplotlib is available")
    _add_sweep_flags(figures, positional=False)

    chaos = commands.add_parser(
        "chaos", help="run a seeded sample of generated chaos_* scenarios at "
                      "smoke scale and fail on any robustness-invariant "
                      "violation")
    chaos.add_argument("--sample", type=int, default=10,
                       help="number of chaos scenarios to sample (default 10)")
    chaos.add_argument("--sample-seed", type=int, default=0,
                       help="seed of the scenario sample (same seed = same "
                            "scenarios, across machines and sessions)")
    chaos.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default: REPRO_BENCH_WORKERS "
                            "or serial)")
    chaos.add_argument("--duration-ms", type=float, default=3_000.0,
                       help="simulated duration per point (default 3000)")
    chaos.add_argument("--warmup-ms", type=float, default=600.0,
                       help="warm-up window per point (default 600)")
    chaos.add_argument("--terminals", type=int, default=4,
                       help="closed-loop terminal count per point (default 4)")
    chaos.add_argument("--output", default=None,
                       help="write the invariant report JSON here instead of "
                            "stdout")
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
    """The overridden sweep of ``args.scenario`` and its expanded points."""
    scenario = get_scenario(args.scenario)
    overrides = {"duration_ms": args.duration_ms, "warmup_ms": args.warmup_ms,
                 "terminals": args.terminals, "seed": args.seed,
                 "rate_tps": args.rate_tps}
    # An override naming one of the scenario's axes (e.g. --terminals for
    # fig5_overall, --rate-tps for load_sweep) collapses that axis to the
    # single given value; otherwise the axis values would silently win over
    # the base-config override.
    axis_names = {axis.name for axis in scenario.axes}
    axes = {name: (value,) for name, value in overrides.items()
            if value is not None and name in axis_names}
    base = {name: value for name, value in overrides.items()
            if name not in axis_names}
    if base.get("rate_tps") is not None:
        # Not an ExperimentConfig field: the rate lives on the arrival config
        # (which only open-system scenarios carry — others fail loudly below).
        base["arrival__rate_tps"] = base.pop("rate_tps")
    else:
        base.pop("rate_tps", None)
    sweep = scenario.sweep(axes=axes, **base)
    # Some scenarios derive these fields per point (fig11b computes the
    # duration from its phase schedule, fig11a derives the seed from the
    # repeat axis); tell the user instead of silently ignoring the flag.
    points = sweep.points()
    for name, value in base.items():
        if value is None or "__" in name:  # dotted overrides: no 1:1 field
            continue
        if any(getattr(point.config, name) != value for point in points):
            flag = "--" + name.replace("_", "-")
            print(f"note: {flag} is recomputed per point by scenario "
                  f"{scenario.name!r} and was ignored for some points",
                  file=sys.stderr)
    return sweep, points


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
    sweep, points = _expand_sweep(args)
    if for_figures:
        _require_figure_builder(points)
    cache = _make_cache(args)
    result = SweepRunner(max_workers=args.workers, cache=cache,
                         resume=args.resume).run(sweep)
    return result, _result_document(result, cache=cache)


def _run_scenario(args: argparse.Namespace) -> int:
    try:
        result, document = _execute_scenario(args)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except (AttributeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(document, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {document['points']} points to {args.output}",
              file=sys.stderr)
        print(format_table(*sweep_table(result)), file=sys.stderr)
    else:
        print(text)
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
    if not report["rendered"] and not args.data_only:
        print("note: matplotlib is not installed (pip install "
              "'.[figures]'); wrote data JSONs only", file=sys.stderr)
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


def _run_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos smoke: sample, run, judge by the robustness invariants.

    Exit 0 when every applicable invariant on every point passed; exit 1 with
    a per-violation listing otherwise.  The JSON document (``--output``) is
    the CI artifact: one entry per point with its params, headline numbers
    and full invariant report.
    """
    from repro.recovery.chaos import sample_chaos_scenarios
    from repro.recovery.invariants import violations as invariant_violations

    names = sample_chaos_scenarios(args.sample, seed=args.sample_seed)
    if not names:
        print("error: no chaos scenarios registered", file=sys.stderr)
        return 2
    runner = SweepRunner(max_workers=args.workers)
    scenarios = []
    all_violations: List[dict] = []
    points_run = 0
    for name in names:
        sweep = get_scenario(name).sweep(
            duration_ms=args.duration_ms, warmup_ms=args.warmup_ms,
            terminals=args.terminals,
            # Shrink the modelled tables with the run so smoke points stay
            # cheap; chaos bases all carry a YCSB config even when another
            # workload axis value is active (harmless there).
            ycsb__records_per_node=1_000, ycsb__preload_rows_per_node=200)
        result = runner.run(sweep)
        points_run += len(result)
        rows = []
        for point in result:
            summary = point.summary
            failed = invariant_violations(summary.invariants)
            rows.append({
                "params": point.params,
                "committed": summary.committed,
                "aborted": summary.aborted,
                "throughput_tps": round(summary.throughput_tps, 2),
                "invariants": summary.invariants,
            })
            for message in failed:
                all_violations.append({"scenario": name,
                                       "params": point.params,
                                       "violation": message})
        scenarios.append({"scenario": name, "points": rows})
    document = {
        "sample": args.sample,
        "sample_seed": args.sample_seed,
        "scenarios_run": names,
        "points_run": points_run,
        "violations": all_violations,
        "results": scenarios,
    }
    text = json.dumps(document, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {points_run} points ({len(names)} scenarios) to "
              f"{args.output}", file=sys.stderr)
    else:
        print(text)
    if all_violations:
        for entry in all_violations:
            print(f"INVARIANT VIOLATION [{entry['scenario']} "
                  f"{entry['params']}]: {entry['violation']}", file=sys.stderr)
        print(f"{len(all_violations)} invariant violation(s) across "
              f"{points_run} chaos points", file=sys.stderr)
        return 1
    print(f"all robustness invariants held across {points_run} chaos points",
          file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _run_list(args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "figures":
        return _run_figures(args)
    return _run_scenario(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    sys.exit(main())
