#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

Two ways to run it (see README.md):

* the driver protocol,
  ``python3 perf_ledger/run.py --workload W --seed N --seconds S --trace 0|1``,
  measures one workload and prints, as the last line of standard output, one
  JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
  end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``);
* the ledger, ``python3 perf_ledger/run.py [--seed N] [--workload W] [--trace]
  [--sets 2] [--out FILE]``, runs every workload one after another, prints
  every metric by name with its unit and writes the whole document;
  ``--compare A.json B.json`` compares two such documents.

Every job runs in a fresh child process (``worker.py``), never two at once,
with ``REPRO_ENGINE=pure`` and ``PYTHONHASHSEED=0`` pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import workloads as wl
from proc import run_process

SPEC_PATH = wl.REPO_DIR / "BENCHMARK.json"
#: Fresh interpreter launches timed for ``setup_s`` (after one discarded).
SETUP_LAUNCHES = 9
#: No single child may run longer than this.
CHILD_TIMEOUT_S = 170.0


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def child_env(engine: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.update(REPRO_ENGINE=engine, PYTHONHASHSEED="0", PYTHONPATH=str(wl.SRC_DIR))
    # Users launch with a warm bytecode cache; without one every launch would
    # time the compiler instead of the program's imports.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(mode: str, engine: str, *args: str) -> Tuple[Dict[str, Any], float]:
    """Run one ``worker.py`` job in a fresh interpreter.

    Returns its JSON result (the last line of its stdout) and the wall seconds
    of the whole launch.
    """
    command = [sys.executable, str(wl.LEDGER_DIR / "worker.py"), mode, *args]
    code, wall, stdout, stderr = run_process(
        command, child_env(engine), CHILD_TIMEOUT_S, capture_stdout=True)
    if code != 0:
        raise RuntimeError(f"worker {mode} {' '.join(args)} exited {code}:\n"
                           f"{stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1]), wall


# ----------------------------------------------------------------- statistics
def stats_of(values: Sequence[float], centre=statistics.median) -> Dict[str, Any]:
    """Centre (the median unless told otherwise), quartiles and count of the
    samples behind one metric."""
    values = list(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": centre(values), "q1": q1, "q3": q3, "n": len(values)}


# ----------------------------------------------------------------- end to end
def measure_end_to_end(workload: wl.Workload, seed: int, seconds: float,
                       engine: str, toy: bool) -> Dict[str, Any]:
    """All end-to-end metrics of one workload, tracing off."""
    common = ["--workload", workload.name, "--seed", str(seed)]
    if toy:
        common.append("--toy")
    launches: List[float] = []
    if workload.kind == "sim":
        # One discarded launch first: it may have to write the .pyc files.
        launch_count = 2 if toy else SETUP_LAUNCHES
        launches = [run_worker("setup", engine, *common)[1]
                    for _ in range(launch_count + 1)][1:]
    measured, _wall = run_worker("measure", engine, *common,
                                 "--seconds", str(seconds))
    return summarise(workload, measured, launches)


def summarise(workload: wl.Workload, measured: Dict[str, Any],
              launches: List[float]) -> Dict[str, Any]:
    """Fold the measuring child's repeats into metrics and the failure count.

    An operation is one point of one timed repeat; repeats with a failed
    point contribute to ``failed`` and to no metric.
    """
    repeats = measured["repeats"]
    ensemble = measured["ensemble"]
    attempted = sum(r["points"] for r in repeats)
    failures = [f"repeat {index} point {point}: {reason}"
                for index, r in enumerate(repeats)
                for point, reasons in enumerate(r["failures"])
                for reason in reasons]
    failed = sum(1 for r in repeats for reasons in r["failures"] if reasons)
    good = [r for r in repeats if not any(r["failures"])]
    metrics: Dict[str, Dict[str, Any]] = {}
    if good:
        metrics["wall_s"] = stats_of([r["wall_s"] for r in good])
        metrics["committed_per_host_s"] = stats_of(
            [r["committed"] / r["wall_s"] for r in good])
        if workload.kind == "sweep":
            launches = [r["resume_s"] for r in good]
        metrics["setup_s"] = stats_of(launches)
        metrics["peak_rss_mb"] = stats_of([measured["peak_rss_mb"]])
        # Simulated results: exactly the first `ensemble` repeats, one per
        # sub-seed, however many more the host had time for.  They carry no
        # host noise, so the mean (less seed-to-seed scatter than the median)
        # is the centre.
        first = [r for r in repeats[:ensemble] if not any(r["failures"])]
        for name in wl.SIM_METRICS:
            if first:
                metrics[name] = stats_of([r["sim"][name] for r in first],
                                         centre=statistics.fmean)
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "failures": failures, "repeats": len(repeats), "ensemble": ensemble,
        "sub_seeds": [r["seed"] for r in repeats[:ensemble]],
        "digests": [r["digests"] for r in repeats[:ensemble]],
        "engine": measured["engine"],
        "note": "open-loop arrivals are scheduled on the simulated clock, so "
                "generator lateness is zero by construction"
                if workload.params.get("loop") == "open" else "",
    }


# ------------------------------------------------------------------ per layer
def measure_layers(workload: wl.Workload, seed: int, engine: str, toy: bool,
                   strict_layers: bool) -> Dict[str, Any]:
    """The traced pass of one workload; also writes ``out/trace_<name>.json``."""
    args = ["--workload", workload.name, "--seed", str(seed)]
    if toy:
        args.append("--toy")
    if strict_layers:
        args.append("--strict-layers")
    traced, _wall = run_worker("trace", engine, *args)
    wl.OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = wl.OUT_DIR / f"trace_{workload.name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": seed, **traced}, handle,
                  indent=1)
    traced["trace_file"] = str(path.relative_to(wl.REPO_DIR))
    return traced


# -------------------------------------------------------------------- hygiene
def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.REPO_DIR,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def hygiene(engine: str, seed: int, toy: bool) -> Dict[str, Any]:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > nproc:
        print(f"warning: 1-min load average {load:.2f} exceeds nproc {nproc}; "
              f"host-time metrics will be noisy", file=sys.stderr)
    return {"python": platform.python_version(), "nproc": nproc,
            "engine": engine, "seed": seed, "git_commit": git_commit(),
            "load_average_1m": load, "toy": toy}


# ------------------------------------------------------------------- printing
def print_metrics(title: str, units: Dict[str, str], metrics: Dict[str, Any],
                  null_reasons: Optional[Dict[str, str]] = None) -> None:
    print(title)
    for name, entry in metrics.items():
        unit = units.get(name, "")
        if isinstance(entry, dict):
            print(f"  {name:<40} {entry['value']:>14.6g} {unit:<6} "
                  f"q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n {entry['n']}")
        elif entry is None:
            reason = (null_reasons or {}).get(name, "no reason recorded")
            print(f"  {name:<40} {'null':>14} {unit:<6} ({reason})")
        else:
            print(f"  {name:<40} {entry:>14.6g} {unit}")


def units_of(spec: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------- the ledger
def run_set(names: List[str], args: argparse.Namespace, spec: Dict[str, Any],
            seconds: float) -> Dict[str, Any]:
    """One complete set: every selected workload, one after another."""
    units = units_of(spec)
    document: Dict[str, Any] = {
        "kind": "perf-ledger", "run": hygiene(args.engine, args.seed, args.toy),
        "run_seconds": seconds, "workloads": {}}
    for name in names:
        workload = wl.WORKLOADS[name]
        entry: Dict[str, Any] = {"why": workload.why,
                                 "params": workload.scaled(args.toy)}
        if args.trace in ("0", "both"):
            entry["end_to_end"] = measure_end_to_end(
                workload, args.seed, seconds, args.engine, args.toy)
            print_metrics(f"\n{name}: end to end (tracing off, "
                          f"{entry['end_to_end']['repeats']} timed repeats)",
                          units, entry["end_to_end"]["metrics"])
            print(f"  {'failed_share':<40} "
                  f"{entry['end_to_end']['failed_share']:>14.6g} "
                  f"({entry['end_to_end']['failed']} of "
                  f"{entry['end_to_end']['attempted']} operations)")
            for failure in entry["end_to_end"]["failures"][:10]:
                print(f"  FAILED {failure}")
            if entry["end_to_end"]["note"]:
                print(f"  note: {entry['end_to_end']['note']}")
        if args.trace in ("1", "both"):
            entry["per_layer"] = measure_layers(
                workload, args.seed, args.engine, args.toy, strict_layers=True)
            print_metrics(f"\n{name}: per layer (traced run; top layers by "
                          f"self_us_per_commit: "
                          f"{', '.join(entry['per_layer']['top_layers'])})",
                          units, entry["per_layer"]["metrics"],
                          entry["per_layer"]["null_reasons"])
            for line in entry["per_layer"]["warnings"] + entry["per_layer"]["problems"]:
                print(f"  warning: {line}")
            print(f"  trace written to {entry['per_layer']['trace_file']}")
        document["workloads"][name] = entry
    return document


# -------------------------------------------------------------------- compare
def compare_documents(a: Dict[str, Any], b: Dict[str, Any],
                      spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload x end-to-end metric; ratio is B / A."""
    if a["run"]["engine"] != b["run"]["engine"]:
        raise ValueError(f"refusing to compare engine {a['run']['engine']!r} "
                         f"with {b['run']['engine']!r}")
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        side_a = a["workloads"][name].get("end_to_end", {}).get("metrics", {})
        side_b = b["workloads"][name].get("end_to_end", {}).get("metrics", {})
        for metric in spec["end_to_end"]:
            ma, mb = side_a.get(metric["name"]), side_b.get(metric["name"])
            if ma is None or mb is None:
                continue
            base = ma["value"]
            ratio = mb["value"] / base if base else float("inf")
            worse_by = (ratio - 1.0) if metric["better"] == "lower" else (1.0 - ratio)
            # Identical samples (simulated results of one seed and program)
            # are resolved however far apart the ensemble's sub-seeds lie.
            spread = 0.0 if ma == mb else max(
                (m["q3"] - m["q1"]) / m["value"] if m["value"] else 0.0
                for m in (ma, mb))
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append({"workload": name, "metric": metric["name"],
                         "unit": metric["unit"], "a": ma, "b": mb,
                         "ratio_b_over_a": ratio, "base": base,
                         "bound": metric["bound"], "spread": spread,
                         "verdict": verdict})
    return rows


def print_comparison(rows: List[Dict[str, Any]]) -> None:
    print(f"{'workload':<20} {'metric':<22} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B/A':>7} {'bound':>6}  verdict")
    for row in rows:
        def cell(m: Dict[str, Any]) -> str:
            return f"{m['value']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}] n={m['n']}"
        print(f"{row['workload']:<20} {row['metric']:<22} {cell(row['a']):<34} "
              f"{cell(row['b']):<34} {row['ratio_b_over_a']:>7.4f} "
              f"{row['bound']:>6.2f}  {row['verdict']}"
              f" (base {row['base']:.5g} {row['unit']})")


def exact_differences(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Simulated digests and exact per-commit counts that differ between two
    documents of the same seed (they must not, for the same program)."""
    out = []
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name, {})
        ea, eb = wa.get("end_to_end"), wb.get("end_to_end")
        if ea and eb and ea["sub_seeds"] == eb["sub_seeds"] \
                and ea["digests"] != eb["digests"]:
            out.append(f"{name}: simulated digests differ")
        la, lb = wa.get("per_layer"), wb.get("per_layer")
        if la and lb:
            for metric in la["exact_metrics"]:
                if la["metrics"].get(metric) != lb["metrics"].get(metric):
                    out.append(f"{name}: {metric} {la['metrics'].get(metric)} "
                               f"!= {lb['metrics'].get(metric)}")
    return out


# --------------------------------------------------------------------- driver
def driver_line(workload: wl.Workload, args: argparse.Namespace,
                spec: Dict[str, Any]) -> Dict[str, Any]:
    """The protocol object of one ``--workload --seed --seconds --trace`` run."""
    if args.trace == "1":
        # Never strict here: a PR that adds a module must not fail the
        # benchmark it is not allowed to edit; unmapped files fold into
        # ``shared`` with a warning.
        traced = measure_layers(workload, args.seed, args.engine, args.toy,
                                strict_layers=False)
        for line in traced["warnings"] + traced["problems"]:
            print(f"warning: {line}", file=sys.stderr)
        metrics = {m["name"]: {"value": traced["metrics"].get(m["name"]) or 0.0,
                               "unit": m["unit"]} for m in spec["per_layer"]}
        return {"correct": not traced["problems"], "attempted": 1,
                "failed": 1 if traced["problems"] else 0, "metrics": metrics}
    result = measure_end_to_end(workload, args.seed, args.seconds, args.engine,
                                args.toy)
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    metrics = {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                           "unit": m["unit"]}
               for m in spec["end_to_end"] if m["name"] in result["metrics"]}
    complete = len(metrics) == len(spec["end_to_end"])
    return {"correct": result["failed"] == 0 and complete,
            "attempted": max(result["attempted"], 1), "failed": result["failed"],
            "metrics": metrics}


# ----------------------------------------------------------------------- main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Perf ledger: the repository's benchmark.")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), default=None,
                        help="run only this workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed; simulation sub-seeds derive from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload; giving it selects "
                             "the driver protocol (needs --workload)")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="0: end-to-end metrics, tracing off (default); "
                             "1: per-layer metrics from a traced run; bare "
                             "--trace: both")
    parser.add_argument("--micro", action="store_true",
                        help="run only the per-layer microbenchmarks")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the whole benchmark this many times and "
                             "compare the first set with the last")
    parser.add_argument("--out", default=None, help="write the document here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two documents; measures nothing")
    parser.add_argument("--engine", choices=("pure", "compiled"), default="pure",
                        help="simulation engine of the children (default pure)")
    parser.add_argument("--toy", action="store_true",
                        help="self-test scale: seconds-long, not comparable")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    spec = load_spec()

    if args.compare:
        documents = []
        for path in args.compare:
            with open(path, "r", encoding="utf-8") as handle:
                documents.append(json.load(handle))
        try:
            rows = compare_documents(documents[0], documents[1], spec)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print_comparison(rows)
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0

    if not (wl.SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {wl.SRC_DIR}/repro is missing",
              file=sys.stderr)
        return 2
    if os.environ.get("REPRO_ENGINE", "").strip().lower() == "compiled" \
            and args.engine != "compiled":
        print("error: REPRO_ENGINE=compiled is set; pass --engine compiled to "
              "measure the compiled engine (the document is then tagged and "
              "never compared with a pure one)", file=sys.stderr)
        return 2

    if args.micro:
        result, _wall = run_worker("micro", args.engine)
        print_metrics("microbenchmarks (median of batches, host time per "
                      "operation)", units_of(spec), result["metrics"])
        for line in result["warnings"]:
            print(f"  warning: {line}")
        return 0

    if args.seconds is not None:
        if args.workload is None or args.trace == "both":
            print("error: --seconds needs --workload and --trace 0 or 1",
                  file=sys.stderr)
            return 2
        line = driver_line(wl.WORKLOADS[args.workload], args, spec)
        print(json.dumps(line))
        return 0

    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    seconds = 0.2 if args.toy else float(spec["run_seconds"])
    sets = [run_set(names, args, spec, seconds) for _ in range(max(args.sets, 1))]
    status = 0
    for document in sets:
        for name, entry in document["workloads"].items():
            if entry.get("end_to_end", {}).get("failed") \
                    or entry.get("per_layer", {}).get("problems"):
                status = 1
    document = sets[-1]
    if len(sets) > 1:
        rows = compare_documents(sets[0], sets[-1], spec)
        print(f"\nset 1 (A) against set {len(sets)} (B), same commit and seed")
        print_comparison(rows)
        differences = exact_differences(sets[0], sets[-1])
        for line in differences:
            print(f"NOT IDENTICAL {line}")
        if differences or any(row["verdict"] == "worse" for row in rows):
            status = 1
        document = {"kind": "perf-ledger-sets", "run": sets[-1]["run"],
                    "sets": sets, "comparison": rows,
                    "exact_differences": differences,
                    "workloads": sets[-1]["workloads"]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
        print(f"\nwrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
