#!/usr/bin/env python3
"""Self-test of the benchmark itself, at toy scale (under 30 s).

Run it by hand (``python3 perf_ledger/selftest.py``) or with pytest by
explicit path (``python -m pytest perf_ledger/selftest.py``); it is not part
of the tier-1 suite.  It checks that what ``run.py`` emits carries exactly
the metric and workload names ``BENCHMARK.json`` declares, and that a broken
result is counted as a failed operation.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SPEC = run.load_spec()


def protocol_run(workload: str, trace: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         "3", "--seconds", "0.2", "--trace", trace, "--toy"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, entry in result["metrics"].items():
        assert NAME.match(name), name
        assert entry["unit"] == units[name] and entry["unit"]
        assert isinstance(entry["value"], (int, float))


def test_declared_names_are_well_formed_and_match_the_code():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert SPEC["paths"] == [HERE.name]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for layer in layers.LAYERS:
        assert {f"{layer}.self_share", f"{layer}.self_us_per_commit"} <= per_layer
    assert set(layers.COUNTED_FUNCTIONS) <= per_layer
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_layer_map_covers_every_source_file_once():
    assert layers.check_layer_map(wl.SRC_DIR / "repro") == []
    assert layers.layer_of("sim/_kernel/locks.py") == "locks"
    assert layers.layer_of("sim/_kernel/process.py") == "sim_kernel"
    assert layers.layer_of("brand_new_package/module.py") is None
    for spec in sum(layers.COUNTED_FUNCTIONS.values(), []):
        assert ":" in spec


def test_every_workload_emits_exactly_the_declared_end_to_end_metrics():
    for name in wl.WORKLOADS:
        check_result(protocol_run(name, "0"), SPEC["end_to_end"])


def test_traced_runs_emit_exactly_the_declared_per_layer_metrics():
    # One simulation workload and the pipeline: the other two share the
    # first one's code path and would double the run time.
    for name in ("ycsb_open_overload", "sweep_pipeline"):
        check_result(protocol_run(name, "1"), SPEC["per_layer"])
        trace = json.loads((wl.OUT_DIR / f"trace_{name}.json").read_text())
        assert len(trace["top_layers"]) == 3
        assert set(trace["top_functions"]) == set(layers.LAYERS)


def _summary(system: str, status: str = "passed") -> SimpleNamespace:
    return SimpleNamespace(
        system=system, committed=100, aborted=5, events_processed=4000,
        throughput_tps=50.0, p99_latency_ms=900.0, abort_reasons={"lock_timeout": 5},
        invariants={"books_balance": {"status": status, "detail": "off by one"}})


def _measured(repeats: list) -> dict:
    return {"repeats": [r.to_dict() for r in repeats], "ensemble": 2,
            "peak_rss_mb": 40.0, "engine": "pure"}


def _healthy_repeat(seed: int = 1) -> wl.Repeat:
    repeat = wl.Repeat(seed=seed, wall_s=1.0, resume_s=0.1)
    repeat.finish([_summary("ssp"), _summary("geotp")])
    return repeat


def test_corrupted_digest_and_failed_invariant_raise_failed_share():
    workload = wl.WORKLOADS["ycsb_closed"]
    healthy = run.summarise(workload, _measured(
        [_healthy_repeat(), _healthy_repeat()]), [0.2, 0.2])
    assert healthy["failed_share"] == 0 and healthy["attempted"] == 4

    corrupted = _healthy_repeat()
    reference = copy.deepcopy(_healthy_repeat().digests)
    reference[1][0] += 1                      # one more commit than replayed
    corrupted.check_against(reference)
    result = run.summarise(workload, _measured([_healthy_repeat(), corrupted]),
                           [0.2, 0.2])
    assert result["failed"] == 1 and result["failed_share"] == 0.25
    assert "digest" in result["failures"][0]

    broken = wl.Repeat(seed=1, wall_s=1.0)
    broken.finish([_summary("ssp"), _summary("geotp", status="failed")])
    result = run.summarise(workload, _measured([broken]), [0.2])
    assert result["failed"] == 1 and result["failed_share"] == 0.5
    assert not result["metrics"], "a failed repeat must not feed any metric"


def test_compare_gives_a_verdict_per_workload_and_metric():
    def document(wall: float, spread: float = 0.01, engine: str = "pure") -> dict:
        entry = {"value": wall, "q1": wall * (1 - spread),
                 "q3": wall * (1 + spread), "n": 9}
        return {"run": {"engine": engine}, "workloads": {
            "ycsb_closed": {"end_to_end": {"metrics": {"wall_s": entry}}}}}
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    verdict = lambda a, b: run.compare_documents(a, b, SPEC)[0]["verdict"]  # noqa: E731
    assert verdict(document(2.0), document(2.0)) == "ok"
    assert verdict(document(2.0), document(2.0 * (1 + 2 * bound))) == "worse"
    assert verdict(document(2.0), document(2.0, spread=bound)) == "unresolved"
    try:
        run.compare_documents(document(2.0), document(2.0, engine="compiled"), SPEC)
    except ValueError:
        pass
    else:
        raise AssertionError("mixed engines must be refused")


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} self-tests passed")
