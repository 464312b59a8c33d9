"""The layer map: which module of ``src/repro`` belongs to which layer.

Kept as data so a PR that moves or deletes modules edits a table, not code.
A file's layer is the layer of the *longest* prefix that matches its path
relative to ``src/repro``; :func:`check_layer_map` is the self-check that
every file maps to exactly one layer.  Everything outside ``src/repro``
(stdlib, C calls) is ``python_builtins``; the benchmark's own frames are left
out of the shares.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: (path prefix relative to src/repro, layer).  Longest prefix wins.
LAYER_PREFIXES: List[Tuple[str, str]] = [
    ("sim/_kernel/", "sim_kernel"),
    ("sim/_ckernel/", "sim_kernel"),
    ("sim/_kernel/locks.py", "locks"),
    ("sim/network.py", "network"),
    ("sim/latency.py", "network"),
    ("sim/", "sim_other"),          # rng, engine selection, kernel facades
    ("storage/", "storage"),
    ("middleware/", "middleware"),
    ("core/", "core"),
    ("baselines/", "baselines"),
    ("contrib/", "baselines"),
    ("cluster/", "cluster"),
    ("workloads/", "workloads"),
    ("metrics/", "metrics"),
    ("recovery/", "recovery"),
    ("bench/", "bench"),
    ("plugins.py", "shared"),
    ("common.py", "shared"),
    ("protocol.py", "shared"),
    ("__init__.py", "shared"),
]

#: Layer names in report order; ``python_builtins`` is everything outside
#: ``src/repro``.
LAYERS: List[str] = [
    "sim_kernel", "locks", "network", "sim_other", "storage", "middleware",
    "core", "baselines", "cluster", "workloads", "metrics", "recovery",
    "bench", "shared", "python_builtins",
]

#: Where an unmapped file is folded when a measurement run must not fail.
FALLBACK_LAYER = "shared"

#: Functions whose *call counts* in the traced run become per-commit metrics.
#: Each is ``module:attribute.path`` reached from a public module, resolved
#: with getattr at run time; one that no longer exists makes its metric null
#: (with a warning) instead of crashing, so deletion PRs degrade the ledger
#: gracefully.
COUNTED_FUNCTIONS: Dict[str, List[str]] = {
    "sim_kernel.resumes_per_commit": ["repro.sim:Process._resume"],
    "sim_kernel.spawns_per_commit": ["repro.sim:Process.__init__"],
    "sim_kernel.timer_calls_per_commit": [
        "repro.sim:Environment.call_at",
        "repro.sim:Environment.call_coarse",
        "repro.sim:Timeout.__init__",
    ],
    "workloads.generated_per_commit": [
        "repro.workloads.ycsb:YCSBWorkload.next_transaction",
        "repro.workloads.tpcc:TPCCWorkload.next_transaction",
    ],
}


def layer_of(relative_path: str) -> Optional[str]:
    """The layer of a path relative to ``src/repro``, or ``None`` if unmapped."""
    best: Optional[Tuple[str, str]] = None
    for prefix, layer in LAYER_PREFIXES:
        if relative_path.startswith(prefix) and (
                best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    return best[1] if best else None


def check_layer_map(package_dir: Path) -> List[str]:
    """Problems with the map: files in zero layers, prefixes in two, unknown layers."""
    problems = []
    seen: Dict[str, str] = {}
    for prefix, layer in LAYER_PREFIXES:
        if layer not in LAYERS:
            problems.append(f"prefix {prefix!r} names unknown layer {layer!r}")
        if seen.setdefault(prefix, layer) != layer:
            problems.append(f"prefix {prefix!r} maps to two layers: "
                            f"{seen[prefix]} and {layer}")
    for path in sorted(package_dir.rglob("*.py")):
        relative = path.relative_to(package_dir).as_posix()
        if layer_of(relative) is None:
            problems.append(f"src/repro/{relative} maps to no layer")
    return problems


def resolve_code(spec: str) -> Optional[Any]:
    """The code object behind ``module:attr.path``, or ``None`` if it is gone
    (or has no Python code object, as under the compiled engine)."""
    module_name, _, attr_path = spec.partition(":")
    try:
        target: Any = importlib.import_module(module_name)
        for part in attr_path.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError):
        return None
    return getattr(target, "__code__", None)


def fold_profile(stats: Dict[Tuple[str, int, str], Tuple],
                 package_dir: Path, own_dir: Path, top_n: int = 20
                 ) -> Dict[str, Any]:
    """Fold ``pstats`` rows into per-layer self time.

    Returns ``{"self_s": {layer: seconds}, "top": {layer: [rows]},
    "unmapped": [paths]}``; rows under ``own_dir`` (the benchmark itself) are
    dropped.
    """
    package_root = str(package_dir.resolve()) + "/"
    own_root = str(own_dir.resolve()) + "/"
    self_s = {layer: 0.0 for layer in LAYERS}
    rows: Dict[str, List[Tuple[float, int, str]]] = {layer: [] for layer in LAYERS}
    unmapped = set()
    for (filename, line, name), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        if filename.startswith(own_root):
            continue
        if filename.startswith(package_root):
            relative = filename[len(package_root):]
            layer = layer_of(relative)
            if layer is None:
                unmapped.add(relative)
                layer = FALLBACK_LAYER
            label = f"{relative}:{line}({name})"
        else:
            layer = "python_builtins"
            label = name if filename == "~" else f"{Path(filename).name}:{line}({name})"
        self_s[layer] += tottime
        rows[layer].append((tottime, ncalls, label))
    top = {layer: [{"function": label, "self_s": round(tt, 6), "calls": calls}
                   for tt, calls, label in sorted(entries, reverse=True)[:top_n]]
           for layer, entries in rows.items()}
    return {"self_s": self_s, "top": top, "unmapped": sorted(unmapped)}


def call_counts(stats: Dict[Tuple[str, int, str], Tuple]
                ) -> Tuple[Dict[str, Optional[int]], List[str]]:
    """Call counts of :data:`COUNTED_FUNCTIONS` in a profile, plus warnings.

    A metric is ``None`` when none of its functions can be resolved any more.
    """
    by_code = {(filename, line, name): row[1]
               for (filename, line, name), row in stats.items()}
    counts: Dict[str, Optional[int]] = {}
    warnings = []
    for metric, specs in COUNTED_FUNCTIONS.items():
        total, resolved = 0, 0
        for spec in specs:
            code = resolve_code(spec)
            if code is None:
                warnings.append(f"{metric}: counted function {spec} no longer "
                                f"exists (or has no Python code object)")
                continue
            resolved += 1
            total += by_code.get(
                (code.co_filename, code.co_firstlineno, code.co_name), 0)
        counts[metric] = total if resolved else None
    return counts, warnings
