"""Resumable per-point result cache for scenario sweeps.

Big sweeps (the chaos matrix, ``load_sweep``, the fleet families) are
embarrassingly parallel *and* bit-deterministic: a point's
:class:`~repro.bench.runner.ExperimentSummary` is fully determined by its
``(config, seed)`` and the simulator's source.  That makes every point safely
memoisable — a crashed or re-run sweep only needs to compute the points that
are missing.

:class:`SweepCache` stores one pickled summary per executed point under a
cache directory (default ``.repro_cache/``), keyed on

* the **canonical config hash** — :func:`config_hash` walks the whole
  ``ExperimentConfig`` object graph (dataclasses, nested configs, latency
  models, fault plans, RNG seeds) into a canonical string that is stable
  across processes and ``PYTHONHASHSEED`` values, then digests it;
* the **seed** (redundant with the hash — ``seed`` is a config field — but
  spelled out so the key schema is self-describing on disk);
* the **source fingerprint** — a digest of every ``*.py`` file of the
  ``repro`` package, so editing any module of the model (not only the kernel)
  invalidates every cached result instead of silently replaying stale ones.

Entries live at ``<dir>/<sweep_name>/point<index>__<digest>.pkl``.  A lookup
that finds an entry for the same sweep point under a *different* digest (the
config or the source changed) deletes it and counts an **invalidation**; a
corrupted or truncated entry likewise degrades to a recompute — the cache can
slow a sweep down only by a disk read, never change its results or crash it.

Caching is strictly opt-in: nothing in the hot path touches this module
unless a :class:`SweepCache` is handed to
:class:`~repro.bench.parallel.SweepRunner` (CLI: ``--cache-dir`` /
``--resume``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import random
import time
from pathlib import Path
from typing import Any, Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.bench.parallel import PointResult
    from repro.bench.scenarios import SweepPoint

#: Default cache directory of the CLI flags (relative to the working dir).
DEFAULT_CACHE_DIR = ".repro_cache"

#: On-disk entry schema; bump to orphan every existing entry at once.
CACHE_SCHEMA = 1


# ------------------------------------------------------------ canonical hashing
def canonical_repr(obj: Any) -> str:
    """A canonical, hash-seed-independent string form of a config object graph.

    Two objects produce the same string iff they would drive a simulation
    identically: dataclasses render their fields sorted by name, dicts/sets
    sort by their elements' canonical forms (never by ``hash()``), enums
    render as member names, ``random.Random`` renders its seeded state, and
    plain objects (latency models, ``SeededRNG``) walk their attributes —
    private ones included, because ``_rng`` seeds are semantics.  Anything the
    walker does not understand raises ``TypeError`` instead of falling back to
    ``repr`` (which could embed a memory address and quietly break stability).
    """
    return _canon(obj, set())


def _canon(obj: Any, active: set) -> str:
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    marker = id(obj)
    if marker in active:
        raise ValueError("cannot canonicalise a cyclic config object graph")
    active.add(marker)
    try:
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            cls = type(obj)
            inner = ", ".join(
                f"{f.name}={_canon(getattr(obj, f.name), active)}"
                for f in sorted(dataclasses.fields(obj), key=lambda f: f.name))
            return f"{cls.__module__}.{cls.__qualname__}({inner})"
        if isinstance(obj, (list, tuple)):
            open_, close = ("[", "]") if isinstance(obj, list) else ("(", ")")
            return open_ + ", ".join(_canon(v, active) for v in obj) + close
        if isinstance(obj, dict):
            items = sorted((_canon(k, active), _canon(v, active))
                           for k, v in obj.items())
            return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
        if isinstance(obj, (set, frozenset)):
            return "{" + ", ".join(sorted(_canon(v, active) for v in obj)) + "}"
        if isinstance(obj, random.Random):
            # Fully determined by the seed for freshly built configs; walking
            # the state (plain ints) keeps a pre-advanced generator honest.
            return f"Random(state={_canon(obj.getstate(), active)})"
        if callable(obj) and hasattr(obj, "__qualname__"):
            return f"{getattr(obj, '__module__', '?')}.{obj.__qualname__}"
        attrs = _object_attrs(obj)
        if attrs is not None:
            inner = ", ".join(f"{name}={_canon(value, active)}"
                              for name, value in attrs)
            cls = type(obj)
            return f"{cls.__module__}.{cls.__qualname__}<{inner}>"
    finally:
        active.discard(marker)
    raise TypeError(f"cannot canonicalise {type(obj).__qualname__!r} for the "
                    f"sweep cache key (teach repro.bench.cache.canonical_repr "
                    f"about it)")


def _object_attrs(obj: Any):
    """Sorted ``(name, value)`` attributes of a plain object, or ``None``."""
    names: Dict[str, Any] = {}
    if hasattr(obj, "__dict__"):
        names.update(vars(obj))
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if slot != "__dict__" and hasattr(obj, slot):
                names.setdefault(slot, getattr(obj, slot))
    if not names and not hasattr(obj, "__dict__"):
        return None
    return sorted(names.items())


def config_hash(config: Any) -> str:
    """SHA-256 of the canonical form of an :class:`ExperimentConfig`."""
    return hashlib.sha256(canonical_repr(config).encode()).hexdigest()


# ------------------------------------------------------------- source identity
#: The ``repro`` package directory, whose sources are the model.
_SOURCE_ROOT = Path(__file__).resolve().parents[1]
_source_fingerprint: Optional[str] = None


def source_fingerprint() -> str:
    """Digest of every ``*.py`` file of the ``repro`` package (cached per process).

    Relative path and bytes of each file, in sorted order: any edit to the
    model — storage, middleware, a baseline, the kernel — changes it and
    orphans every cached summary.
    """
    global _source_fingerprint
    if _source_fingerprint is None:
        digest = hashlib.sha256()
        for path in sorted(_SOURCE_ROOT.rglob("*.py")):
            digest.update(path.relative_to(_SOURCE_ROOT).as_posix().encode())
            digest.update(path.read_bytes())
        _source_fingerprint = digest.hexdigest()[:16]
    return _source_fingerprint


# ------------------------------------------------------------------- the cache
class SweepCache:
    """Directory-backed store of executed sweep points.

    One instance serves one sweep run (the hit/miss/invalidation counters are
    per-run statistics, reported in the CLI JSON).  All filesystem access
    happens in the coordinating process — worker processes never see the
    cache — so no cross-process locking is needed.
    """

    def __init__(self, directory: str = DEFAULT_CACHE_DIR):
        self.directory = Path(directory)
        self.fingerprint = source_fingerprint()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------ keys
    def entry_digest(self, point: "SweepPoint") -> str:
        """Digest of the full cache key of one sweep point."""
        key = (f"schema={CACHE_SCHEMA};config={config_hash(point.config)};"
               f"seed={point.config.seed};fingerprint={self.fingerprint}")
        return hashlib.sha256(key.encode()).hexdigest()[:32]

    def _point_path(self, sweep_name: str, point: "SweepPoint",
                    digest: str) -> Path:
        return self.directory / sweep_name / f"point{point.index:04d}__{digest}.pkl"

    # ---------------------------------------------------------------- lookup
    def lookup(self, sweep_name: str,
               point: "SweepPoint") -> Optional["PointResult"]:
        """The cached result of ``point``, or ``None`` (and count why).

        Stale siblings — entries for the same point index whose digest no
        longer matches because the config hash or the source changed — are
        deleted and counted as invalidations, so a cache directory never
        accumulates results that can no longer be produced.  Scratch files a
        kill left between :meth:`store`'s write and its rename go with them.
        """
        from repro.bench.parallel import PointResult

        digest = self.entry_digest(point)
        path = self._point_path(sweep_name, point, digest)
        self._drop_stale_siblings(path)
        payload = self._load_entry(path, digest)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return PointResult(index=point.index, params=dict(point.params),
                           summary=payload["summary"],
                           wall_clock_s=payload["wall_clock_s"])

    def _drop_stale_siblings(self, path: Path) -> None:
        prefix = path.name.split("__", 1)[0]
        if not path.parent.is_dir():
            return
        for sibling in path.parent.glob(f"{prefix}__*"):
            if sibling.name != path.name:
                sibling.unlink(missing_ok=True)
                if sibling.suffix == ".pkl":
                    self.invalidations += 1

    def _load_entry(self, path: Path, digest: str) -> Optional[Dict[str, Any]]:
        """Unpickle and validate one entry; corrupt entries self-delete."""
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            payload = pickle.loads(raw)
            if (not isinstance(payload, dict)
                    or payload.get("schema") != CACHE_SCHEMA
                    or payload.get("digest") != digest
                    or payload.get("fingerprint") != self.fingerprint):
                raise ValueError("cache entry metadata mismatch")
        except Exception:
            # Truncated write, foreign pickle, schema drift — anything short
            # of a clean, self-consistent entry degrades to a recompute.
            path.unlink(missing_ok=True)
            self.invalidations += 1
            return None
        return payload

    # ----------------------------------------------------------------- store
    def store(self, sweep_name: str, point: "SweepPoint",
              result: "PointResult") -> None:
        """Persist one executed point (atomically, so kills cannot truncate)."""
        digest = self.entry_digest(point)
        path = self._point_path(sweep_name, point, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "digest": digest,
            "sweep": sweep_name,
            "index": point.index,
            "params": dict(point.params),
            "config_hash": config_hash(point.config),
            "seed": point.config.seed,
            "fingerprint": self.fingerprint,
            "summary": result.summary,
            "wall_clock_s": result.wall_clock_s,
            "created_unix": time.time(),
        }
        scratch = path.with_suffix(f".tmp{os.getpid()}")
        scratch.write_bytes(pickle.dumps(payload))
        os.replace(scratch, path)

    # ------------------------------------------------------------- reporting
    def stats(self) -> Dict[str, Any]:
        """The per-run counters the CLI JSON reports."""
        return {"dir": str(self.directory), "fingerprint": self.fingerprint,
                "hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations}
