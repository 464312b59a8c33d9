"""Tests for the resumable sweep cache (``repro.bench.cache``).

Correctness here means four things, each pinned below: the canonical config
hash is stable across processes and ``PYTHONHASHSEED`` values yet sensitive to
every semantic config change; a cached point round-trips byte-identically; a
cache can only ever degrade to a recompute (corrupt entries, stale digests,
edited sources and scratch files of a killed write are all dropped, never
crash and never serve wrong data); and a resumed sweep executes exactly the
missing points.
"""

import json
import pickle
import shutil
import subprocess
import sys

import pytest

import repro.bench.cache as cache_module
from repro.bench.cache import (CACHE_SCHEMA, SweepCache, canonical_repr,
                               config_hash, source_fingerprint)
from repro.bench.parallel import SweepRunner, run_sweep_point
from repro.bench.runner import ExperimentConfig
from repro.bench.scenarios import get_scenario
from repro.workloads.ycsb import YCSBConfig

from tests.conftest import REPO_ROOT, SRC_DIR


def smoke_sweep():
    return get_scenario("smoke").sweep()


def sweep_payload(result) -> str:
    """Per-point params plus the default (environment-free) summary dict:
    what must be byte-identical whether a point was simulated now or
    restored from the cache; wall-clock and RSS legitimately differ."""
    return json.dumps([{"params": point.params, **point.summary.to_dict()}
                       for point in result], sort_keys=True)


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(system="geotp", terminals=2, duration_ms=300.0,
                warmup_ms=50.0, seed=11,
                ycsb=YCSBConfig(records_per_node=100))
    base.update(overrides)
    return ExperimentConfig(**base)


# -------------------------------------------------------------- canonical hash
def test_config_hash_is_deterministic_within_a_process():
    assert config_hash(tiny_config()) == config_hash(tiny_config())


def test_config_hash_differs_on_any_semantic_change():
    reference = config_hash(tiny_config())
    assert config_hash(tiny_config(seed=12)) != reference
    assert config_hash(tiny_config(terminals=3)) != reference
    assert config_hash(tiny_config(duration_ms=301.0)) != reference
    assert config_hash(tiny_config(
        ycsb=YCSBConfig(records_per_node=100, skew=1.2))) != reference


def test_config_hash_covers_every_registered_scenario():
    # Every registered point config must be canonicalisable — a scenario whose
    # config embeds an unknown type would make it silently uncacheable.
    for name in ("smoke", "load_sweep", "fleet_failover", "fault_ds_crash",
                 "fig11a_random_latency", "fig11b_dynamic_latency"):
        for point in get_scenario(name).sweep().points():
            assert len(config_hash(point.config)) == 64


def test_config_hash_is_stable_across_hash_seeds():
    """The key must not depend on PYTHONHASHSEED (dict/set iteration order)."""
    script = (
        "from repro.bench.cache import config_hash\n"
        "from repro.bench.scenarios import get_scenario\n"
        "print(config_hash(get_scenario('smoke').sweep().points()[0].config))\n"
    )
    digests = set()
    for hash_seed in ("0", "1", "42"):
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=REPO_ROOT, check=True,
            env={"PYTHONPATH": str(SRC_DIR), "PYTHONHASHSEED": hash_seed})
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, f"hash-seed-dependent digests: {digests}"


def test_canonical_repr_rejects_uncanonicalisable_objects():
    class Opaque:
        pass

    opaque = Opaque()
    # No attributes at all: nothing distinguishes two instances but identity,
    # which is exactly what must never leak into a cache key.
    with pytest.raises(TypeError, match="canonicalise"):
        canonical_repr(object())
    # With attributes it canonicalises by value, not by address.
    opaque.x = 1
    other = Opaque()
    other.x = 1
    assert canonical_repr(opaque) == canonical_repr(other)


def test_source_fingerprint_keys_every_cache_entry(tmp_path):
    fingerprint = source_fingerprint()
    assert len(fingerprint) == 16
    assert SweepCache(tmp_path).fingerprint == fingerprint


def test_source_fingerprint_moves_when_a_non_kernel_module_changes(
        tmp_path, monkeypatch):
    real = source_fingerprint()
    root = tmp_path / "repro"
    shutil.copytree(cache_module._SOURCE_ROOT, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(cache_module, "_SOURCE_ROOT", root)
    monkeypatch.setattr(cache_module, "_source_fingerprint", None)
    # Content, not location: an identical copy has the same fingerprint.
    assert source_fingerprint() == real
    module = root / "storage" / "datasource.py"
    module.write_bytes(module.read_bytes() + b"\n")
    monkeypatch.setattr(cache_module, "_source_fingerprint", None)
    assert source_fingerprint() != real


# ------------------------------------------------------------------ round trip
def test_cached_point_round_trips_byte_identically(tmp_path):
    sweep = smoke_sweep()
    point = sweep.points()[0]
    executed = run_sweep_point(point)
    cache = SweepCache(tmp_path)
    cache.store(sweep.name, point, executed)
    restored = SweepCache(tmp_path).lookup(sweep.name, sweep.points()[0])
    assert restored is not None
    assert restored.index == executed.index
    assert restored.params == executed.params
    assert restored.wall_clock_s == executed.wall_clock_s
    assert (json.dumps(restored.summary.to_dict(), sort_keys=True)
            == json.dumps(executed.summary.to_dict(), sort_keys=True))


def test_lookup_counts_hits_and_misses(tmp_path):
    sweep = smoke_sweep()
    points = sweep.points()
    cache = SweepCache(tmp_path)
    assert cache.lookup(sweep.name, points[0]) is None
    assert (cache.hits, cache.misses) == (0, 1)
    cache.store(sweep.name, points[0], run_sweep_point(points[0]))
    assert cache.lookup(sweep.name, points[0]) is not None
    assert (cache.hits, cache.misses) == (1, 1)


# --------------------------------------------------------------- invalidation
def test_corrupt_entry_degrades_to_recompute(tmp_path):
    sweep = smoke_sweep()
    point = sweep.points()[0]
    cache = SweepCache(tmp_path)
    cache.store(sweep.name, point, run_sweep_point(point))
    [entry] = list((tmp_path / sweep.name).glob("*.pkl"))
    entry.write_bytes(entry.read_bytes()[:40])  # truncate mid-pickle
    fresh = SweepCache(tmp_path)
    assert fresh.lookup(sweep.name, sweep.points()[0]) is None
    assert fresh.invalidations == 1
    assert not entry.exists(), "corrupt entries must be deleted"


def test_foreign_pickle_entry_degrades_to_recompute(tmp_path):
    sweep = smoke_sweep()
    point = sweep.points()[0]
    cache = SweepCache(tmp_path)
    path = cache._point_path(sweep.name, point, cache.entry_digest(point))
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps({"schema": CACHE_SCHEMA, "digest": "nope"}))
    assert cache.lookup(sweep.name, point) is None
    assert cache.invalidations == 1


def test_source_change_invalidates_cached_entries(tmp_path, monkeypatch):
    sweep = smoke_sweep()
    point = sweep.points()[0]
    monkeypatch.setattr(cache_module, "_source_fingerprint", "0123456789abcdef")
    old = SweepCache(tmp_path)
    old.store(sweep.name, point, run_sweep_point(point))
    monkeypatch.undo()
    # Same sweep under the real sources: the stale sibling (same point index,
    # different digest) is dropped, never served.
    current = SweepCache(tmp_path)
    assert current.fingerprint != old.fingerprint
    assert current.lookup(sweep.name, sweep.points()[0]) is None
    assert current.invalidations == 1
    assert list((tmp_path / sweep.name).glob("*.pkl")) == []


def test_config_change_invalidates_cached_entries(tmp_path):
    sweep = smoke_sweep()
    point = sweep.points()[0]
    cache = SweepCache(tmp_path)
    cache.store(sweep.name, point, run_sweep_point(point))
    changed = get_scenario("smoke").sweep(duration_ms=777.0)
    fresh = SweepCache(tmp_path)
    assert fresh.lookup(changed.name, changed.points()[0]) is None
    assert fresh.invalidations == 1


def test_lookup_removes_scratch_files_a_killed_store_left(tmp_path):
    # store() writes <entry>.tmp<pid> and then renames it; a kill in between
    # leaves the scratch file, under the current digest or a stale one.
    sweep = smoke_sweep()
    point = sweep.points()[0]
    cache = SweepCache(tmp_path)
    path = cache._point_path(sweep.name, point, cache.entry_digest(point))
    path.parent.mkdir(parents=True)
    orphans = [path.with_suffix(".tmp4242"),
               path.with_name("point0000__0123456789abcdef.tmp77")]
    for orphan in orphans:
        orphan.write_bytes(b"half a pickle")
    assert cache.lookup(sweep.name, point) is None
    assert [orphan for orphan in orphans if orphan.exists()] == []
    assert cache.invalidations == 0


# --------------------------------------------------------------------- resume
def test_resumed_sweep_executes_exactly_the_missing_points(tmp_path):
    sweep = smoke_sweep()
    points = sweep.points()
    k = 1
    warm = SweepCache(tmp_path)
    for point in points[:k]:
        warm.store(sweep.name, point, run_sweep_point(point))
    cache = SweepCache(tmp_path)
    result = SweepRunner(cache=cache, resume=True).run(smoke_sweep())
    assert result.cache_hits == k
    assert result.cache_misses == len(points) - k
    assert result.cache_invalidations == 0
    assert len(result) == len(points)


def test_resumed_sweep_is_byte_identical_to_fresh_run(tmp_path):
    fresh = SweepRunner().run(smoke_sweep())
    warm = SweepCache(tmp_path)
    sweep = smoke_sweep()
    for point in sweep.points()[:1]:
        warm.store(sweep.name, point, run_sweep_point(point))
    resumed = SweepRunner(cache=SweepCache(tmp_path),
                          resume=True).run(smoke_sweep())
    assert sweep_payload(fresh) == sweep_payload(resumed)


def test_cache_without_resume_records_but_never_reads(tmp_path):
    cache = SweepCache(tmp_path)
    result = SweepRunner(cache=cache).run(smoke_sweep())
    # Every point was simulated (counted as misses) and persisted.
    assert result.cache_hits == 0
    assert result.cache_misses == len(result)
    assert len(list((tmp_path / "smoke").glob("*.pkl"))) == len(result)


def test_a_runner_reports_each_sweeps_own_cache_counts(tmp_path):
    runner = SweepRunner(cache=SweepCache(tmp_path), resume=True)
    first = runner.run(smoke_sweep())
    second = runner.run(smoke_sweep())
    assert (first.cache_hits, first.cache_misses) == (0, len(first))
    assert (second.cache_hits, second.cache_misses) == (len(second), 0)
    assert second.cache_invalidations == 0


def test_fully_cached_resume_simulates_nothing(tmp_path):
    SweepRunner(cache=SweepCache(tmp_path)).run(smoke_sweep())
    result = SweepRunner(cache=SweepCache(tmp_path),
                         resume=True).run(smoke_sweep())
    assert result.cache_hits == len(result)
    assert result.cache_misses == 0


# ------------------------------------------------------------ kill and resume
def resume_sweep():
    """A 2x2 mini ``load_sweep`` (two systems x two rates) at smoke scale.

    Small enough to run twice in a test, but a real open-system sweep: the
    resume check below uses it to prove an interrupted-then-resumed sweep is
    byte-identical to an uninterrupted one.
    """
    return get_scenario("load_sweep").sweep(
        axes={"system": ["geotp", "ssp"], "rate_tps": [160.0, 320.0]},
        duration_ms=1_500.0, warmup_ms=300.0,
        ycsb__records_per_node=1_000, arrival__max_clients=64)


def test_resume_round_trip_is_identical_under_each_engine(tmp_path):
    """The kill-and-resume workflow is byte-identical.

    Run the mini sweep uncached, then store only its first k points into a
    cache through the real worker path (exactly what a killed ``--cache-dir``
    run leaves behind), resume the full sweep against that cache and compare
    the deterministic payloads.  The resumed run simulates exactly the
    missing points.
    """
    fresh = SweepRunner().run(resume_sweep())
    interrupted = SweepCache(tmp_path)
    sweep = resume_sweep()
    for point in sweep.points()[:2]:
        interrupted.store(sweep.name, point, run_sweep_point(point))
    cache = SweepCache(tmp_path)
    resumed = SweepRunner(cache=cache, resume=True).run(resume_sweep())
    assert sweep_payload(resumed) == sweep_payload(fresh)
    assert cache.hits == 2
    assert cache.misses == len(fresh) - 2
