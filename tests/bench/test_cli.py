"""Tests for the ``python -m repro.bench`` command-line interface."""

import json

import pytest

import repro.bench
from repro.bench.__main__ import main


def test_list_prints_every_registered_scenario(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig5_overall", "table1_heterogeneous", "smoke"):
        assert name in out
    assert "system[2]" in out  # axes are summarised next to each name


def test_list_systems_prints_the_registry_with_aliases_and_capabilities(capsys):
    assert main(["list", "--systems"]) == 0
    out = capsys.readouterr().out
    for name in ("ssp", "quro", "chiller", "scalardb", "yugabyte", "geotp",
                 "geotp_static"):
        assert name in out
    assert "scalardb+" in out          # aliases are discoverable
    assert "agents" in out             # capability flags are discoverable
    assert "colocated-ds0" in out


def test_list_workloads_prints_the_registry(capsys):
    assert main(["list", "--workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("ycsb", "tpcc", "smallbank"):
        assert name in out
    assert "tpc_c" in out


def test_list_both_registries_in_one_invocation(capsys):
    assert main(["list", "--systems", "--workloads"]) == 0
    out = capsys.readouterr().out
    assert "yugabyte" in out and "smallbank" in out


def test_plugin_scenarios_appear_in_the_default_listing(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "smallbank_dist_ratio" in out
    assert "static_vs_adaptive" in out


def test_list_markdown_emits_the_registry_tables(capsys):
    from repro.bench.report import registry_markdown

    assert main(["list", "--markdown"]) == 0
    out = capsys.readouterr().out
    assert out == registry_markdown()
    assert "#### Scenarios" in out and "#### Workloads" in out
    assert "| `fault_region_outage` |" in out


def test_run_unknown_scenario_fails_with_message(capsys):
    assert main(["run", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "fig5_overal"],
    ["figures", "fig5_overal"],
])
def test_mistyped_scenario_names_the_close_match_not_the_registry(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "unknown scenario 'fig5_overal'" in err
    assert "fig5_overall" in err and "repro.bench list" in err
    assert len(err.encode()) < 400  # the close matches, not the registry


def test_run_smoke_emits_json_rows(capsys):
    assert main(["run", "smoke", "--workers", "1", "--duration-ms", "2000",
                 "--terminals", "2", "--seed", "1"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["scenario"] == "smoke"
    assert document["workers"] == 1
    assert document["points"] == 2
    assert document["wall_clock_s"] >= 0
    systems = [row["params"]["system"] for row in document["rows"]]
    assert systems == ["ssp", "geotp"]
    for row in document["rows"]:
        assert row["seed"] == 1
        assert row["terminals"] == 2
        assert row["committed"] > 0
        assert row["throughput_tps"] > 0
        assert "resources" in row and "breakdown" in row


def test_run_writes_output_file(tmp_path, capsys):
    target = tmp_path / "smoke.json"
    assert main(["run", "smoke", "--duration-ms", "1500", "--warmup-ms", "300",
                 "--terminals", "2", "--output", str(target)]) == 0
    document = json.loads(target.read_text())
    assert document["points"] == 2
    # The sweep's table goes to stderr beside the "wrote" line, one row per point.
    wrote, header, _rule, *rows = capsys.readouterr().err.splitlines()
    assert "wrote 2 points" in wrote
    assert header.split()[:2] == ["system", "tput"]
    assert [row.split()[0] for row in rows] == ["ssp", "geotp"]


def test_override_collapses_a_matching_axis(capsys):
    """``--terminals`` must win even when terminals is a sweep axis."""
    assert main(["run", "fig5_overall", "--duration-ms", "2500",
                 "--terminals", "2", "--workers", "1"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["points"] == 5  # 5 systems x 1 collapsed terminal count
    assert all(row["terminals"] == 2 for row in document["rows"])


def test_override_recomputed_by_apply_is_reported(capsys):
    """fig11b derives duration from its phase schedule; the user must be told."""
    assert main(["run", "fig11b_dynamic_latency", "--duration-ms", "2000",
                 "--terminals", "2", "--workers", "1"]) == 0
    captured = capsys.readouterr()
    assert "note: --duration-ms is recomputed per point" in captured.err
    document = json.loads(captured.out)
    # fig11b rows carry the throughput timeline the figure is about.
    assert all("timeline" in row and row["timeline"]["series"]
               for row in document["rows"])


@pytest.mark.parametrize("argv", [
    ["run", "smoke", "--workers", "0"],
    ["run", "smoke", "--duration-ms", "500", "--warmup-ms", "600"],
])
def test_invalid_values_fail_cleanly_without_tracebacks(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [[], ["run"]])
def test_missing_arguments_exit_with_usage_error(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_perf_subcommand_and_exports_are_gone(capsys):
    """Host time is measured by perf_ledger/ alone: no second harness."""
    with pytest.raises(SystemExit) as excinfo:
        main(["perf"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'perf'" in err
    for command in ("list", "run", "figures", "chaos"):
        assert command in err
    assert not {"PerfMetrics", "compare_to_baseline", "measure_scenario",
                "run_perf"} & set(repro.bench.__all__)


def test_run_without_cache_flags_reports_no_cache_section(capsys):
    assert main(["run", "smoke"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert "cache" not in document


def test_run_cache_dir_records_and_resume_replays(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["run", "smoke", "--cache-dir", cache_dir]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["cache"]["hits"] == 0
    assert first["cache"]["misses"] == first["points"]

    assert main(["run", "smoke", "--cache-dir", cache_dir, "--resume"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["cache"]["hits"] == second["points"]
    assert second["cache"]["misses"] == 0
    assert second["cache"]["invalidations"] == 0
    # The replayed rows are byte-identical up to per-run environment fields.
    strip = lambda doc: [
        {key: value for key, value in row.items()
         if key not in ("wall_clock_s", "peak_rss_bytes")}
        for row in doc["rows"]]
    assert json.dumps(strip(first), sort_keys=True) \
        == json.dumps(strip(second), sort_keys=True)


def test_run_resume_alone_defaults_the_cache_dir(tmp_path, capsys,
                                                 monkeypatch):
    from repro.bench.cache import DEFAULT_CACHE_DIR

    monkeypatch.chdir(tmp_path)
    assert main(["run", "smoke", "--resume"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["cache"]["dir"] == DEFAULT_CACHE_DIR
    assert (tmp_path / DEFAULT_CACHE_DIR / "smoke").is_dir()


def test_run_resume_recomputes_after_config_change(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["run", "smoke", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    # A different duration changes the config hash: nothing may be replayed.
    assert main(["run", "smoke", "--cache-dir", cache_dir, "--resume",
                 "--duration-ms", "900"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["cache"]["hits"] == 0
    assert document["cache"]["misses"] == document["points"]
    assert document["cache"]["invalidations"] == document["points"]
