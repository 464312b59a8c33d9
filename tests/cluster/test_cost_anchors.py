"""Closed-form latency anchors: the simulator charges exactly the cost table.

One terminal on a two-node constant-latency topology runs read-only YCSB
homed on node 0, so no lock ever waits and every committed transaction takes
the same time.  Each test writes that time as a formula over the
:class:`~repro.common.CostModel` fields and the round-trip times, following
the protocol's round structure, and asserts every latency sample equals it.
A cost charged twice, dropped, or moved onto another step breaks an anchor.

Node 0 gets operations 0, 2 and 4 of the five and node 1 gets 1 and 3 (the
workload spreads operations round-robin over its target nodes).
"""

import pytest

from repro import ExperimentConfig, GeoTPConfig, TopologyConfig, YCSBConfig, run_experiment
from repro.bench.scenarios import FIG12_VARIANTS
from repro.common import COSTS

RTTS = (20.0, 60.0)
READS = (3, 2)
LAN = TopologyConfig.from_rtts(RTTS).lan_rtt_ms
TOLERANCE_MS = 1e-9


def _latencies(system, distributed_ratio, geotp=None):
    summary = run_experiment(ExperimentConfig(
        system=system, workload="ycsb", topology=TopologyConfig.from_rtts(RTTS),
        terminals=1, duration_ms=3_000.0, warmup_ms=500.0, geotp=geotp,
        ycsb=YCSBConfig(read_ratio=1.0, home_node=0,
                        distributed_ratio=distributed_ratio)))
    assert summary.committed > 10 and summary.aborted == 0
    return summary.latency_samples


def _assert_all(samples, expected):
    off = [sample for sample in samples if abs(sample - expected) > TOLERANCE_MS]
    assert not off, f"expected {expected} ms, got {sorted(set(off))[:5]}"


def test_ssp_centralized_is_one_execute_and_one_commit_round_trip():
    # Analysis, request encoding, execute (request + five reads) and the
    # one-phase commit, each round trip to node 0.
    expected = (COSTS.analysis_ms + COSTS.middleware_request_ms
                + RTTS[0] + COSTS.datasource_request_ms + 5 * COSTS.mysql_read_ms
                + RTTS[0] + COSTS.mysql_commit_ms)
    _assert_all(_latencies("ssp", 0.0), expected)


def test_ssp_distributed_pays_execute_prepare_and_commit_round_trips():
    # Each phase waits for its slowest participant; the decision log is
    # flushed between prepare and commit.
    execute = max(rtt + COSTS.datasource_request_ms + reads * COSTS.mysql_read_ms
                  for rtt, reads in zip(RTTS, READS))
    prepare = max(rtt + COSTS.mysql_prepare_ms for rtt in RTTS)
    commit = max(rtt + COSTS.mysql_commit_ms for rtt in RTTS)
    expected = (COSTS.analysis_ms + COSTS.middleware_request_ms + execute
                + prepare + COSTS.log_flush_ms + commit)
    _assert_all(_latencies("ssp", 1.0), expected)


def test_geotp_decentralized_prepare_saves_the_prepare_round_trip():
    # §IV-A: each agent runs XA END and XA PREPARE over the LAN right after
    # the last batch and sends its vote on the way back, so the prepare
    # costs no WAN round trip.  Per participant: the agent forwards the
    # batch (LAN), the data source executes it, then XA END (LAN + request)
    # and XA PREPARE (LAN + prepare), and the vote travels back.
    vote = max(rtt + COSTS.agent_forward_ms + 3 * LAN
               + 2 * COSTS.datasource_request_ms + reads * COSTS.mysql_read_ms
               + COSTS.mysql_prepare_ms
               for rtt, reads in zip(RTTS, READS))
    commit = max(rtt + COSTS.agent_forward_ms + LAN + COSTS.mysql_commit_ms
                 for rtt in RTTS)
    expected = (COSTS.analysis_ms + COSTS.middleware_request_ms + vote
                + COSTS.log_flush_ms + commit)
    _system, o1_only = FIG12_VARIANTS["geotp_o1"]
    _assert_all(_latencies("geotp", 1.0, GeoTPConfig(**o1_only)), expected)


@pytest.mark.parametrize("engine", ["mysql", "postgresql"])
def test_every_dialect_has_its_five_engine_costs(engine):
    steps = ("read", "write", "prepare", "commit", "abort")
    assert COSTS.engine(engine) == tuple(
        getattr(COSTS, f"{engine}_{step}_ms") for step in steps)
    assert all(cost > 0 for cost in COSTS.engine(engine))
