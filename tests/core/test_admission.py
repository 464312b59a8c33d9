"""Dedicated unit tests for :mod:`repro.core.admission`.

The broader scheduler test module exercises admission as part of the GeoTP
pipeline; this module pins the `LateTransactionScheduler` contract on its own:
counter bookkeeping, threshold semantics, backoff behaviour and the Eq. 9
probability wiring.
"""

import pytest

from repro.core import HotspotFootprint, LateTransactionScheduler
from repro.core.admission import AdmissionDecision
from repro.sim import Environment, SeededRNG


def make_hot_footprint(t_cnt, c_cnt, a_cnt, record=("t", "hot")):
    footprint = HotspotFootprint()
    entry = footprint.get_or_create(record)
    entry.t_cnt, entry.c_cnt, entry.a_cnt = t_cnt, c_cnt, a_cnt
    return footprint


def run_admit(admission, env, record_ids):
    decisions = []

    def proc():
        decision = yield from admission.admit(env, record_ids)
        decisions.append(decision)

    env.process(proc())
    env.run()
    return decisions[0]


# ----------------------------------------------------------------- probability
def test_success_probability_matches_eq9():
    # Each record contributes (c_cnt / t_cnt) ^ max(a_cnt - 1, 0).
    footprint = make_hot_footprint(10, 5, 3)
    admission = LateTransactionScheduler(footprint, SeededRNG(0))
    decision = admission.evaluate([("t", "hot")])
    assert decision.success_probability == pytest.approx(0.5 ** 2)


def test_unknown_records_are_always_admitted():
    admission = LateTransactionScheduler(HotspotFootprint(), SeededRNG(0))
    for key in range(20):
        decision = admission.evaluate([("t", key)])
        assert decision.admitted
        assert decision.success_probability == 1.0


# -------------------------------------------------------------------- counters
def test_admit_partitions_outcomes_across_counters():
    # p = 0.5 with one active waiter: some admitted, some rejected, and every
    # retry increments blocked_count.
    footprint = make_hot_footprint(10, 5, 2)
    admission = LateTransactionScheduler(footprint, SeededRNG(42), max_retries=2)
    env = Environment()
    decisions = [run_admit(admission, env, [("t", "hot")]) for _ in range(50)]

    admitted = [d for d in decisions if d.admitted]
    rejected = [d for d in decisions if not d.admitted]
    assert admission.admitted_count == len(admitted)
    assert admission.rejected_count == len(rejected)
    assert admission.admitted_count + admission.rejected_count == 50
    assert admission.blocked_count == sum(d.retries_used for d in decisions)
    # Rejections exhausted the retry budget exactly.
    assert all(d.retries_used == 2 for d in rejected)
    assert admitted and rejected  # both outcomes occur at p=0.5


def test_evaluate_never_touches_counters():
    footprint = make_hot_footprint(100, 0, 5)  # hopeless: p == 0
    admission = LateTransactionScheduler(footprint, SeededRNG(3))
    for _ in range(10):
        admission.evaluate([("t", "hot")])
    assert admission.admitted_count == 0
    assert admission.blocked_count == 0
    assert admission.rejected_count == 0


# ------------------------------------------------------------------- threshold
def test_threshold_below_probability_short_circuits_rng():
    class ExplodingRNG:
        def random(self):  # pragma: no cover - must not be called
            raise AssertionError("threshold pass must not draw")

    footprint = make_hot_footprint(10, 9, 2)  # p = 0.81
    admission = LateTransactionScheduler(footprint, ExplodingRNG(),
                                         threshold=0.8)
    decision = admission.evaluate([("t", "hot")])
    assert decision.admitted


def test_threshold_above_probability_falls_back_to_draw():
    footprint = make_hot_footprint(10, 9, 2)  # p = 0.81
    admission = LateTransactionScheduler(footprint, SeededRNG(5),
                                         threshold=0.99)
    outcomes = {admission.evaluate([("t", "hot")]).admitted
                for _ in range(200)}
    assert outcomes == {True, False}


# --------------------------------------------------------------------- backoff
def test_max_retries_zero_rejects_immediately():
    footprint = make_hot_footprint(100, 0, 5)
    admission = LateTransactionScheduler(footprint, SeededRNG(1), max_retries=0)
    env = Environment()
    decision = run_admit(admission, env, [("t", "hot")])
    assert not decision.admitted
    assert decision.retries_used == 0
    assert env.now == 0.0
    assert admission.blocked_count == 0
    assert admission.rejected_count == 1


def test_backoff_accumulates_once_per_block():
    footprint = make_hot_footprint(100, 0, 5)
    admission = LateTransactionScheduler(footprint, SeededRNG(1), max_retries=3)
    env = Environment()
    decision = run_admit(admission, env, [("t", "hot")])
    assert decision.retries_used == 3
    assert env.now == pytest.approx(3 * LateTransactionScheduler.BACKOFF_MS)


# ----------------------------------------------------------------- determinism
def test_same_seed_same_decisions():
    def trace(seed):
        footprint = make_hot_footprint(10, 5, 2)
        admission = LateTransactionScheduler(footprint, SeededRNG(seed),
                                             max_retries=2)
        env = Environment()
        return [run_admit(admission, env, [("t", "hot")])
                for _ in range(25)]

    assert trace(9) == trace(9)
    assert trace(9) != trace(10)


def test_decision_is_plain_dataclass():
    decision = AdmissionDecision(admitted=True, success_probability=1.0,
                                 retries_used=0)
    assert decision == AdmissionDecision(True, 1.0, 0)


# ------------------------------------------------ a rejection and live holders
@pytest.mark.xfail(strict=True, reason=(
    "known O3 defect: LatencyAwareMixin.admit starts footprint accesses only "
    "for an admitted transaction, but LatencyAwareMixin.on_transaction_finished "
    "ends them for a rejected one too, so every rejection decrements the "
    "a_cnt of records live transactions hold"))
@pytest.mark.parametrize("system", ["geotp", "scalardb_plus"])
def test_a_rejected_transaction_leaves_a_live_holders_a_cnt_unchanged(system):
    from repro.cluster import TopologyConfig, build_cluster
    from repro.common import AbortReason, Operation, OpType
    from repro.core import GeoTPConfig
    from repro.middleware import ModuloPartitioner, TransactionSpec

    topology = TopologyConfig.from_rtts([5.0])
    cluster = build_cluster(system, topology,
                            ModuloPartitioner(topology.node_names()),
                            geotp_config=GeoTPConfig(admission_max_retries=0))
    dm = cluster.middleware
    record = ("usertable", 0)
    # Two live holders that have never committed: Eq. 9 gives the record a
    # success probability of (0 / 2) ^ (2 - 1) = 0, so admission rejects.
    dm.footprint.on_access_start([record])
    dm.footprint.on_access_start([record])
    spec = TransactionSpec.from_operations([Operation(
        op_type=OpType.UPDATE, table="usertable", key=0, value={"v": 1})])
    proc = dm.submit(spec)
    cluster.env.run(until=proc)
    assert proc.value.abort_reason is AbortReason.ADMISSION_BLOCKED
    assert dm.footprint.get_or_create(record).a_cnt == 2
