"""Closed-loop client terminals (the Benchbase driver substitute).

Each terminal repeatedly generates a transaction from the workload, submits it
to a middleware, waits for the outcome and immediately submits the next one —
the closed-loop, zero-think-time model the paper uses.  Every outcome is
handed to one :class:`~repro.metrics.MetricsCollector`, which folds it into
all the run's statistics (the run's time grid included).

Two routing modes exist:

* **Pinned** (the default): every terminal is bound to one middleware at
  construction, round-robin over the list — the original single-coordinator
  model, kept byte-identical for the golden pins.
* **Fleet**: when a :class:`~repro.cluster.fleet.MiddlewareFleet` is passed,
  each submission is routed through its policy, clean refusals
  (``TransactionResult.rejected``) fail over to a healthy middleware under
  the :class:`~repro.cluster.fleet.RetryPolicy`'s budget, and outcomes feed
  the fleet's failure detector.

Backoff after an ``UNAVAILABLE`` outcome follows the terminal's
:class:`~repro.cluster.fleet.RetryPolicy` in both modes: capped exponential
growth with deterministic seeded jitter, of which a fixed pause (the
``ExperimentConfig.retry`` default) is the special case that never grows and
never draws a random number.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common import AbortReason
from repro.cluster.fleet import MiddlewareFleet, RetryPolicy
from repro.metrics.collector import MetricsCollector
from repro.middleware.middleware import MiddlewareBase
from repro.sim import Environment, Process
from repro.sim.rng import SeededRNG
from repro.workloads.base import Workload


class ClientTerminal:
    """One closed-loop client session.

    ``retry`` paces reconnects after the middleware refused a submission
    (``AbortReason.UNAVAILABLE``) — without a pause a closed loop would spin
    at simulated-zero cost against a dead coordinator — and bounds fleet
    failover.
    """

    def __init__(self, env: Environment, terminal_id: int, middleware: MiddlewareBase,
                 workload: Workload, collector: MetricsCollector,
                 stop_at_ms: float,
                 fleet: Optional[MiddlewareFleet] = None, *,
                 retry: RetryPolicy, seed: int = 0,
                 autostart: bool = True):
        self.env = env
        self.terminal_id = terminal_id
        self.middleware = middleware
        self.workload = workload
        self.collector = collector
        self.stop_at_ms = stop_at_ms
        self.fleet = fleet
        self.retry = retry
        #: Failover retries spent so far (bounded by ``retry.budget``).
        self.retries_spent = 0
        self.transactions_run = 0
        # The jitter stream is derived, not shared: every terminal draws from
        # its own seeded RNG, so retry timing is independent of how many other
        # terminals are backing off (and of the workload's RNG consumption).
        # It is a pure function of (seed, terminal id), so it is built on the
        # first backoff: most terminals never back off.
        self._seed = seed
        self._retry_rng: Optional[SeededRNG] = None
        self._unavailable_streak = 0
        # ``autostart=False`` builds the terminal as a pure submitter — no
        # closed loop is started; the open-system pool
        # (:class:`~repro.cluster.open_loop.OpenClientPool`) drives
        # :meth:`_submit` one arrival at a time, reusing the exact fleet
        # failover/retry discipline above instead of duplicating it.
        self.process: Optional[Process] = (
            env.process(self._run(), name=f"terminal-{terminal_id}",
                        daemon=True)
            if autostart else None)

    # ------------------------------------------------------------------ loop
    def _run(self):
        while self.env.now < self.stop_at_ms:
            spec = self.workload.next_transaction(self.terminal_id)
            result = yield from self._submit(spec)
            if result.end_time > self.stop_at_ms:
                # Finished while a fault run drains: neither counted nor recorded.
                return
            self.transactions_run += 1
            self.collector.record(result, txn_type=spec.txn_type)
            if result.abort_reason is AbortReason.UNAVAILABLE:
                delay = self._backoff_ms(self._unavailable_streak)
                if delay:
                    yield delay
                self._unavailable_streak += 1
                # Re-check after the sleep: a backoff that lands at (or past)
                # the stop time must not buy one extra transaction.
                if self.env.now >= self.stop_at_ms:
                    break
            else:
                self._unavailable_streak = 0

    def _backoff_ms(self, attempt: int) -> float:
        if self._retry_rng is None:
            self._retry_rng = SeededRNG(self._seed).spawn(self.terminal_id)
        return self.retry.backoff_ms(attempt, self._retry_rng)

    # ---------------------------------------------------------------- submit
    def _submit(self, spec):
        """Generator: submit once — or, in fleet mode, with failover retries.

        Only *clean refusals* (``result.rejected``: the middleware was
        already crashed at submit time, nothing was coordinated) are retried
        against a different middleware; an interrupted in-flight coordination
        is returned as-is because its in-doubt branches may yet be committed
        by recovery — resubmitting the spec could duplicate its effects.
        """
        if self.fleet is None:
            result = yield self.middleware.submit(spec)
            return result
        middleware = self.fleet.route(self.terminal_id)
        failover = 0
        while True:
            self.fleet.note_submit(middleware, failover=failover > 0)
            result = yield middleware.submit(spec)
            self.fleet.note_result(middleware, result)
            if not result.rejected:
                return result
            if failover >= self.retry.max_failovers:
                return result
            if self.retries_spent >= self.retry.budget:
                self.fleet.note_budget_exhausted()
                return result
            self.retries_spent += 1
            self.fleet.retries += 1
            delay = self._backoff_ms(failover)
            if delay > 0:
                yield delay
            if self.env.now >= self.stop_at_ms:
                return result
            failover += 1
            middleware = self.fleet.route_away_from(self.terminal_id, middleware)


def start_terminals(env: Environment, middlewares: Sequence[MiddlewareBase],
                    workload: Workload, collector: MetricsCollector,
                    terminal_count: int, duration_ms: float,
                    fleet: Optional[MiddlewareFleet] = None, *,
                    retry: RetryPolicy,
                    seed: int = 0) -> List[ClientTerminal]:
    """Start ``terminal_count`` terminals over the middlewares.

    Without a ``fleet`` every terminal is pinned round-robin at construction
    (the legacy single-coordinator model); with one, terminals route each
    submission through the fleet's policy and the pinned assignment only
    serves as a deterministic fallback reference.
    """
    if terminal_count < 1:
        raise ValueError("terminal_count must be >= 1")
    if not middlewares:
        raise ValueError("at least one middleware is required")
    terminals = []
    for index in range(terminal_count):
        middleware = middlewares[index % len(middlewares)]
        terminals.append(ClientTerminal(
            env, index, middleware, workload, collector,
            stop_at_ms=duration_ms, fleet=fleet, retry=retry, seed=seed))
    return terminals
