"""Open-system arrival processes: offered load as a *rate*, not a terminal count.

Every scenario before this module was closed-loop — N terminals that wait for
each outcome before submitting again — so the offered load could never exceed
the system's capacity and the goodput/latency knee the paper's admission
control (§IV-C) exists for was unreachable.  An :class:`ArrivalProcess` turns
the load axis into transactions *per second of simulated time*: a generator
process draws inter-arrival gaps from the process and hands each arrival to a
bounded client pool (:class:`~repro.cluster.open_loop.OpenClientPool`), which
sheds arrivals when every client slot is busy.

Three processes cover the classic open-system shapes:

* :class:`PoissonArrivals` — memoryless arrivals at a constant mean rate, the
  M/·/· baseline every queueing result is stated against;
* :class:`MMPPArrivals` — a two-state Markov-modulated Poisson process that
  alternates between a quiet state and a burst state (rate × ``BURST_FACTOR``)
  with exponentially distributed dwell times, modelling flash crowds while
  keeping the configured *mean* rate exact;
* :class:`DiurnalArrivals` — a sinusoidal day/night wave implemented by
  thinning a peak-rate Poisson stream, so the instantaneous rate follows
  ``rate · (1 + AMPLITUDE · sin(2πt/period))`` exactly.

All randomness flows through one :class:`~repro.sim.rng.SeededRNG`, so a given
``(config, seed)`` reproduces the same arrival timestamps bit for bit — the
same determinism contract the closed-loop workloads honour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.sim.rng import SeededRNG

#: Registered arrival-process names (the ``ArrivalConfig.process`` values).
ARRIVAL_PROCESSES = ("poisson", "mmpp", "diurnal")


@dataclass
class ArrivalConfig:
    """Declarative open-system traffic shape (``ExperimentConfig.arrival``).

    Setting this on an experiment config switches the run from closed-loop
    terminals to an open-system client pool; ``rate_tps`` is then the sweep
    axis the ``load_sweep`` scenario family drives past saturation.
    """

    #: One of :data:`ARRIVAL_PROCESSES`.
    process: str = "poisson"
    #: Mean offered load in transactions per simulated second.
    rate_tps: float = 200.0
    #: Bound on concurrently open client sessions; arrivals beyond it are
    #: shed (counted, never queued), which keeps client-side memory O(1).
    max_clients: int = 256
    #: Diurnal: period of the rate wave, in ms.
    period_ms: float = 60_000.0
    #: RNG seed of the arrival stream; the runner stamps the experiment seed
    #: here (same contract as ``WorkloadConfig.seed``).
    seed: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` on any out-of-range knob (fail before the run)."""
        if self.process not in ARRIVAL_PROCESSES:
            raise ValueError(f"unknown arrival process {self.process!r}; "
                             f"choose one of {list(ARRIVAL_PROCESSES)}")
        if self.rate_tps <= 0:
            raise ValueError("rate_tps must be positive")
        if self.max_clients < 1:
            raise ValueError("max_clients must be >= 1")
        if self.period_ms <= 0:
            raise ValueError("period_ms must be positive")

    def stamped(self, seed: int) -> "ArrivalConfig":
        """A copy with the experiment seed stamped on (never mutates shared
        configs — the same contract ``make_workload`` keeps for workloads)."""
        return replace(self, seed=seed)


class ArrivalProcess:
    """Base class: a deterministic stream of inter-arrival gaps."""

    def __init__(self, config: ArrivalConfig):
        config.validate()
        self.config = config
        # Arrival timing draws from its own derived stream so it is
        # independent of the workload's RNG consumption (and vice versa).
        self.rng = SeededRNG(config.seed).spawn(0x0A2217)

    def next_gap_ms(self, now_ms: float) -> float:
        """Milliseconds from ``now_ms`` until the next arrival."""
        raise NotImplementedError

    def mean_rate_tps(self) -> float:
        """The long-run mean arrival rate (what ``rate_tps`` configures)."""
        return self.config.rate_tps


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals: exponential gaps at the mean rate."""

    def __init__(self, config: ArrivalConfig):
        super().__init__(config)
        self._mean_gap_ms = 1000.0 / config.rate_tps

    def next_gap_ms(self, now_ms: float) -> float:
        return self.rng.exponential(self._mean_gap_ms)


class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (quiet ↔ burst).

    The quiet-state rate is derated so the *long-run mean* equals the
    configured ``rate_tps`` exactly::

        mean = (1 - f) · r_quiet + f · r_quiet · BURST_FACTOR  =  rate_tps

    with ``f = BURST_FRACTION``.  State dwell times are exponential (mean
    ``MEAN_BURST_MS`` in the burst
    state, scaled by the odds ratio in the quiet state), and arrivals are
    drawn with the memoryless-restart construction: a candidate gap that
    crosses the next state switch is discarded and redrawn from the switch
    point at the new state's rate, which is exact for exponential gaps.
    """

    #: Burst-state rate multiplier.
    BURST_FACTOR = 8.0
    #: Long-run fraction of time spent in the burst state.
    BURST_FRACTION = 0.1
    #: Mean dwell time of one burst, in ms.
    MEAN_BURST_MS = 500.0

    def __init__(self, config: ArrivalConfig):
        super().__init__(config)
        f, b = self.BURST_FRACTION, self.BURST_FACTOR
        quiet_rate = config.rate_tps / ((1.0 - f) + f * b)
        self._gap_ms = (1000.0 / quiet_rate, 1000.0 / (quiet_rate * b))
        self._dwell_ms = (self.MEAN_BURST_MS * (1.0 - f) / f, self.MEAN_BURST_MS)
        self._state = 0  # start quiet; the seeded dwell draw decides the rest
        self._switch_at_ms = self.rng.exponential(self._dwell_ms[0])

    def next_gap_ms(self, now_ms: float) -> float:
        at = now_ms
        while True:
            gap = self.rng.exponential(self._gap_ms[self._state])
            if at + gap < self._switch_at_ms:
                return (at + gap) - now_ms
            # Crossed a state switch: jump to it, toggle, redraw (memoryless).
            at = self._switch_at_ms
            self._state = 1 - self._state
            self._switch_at_ms = at + self.rng.exponential(
                self._dwell_ms[self._state])


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal day/night rate wave via Poisson thinning.

    Candidates are generated at the peak rate ``rate · (1 + AMPLITUDE)`` and
    accepted with probability ``rate(t) / peak``; the accepted stream is an
    exact non-homogeneous Poisson process with the sinusoidal intensity.
    """

    #: Relative swing of the wave (0 = flat, 1 = rate touches zero).
    AMPLITUDE = 0.8

    def __init__(self, config: ArrivalConfig):
        super().__init__(config)
        self._peak_rate = config.rate_tps * (1.0 + self.AMPLITUDE)
        self._mean_gap_ms = 1000.0 / self._peak_rate
        self._omega = 2.0 * math.pi / config.period_ms

    def rate_at(self, t_ms: float) -> float:
        """Instantaneous arrival rate (tps) at simulated time ``t_ms``."""
        return self.config.rate_tps * (
            1.0 + self.AMPLITUDE * math.sin(self._omega * t_ms))

    def next_gap_ms(self, now_ms: float) -> float:
        at = now_ms
        while True:
            at += self.rng.exponential(self._mean_gap_ms)
            if self.rng.random() * self._peak_rate <= self.rate_at(at):
                return at - now_ms


_PROCESS_CLASSES = {
    "poisson": PoissonArrivals,
    "mmpp": MMPPArrivals,
    "diurnal": DiurnalArrivals,
}


def make_arrivals(config: ArrivalConfig) -> ArrivalProcess:
    """Instantiate the arrival process selected by ``config.process``."""
    config.validate()
    return _PROCESS_CLASSES[config.process](config)
