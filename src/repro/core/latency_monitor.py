"""Network latency monitoring with exponentially weighted moving averages.

The paper's implementation runs a dedicated thread that pings every data source
every 10 ms and smooths the measurements with an EWMA (§VI, §VII-D "online
adaptivity").  The simulated monitor learns the same way: passively from every
observed request/response round trip, and optionally from an active probing
process that pings each participant endpoint at a configurable interval.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import protocol
from repro.sim import Environment
from repro.sim.network import NetworkInterface


class NetworkLatencyMonitor:
    """Tracks an EWMA estimate of the RTT to each participant."""

    def __init__(self, env: Environment, alpha: float = 0.8,
                 default_rtt_ms: float = 0.0):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.env = env
        self.alpha = alpha
        self.default_rtt_ms = default_rtt_ms
        self._estimates: Dict[str, float] = {}
        self._samples: Dict[str, int] = {}

    # ----------------------------------------------------------------- updates
    def record(self, participant: str, rtt_ms: float) -> None:
        """Fold one observed round trip into the estimate for ``participant``."""
        if rtt_ms < 0:
            return
        current = self._estimates.get(participant)
        if current is None:
            self._estimates[participant] = rtt_ms
        else:
            self._estimates[participant] = (
                self.alpha * current + (1.0 - self.alpha) * rtt_ms)
        self._samples[participant] = self._samples.get(participant, 0) + 1

    def prime(self, participant: str, rtt_ms: float) -> None:
        """Seed the estimate (used at deployment time from the topology's nominal RTTs)."""
        self._estimates.setdefault(participant, rtt_ms)

    # ---------------------------------------------------------------- queries
    def estimate(self, participant: str) -> float:
        """Current RTT estimate in ms (falls back to the default when unknown)."""
        return self._estimates.get(participant, self.default_rtt_ms)

    def sample_count(self, participant: str) -> int:
        """How many measurements have been folded in for ``participant``."""
        return self._samples.get(participant, 0)

    def estimates(self) -> Dict[str, float]:
        """All current estimates."""
        return dict(self._estimates)

    def memory_bytes(self) -> int:
        """Approximate memory for the latency table (Figure 6b proxy)."""
        return len(self._estimates) * 48

    # ---------------------------------------------------------------- probing
    def start_probing(self, net: NetworkInterface, endpoints: Dict[str, str],
                      interval_ms: float = 1000.0,
                      until_ms: Optional[float] = None) -> None:
        """Start an active probe loop pinging each endpoint every ``interval_ms``.

        ``endpoints`` maps participant names to network node names.  Passive
        measurement usually suffices; active probing matters when a link's
        latency changes while no transaction is using it (Figure 11b).
        """

        def probe_loop(participant: str, endpoint: str):
            while until_ms is None or self.env.now < until_ms:
                sent_at = self.env.now
                reply = net.request(endpoint, protocol.MSG_PING, {})
                yield reply
                self.record(participant, self.env.now - sent_at)
                yield self.env.timeout(interval_ms)

        for participant, endpoint in endpoints.items():
            self.env.process(probe_loop(participant, endpoint),
                             name=f"probe:{participant}")
