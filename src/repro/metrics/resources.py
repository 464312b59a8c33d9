"""Resource-usage accounting (the Figure 6a/6b substitute).

The paper measures CPU utilisation and resident memory of the middleware
process.  Neither is meaningful inside a discrete-event simulator, so the
reproduction reports two proxies with the same comparative story:

* *coordination work per committed transaction* — messages sent plus statements
  routed, divided by commits; GeoTP does strictly less WAN coordination per
  commit than SSP, which is what the paper's "≈30 % higher CPU efficiency"
  captures;
* *middleware metadata bytes* — the extra memory a middleware keeps; GeoTP's
  hotspot footprint and latency statistics report their sizes here,
  reproducing the "≈300 MB more memory" direction (scaled to the simulated
  key space).
"""

from __future__ import annotations

import resource
import sys
from dataclasses import dataclass


def process_peak_rss_bytes() -> int:
    """Peak resident set size of the *calling process*, in bytes.

    Unlike the proxies above, this is real process memory — the flat-RSS
    claim of the open-system load engine is asserted against it.
    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise to
    bytes.  The value is a high-water mark for the whole process lifetime,
    so per-experiment readings taken from a pooled worker are upper bounds,
    not isolated measurements (fresh subprocesses give clean ones).
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux container in CI
        return int(peak)
    return int(peak * 1024)


@dataclass
class ResourceUsage:
    """Aggregate resource proxies of one middleware over one run."""

    work_units: int = 0
    wan_messages: int = 0
    metadata_bytes: int = 0
    committed: int = 0

    @property
    def work_per_commit(self) -> float:
        """Coordination work units per committed transaction."""
        if self.committed == 0:
            return 0.0
        return self.work_units / self.committed

    @property
    def wan_messages_per_commit(self) -> float:
        """WAN messages per committed transaction."""
        if self.committed == 0:
            return 0.0
        return self.wan_messages / self.committed
