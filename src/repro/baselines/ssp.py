"""SSP: the Apache ShardingSphere baseline.

ShardingSphere coordinates distributed transactions with the standard XA
two-phase commit driven from the middleware, which is exactly what
:class:`~repro.middleware.coordinator.TwoPhaseCommitCoordinator` implements.
This subclass only pins the system name used in reports.
"""

from __future__ import annotations

from repro.middleware.coordinator import TwoPhaseCommitCoordinator
from repro.plugins import SystemPlugin, register_system


class SSPCoordinator(TwoPhaseCommitCoordinator):
    """ShardingSphere-style middleware XA coordinator."""

    system_name = "SSP"


# ------------------------------------------------------------------- plugin
register_system(SystemPlugin(
    name="ssp",
    description="ShardingSphere-style middleware XA 2PC (the paper's base system)",
    aliases=("shardingsphere",),
    coordinator=SSPCoordinator,
))
