"""Topology descriptions: where middlewares and data sources live.

The paper's default deployment places the client and the middleware in Beijing
together with one data node, and the remaining data nodes in Shanghai,
Singapore and London; the measured RTTs from the middleware are 0, 27, 73 and
251 ms (§VII-A3).  :meth:`TopologyConfig.multi_middleware` places K
coordinators over the same data nodes, one per named region: the
multi-middleware experiment (Figure 15) passes ``["beijing", "london"]``
(the second middleware co-located with the London data node), a fleet of K
co-located coordinators passes ``["beijing"] * K``.

A :class:`TopologyConfig` captures data nodes (with region, engine and an
optional explicit link to the first middleware), middlewares (name and region)
and cluster-wide settings such as the LAN RTT between a geo-agent and its data
source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.sim.latency import ConstantLatency, LatencyModel
from repro.storage.lock_manager import LOCK_WAIT_TIMEOUT_MS

#: Round-trip times (ms) between the regions used in the paper, measured from
#: public cloud latency tables; exact values only matter for the inter-agent
#: links (early abort) and the multi-middleware experiment.
_REGION_RTT_MS = {
    frozenset(["beijing"]): 0.0,
    frozenset(["shanghai"]): 0.0,
    frozenset(["singapore"]): 0.0,
    frozenset(["london"]): 0.0,
    frozenset(["beijing", "shanghai"]): 27.0,
    frozenset(["beijing", "singapore"]): 73.0,
    frozenset(["beijing", "london"]): 251.0,
    frozenset(["shanghai", "singapore"]): 62.0,
    frozenset(["shanghai", "london"]): 226.0,
    frozenset(["singapore", "london"]): 175.0,
}

#: Region order used by the default paper topology.
PAPER_REGIONS = ["beijing", "shanghai", "singapore", "london"]


def region_rtt_ms(region_a: str, region_b: str) -> float:
    """Round-trip time between two named regions (0 within a region)."""
    key = frozenset([region_a.lower(), region_b.lower()])
    if key not in _REGION_RTT_MS:
        raise KeyError(f"no RTT known between {region_a!r} and {region_b!r}")
    return _REGION_RTT_MS[key]


@dataclass
class DataNodeSpec:
    """One data source node."""

    name: str
    region: str = "beijing"
    #: The node's engine (``"mysql"`` or ``"postgresql"``): the name that keys
    #: its ``CostModel`` row.
    dialect: str = "mysql"
    #: Explicit RTT from the (first) middleware; overrides the region matrix.
    rtt_to_dm_ms: Optional[float] = None
    #: Full latency model for the middleware link (overrides ``rtt_to_dm_ms``).
    latency_model: Optional[LatencyModel] = None


@dataclass
class MiddlewareSpec:
    """One middleware node."""

    name: str = "dm"
    region: str = "beijing"


@dataclass
class TopologyConfig:
    """The full cluster layout."""

    data_nodes: List[DataNodeSpec]
    middlewares: List[MiddlewareSpec] = field(default_factory=lambda: [MiddlewareSpec()])
    #: Geo-agent <-> data source round trip.
    lan_rtt_ms: float = 0.5
    lock_wait_timeout_ms: float = LOCK_WAIT_TIMEOUT_MS

    def __post_init__(self) -> None:
        if not self.data_nodes:
            raise ValueError("a topology needs at least one data node")
        if not self.middlewares:
            raise ValueError("a topology needs at least one middleware")
        names = [node.name for node in self.data_nodes]
        if len(set(names)) != len(names):
            raise ValueError("data node names must be unique")
        dm_names = [dm.name for dm in self.middlewares]
        if len(set(dm_names)) != len(dm_names):
            # Transaction ids are prefixed with the middleware name; recovery
            # ownership and per-middleware attribution both key on that
            # prefix, so duplicates would silently merge two coordinators.
            raise ValueError("middleware names must be unique")

    # -------------------------------------------------------------- accessors
    def node_names(self) -> List[str]:
        """Names of all data nodes, in declaration order."""
        return [node.name for node in self.data_nodes]

    def node(self, name: str) -> DataNodeSpec:
        """The spec of data node ``name``."""
        for node in self.data_nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def middleware_link_model(self, middleware: MiddlewareSpec,
                              node: DataNodeSpec) -> LatencyModel:
        """Latency model of the link between a middleware and a data node."""
        if middleware is self.middlewares[0]:
            if node.latency_model is not None:
                return node.latency_model
            if node.rtt_to_dm_ms is not None:
                return ConstantLatency(node.rtt_to_dm_ms)
        return ConstantLatency(region_rtt_ms(middleware.region, node.region))

    def inter_node_rtt_ms(self, node_a: DataNodeSpec, node_b: DataNodeSpec) -> float:
        """RTT between two data nodes.

        The region matrix when both regions are in it; otherwise the larger
        of the two nodes' RTTs from the first middleware at time 0.  Feeds the
        agent-to-agent early-abort links and a co-located coordinator's links.
        """
        if node_a.name == node_b.name:
            return 0.0
        try:
            return region_rtt_ms(node_a.region, node_b.region)
        except KeyError:
            dm = self.middlewares[0]
            rtt_a = self.middleware_link_model(dm, node_a).rtt_at(0.0)
            rtt_b = self.middleware_link_model(dm, node_b).rtt_at(0.0)
            return max(rtt_a, rtt_b)

    # -------------------------------------------------------------- factories
    @classmethod
    def paper_default(cls, num_nodes: int = 4,
                      dialects: Optional[Sequence[str]] = None) -> "TopologyConfig":
        """The paper's default deployment: Beijing / Shanghai / Singapore / London."""
        if not 1 <= num_nodes <= len(PAPER_REGIONS):
            raise ValueError(f"num_nodes must be between 1 and {len(PAPER_REGIONS)}")
        dialects = list(dialects or [])
        nodes = []
        for index in range(num_nodes):
            dialect = dialects[index] if index < len(dialects) else "mysql"
            nodes.append(DataNodeSpec(name=f"ds{index}", region=PAPER_REGIONS[index],
                                      dialect=dialect))
        return cls(data_nodes=nodes, middlewares=[MiddlewareSpec(region="beijing")])

    @classmethod
    def from_rtts(cls, rtts_ms: Sequence[float],
                  dialects: Optional[Sequence[str]] = None) -> "TopologyConfig":
        """A synthetic topology with explicit middleware RTTs per node."""
        if not rtts_ms:
            raise ValueError("at least one RTT is required")
        dialects = list(dialects or [])
        nodes = []
        for index, rtt in enumerate(rtts_ms):
            dialect = dialects[index] if index < len(dialects) else "mysql"
            nodes.append(DataNodeSpec(name=f"ds{index}", region=f"region{index}",
                                      dialect=dialect, rtt_to_dm_ms=float(rtt)))
        return cls(data_nodes=nodes, middlewares=[MiddlewareSpec()])

    @classmethod
    def from_latency_models(cls, models: Sequence[LatencyModel]) -> "TopologyConfig":
        """A synthetic topology with a full latency model per node (Figs. 10–11)."""
        if not models:
            raise ValueError("at least one latency model is required")
        nodes = [DataNodeSpec(name=f"ds{index}", region=f"region{index}",
                              latency_model=model)
                 for index, model in enumerate(models)]
        return cls(data_nodes=nodes, middlewares=[MiddlewareSpec()])

    @classmethod
    def multi_middleware(cls, regions: Sequence[str],
                         num_nodes: int = 4) -> "TopologyConfig":
        """``len(regions)`` middlewares over the paper's data nodes.

        Middleware ``dm{i+1}`` sits in ``regions[i]``: ``["beijing",
        "london"]`` is the Figure 15 layout, ``["beijing"] * K`` the
        co-located fleet the runner builds for ``middleware_count=K``.
        """
        return cls(
            data_nodes=cls.paper_default(num_nodes=num_nodes).data_nodes,
            middlewares=[MiddlewareSpec(name=f"dm{index + 1}", region=region)
                         for index, region in enumerate(regions)])
