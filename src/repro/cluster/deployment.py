"""Deployment: instantiate a full simulated cluster for one system under test.

``build_cluster`` wires up the network, data sources, geo-agents (for systems
whose plugin declares ``needs_agents``) and one middleware per
:class:`~repro.cluster.topology.MiddlewareSpec`.  Which systems exist and how
their links are wired is decided entirely by the :mod:`repro.plugins` system
registry: every coordinator module registers a
:class:`~repro.plugins.SystemPlugin` carrying its coordinator class and
capability flags.  Every coordinator is built by the same call, and this
module consumes only those capabilities — it never compares system names.
``python -m repro.bench list --systems`` prints the live registry; adding a
system is one self-registering module, with no edits here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.topology import MiddlewareSpec, TopologyConfig
from repro.core import GeoAgent, GeoTPConfig
from repro.middleware.middleware import MiddlewareBase, ParticipantHandle
from repro.middleware.router import Partitioner
from repro.plugins import (
    SystemPlugin,
    get_system_plugin,
    normalize_system,
    system_names,
)
from repro.sim import Environment
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.storage.datasource import DataSource, DataSourceConfig


def __getattr__(name: str):
    # ``SUPPORTED_SYSTEMS`` is derived from the registry (in registration
    # order) instead of being a closed tuple; computing it lazily keeps plugin
    # loading off this module's import path.
    if name == "SUPPORTED_SYSTEMS":
        return tuple(system_names())
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class Cluster:
    """A fully wired simulated deployment."""

    env: Environment
    network: Network
    topology: TopologyConfig
    system: str
    partitioner: Partitioner
    datasources: Dict[str, DataSource]
    agents: Dict[str, GeoAgent] = field(default_factory=dict)
    middlewares: List[MiddlewareBase] = field(default_factory=list)

    @property
    def middleware(self) -> MiddlewareBase:
        """The first (often only) middleware."""
        return self.middlewares[0]

    def middleware_named(self, name: str) -> MiddlewareBase:
        """The middleware called ``name`` (fault targets, fleet tests)."""
        for middleware in self.middlewares:
            if middleware.name == name:
                return middleware
        known = ", ".join(m.name for m in self.middlewares)
        raise KeyError(f"no middleware named {name!r} (known: {known})")

    def load_workload(self, workload) -> None:
        """Bulk-load a workload's initial data into the data sources."""
        workload.load_into(self.datasources)

    def close(self) -> None:
        """End the cluster's life (build -> load -> run -> close).

        Breaks every reference cycle of the deployment, so that dropping the
        cluster frees it at once by reference counting instead of leaving
        tens of thousands of objects to a later cyclic collection.
        """
        self.env.close()
        self.network.close()
        for node in (*self.datasources.values(), *self.agents.values()):
            node.close()


def build_cluster(system: str, topology: TopologyConfig, partitioner: Partitioner,
                  env: Optional[Environment] = None,
                  geotp_config: Optional[GeoTPConfig] = None,
                  seed: int = 0) -> Cluster:
    """Build a cluster running ``system`` on ``topology``.

    The ``partitioner`` must be built over ``topology.node_names()`` (workloads
    provide one via :meth:`~repro.workloads.base.Workload.make_partitioner`).
    """
    plugin = get_system_plugin(system)
    system = plugin.name
    env = env or Environment()
    network = Network(env)

    datasources = _build_datasources(env, network, topology)
    agents: Dict[str, GeoAgent] = {}
    if plugin.needs_agents:
        agents = _build_agents(env, network, topology)

    middlewares: List[MiddlewareBase] = []
    for index, dm_spec in enumerate(topology.middlewares):
        _wire_middleware_links(network, topology, dm_spec, plugin, agents)
        participants = _participant_handles(topology, agents)
        # Each middleware gets its own RNG stream, offset by its index.
        middlewares.append(plugin.coordinator(
            env, network, dm_spec.name, participants, partitioner,
            geotp_config=geotp_config, seed=seed + index))

    return Cluster(env=env, network=network, topology=topology, system=system,
                   partitioner=partitioner, datasources=datasources, agents=agents,
                   middlewares=middlewares)


# ---------------------------------------------------------------------- pieces
def _build_datasources(env: Environment, network: Network,
                       topology: TopologyConfig) -> Dict[str, DataSource]:
    datasources = {}
    for node in topology.data_nodes:
        config = DataSourceConfig(
            name=node.name,
            dialect=node.dialect,
            lock_wait_timeout_ms=topology.lock_wait_timeout_ms)
        datasources[node.name] = DataSource(env, network, config)
    return datasources


def _agent_name(node_name: str) -> str:
    return f"agent-{node_name}"


def _build_agents(env: Environment, network: Network,
                  topology: TopologyConfig) -> Dict[str, GeoAgent]:
    agents = {}
    for node in topology.data_nodes:
        agent = GeoAgent(env, network, _agent_name(node.name), node.name)
        agents[node.name] = agent
        network.set_link(agent.name, node.name,
                         ConstantLatency(topology.lan_rtt_ms))
    # Agent-to-agent WAN links (early abort notifications).
    for i, node_a in enumerate(topology.data_nodes):
        for node_b in topology.data_nodes[i + 1:]:
            rtt = topology.inter_node_rtt_ms(node_a, node_b)
            network.set_link(_agent_name(node_a.name), _agent_name(node_b.name),
                             ConstantLatency(rtt))
    return agents


def _wire_middleware_links(network: Network, topology: TopologyConfig,
                           dm_spec: MiddlewareSpec, plugin: SystemPlugin,
                           agents: Dict[str, GeoAgent]) -> None:
    for index, node in enumerate(topology.data_nodes):
        if plugin.colocated_with_ds0:
            # The coordinator is co-located with the first data node; its cost
            # to reach other nodes is the inter-node (region-to-region) RTT.
            model = ConstantLatency(
                topology.inter_node_rtt_ms(topology.data_nodes[0], node))
        else:
            model = topology.middleware_link_model(dm_spec, node)
        endpoint = _agent_name(node.name) if node.name in agents else node.name
        network.set_link(dm_spec.name, endpoint, model)
        if node.name in agents:
            # Direct middleware <-> data source link kept for recovery traffic.
            network.set_link(dm_spec.name, node.name, model)


def _participant_handles(topology: TopologyConfig,
                         agents: Dict[str, GeoAgent]) -> Dict[str, ParticipantHandle]:
    handles = {}
    for node in topology.data_nodes:
        endpoint = _agent_name(node.name) if node.name in agents else node.name
        handles[node.name] = ParticipantHandle(name=node.name, endpoint=endpoint)
    return handles
