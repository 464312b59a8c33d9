"""Plugin registries: the open-for-extension seams of the harness.

The reproduction compares many *systems* (coordination protocols) over many
*workloads* on one shared simulated substrate.  Both axes are registries of
self-describing plugins instead of closed ``if system == ...`` ladders:

* :class:`SystemPlugin` — registered by each coordinator module (the seven
  baselines, GeoTP, and any contrib variant).  A plugin carries its
  coordinator class plus *capability flags* (``needs_agents``,
  ``colocated_with_ds0``).  Every coordinator is built by the same call (see
  :class:`SystemPlugin`), and ``repro.cluster.deployment`` consumes only
  these capabilities and never compares system names.
* :class:`WorkloadPlugin` — registered by each workload module (YCSB, TPC-C,
  contrib workloads).  ``repro.bench.runner.make_workload`` instantiates
  whatever the registry returns.

Registration happens as a side effect of importing the defining module;
:func:`load_plugins` imports the builtin modules (``repro.baselines``,
``repro.core.geotp``, every ``repro.contrib`` submodule) in that order;
``import repro`` calls it before importing anything else, so the registry
order is this module order.  Adding a ninth system or a third workload is
therefore one self-registering module dropped into ``repro/contrib/`` — no
edits to the cluster, runner or CLI layers.

Name canonicalization lives here too: :func:`normalize_system` /
:func:`normalize_workload` are the single canonicalizers every entry point
(``build_cluster``, scenario sweeps, the CLI) routes through, so aliases like
``ScalarDB+`` or ``TPC-C`` resolve identically everywhere.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import-time cycles avoided on purpose
    from repro.workloads.base import Workload, WorkloadConfig

#: Modules whose import registers the builtin plugins.  ``repro.contrib`` in
#: turn imports every module dropped into the contrib package.
_BUILTIN_PLUGIN_MODULES = ("repro.baselines", "repro.core.geotp", "repro.contrib")


def canonical_key(name: str) -> str:
    """The spelling-insensitive key of a plugin name (case/hyphen/space folded)."""
    return name.strip().lower().replace("-", "_").replace(" ", "_")


# ------------------------------------------------------------------- plugins
@dataclass(frozen=True)
class SystemPlugin:
    """One system under test: its coordinator class plus capability flags."""

    #: Canonical system identifier (lowercase, underscores).
    name: str
    #: The :class:`~repro.middleware.middleware.MiddlewareBase` subclass; the
    #: deployment builds every node as ``coordinator(env, network, name,
    #: participants, partitioner, geotp_config=..., seed=...)``.
    coordinator: type
    description: str = ""
    #: Alternate spellings resolving to this plugin (already case-folded by
    #: :func:`canonical_key` at registration).
    aliases: Tuple[str, ...] = ()
    #: The middleware talks to per-data-source geo-agents instead of raw data
    #: sources (GeoTP's O1); the deployment builds and wires the agents.
    needs_agents: bool = False
    #: The coordinator runs co-located with the first data node, so its link
    #: cost to every node is the inter-node RTT (YugabyteDB-style kernels).
    colocated_with_ds0: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "aliases",
                           tuple(canonical_key(a) for a in self.aliases))


@dataclass(frozen=True)
class WorkloadPlugin:
    """One workload family: generator factory plus config construction."""

    #: Canonical workload identifier (lowercase, underscores).
    name: str
    #: ``factory(datasource_names, config) -> Workload``.
    factory: Callable[[Sequence[str], "WorkloadConfig"], "Workload"]
    #: Zero-arg factory of the workload's default configuration.
    config_factory: Callable[[], "WorkloadConfig"]
    description: str = ""
    aliases: Tuple[str, ...] = ()
    #: Name of the legacy ``ExperimentConfig`` field carrying this workload's
    #: config ("ycsb"/"tpcc"); plugin-shipped workloads use the generic
    #: ``ExperimentConfig.workload_config`` slot instead and leave this None.
    config_field: Optional[str] = None
    #: Config type this workload accepts; derived from ``config_factory`` when
    #: that is a class.  Used to reject a stale ``workload_config`` left over
    #: from a different workload with a clear error.
    config_type: Optional[type] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "aliases",
                           tuple(canonical_key(a) for a in self.aliases))
        if self.config_type is None and isinstance(self.config_factory, type):
            object.__setattr__(self, "config_type", self.config_factory)

    def create(self, datasource_names: Sequence[str],
               config: "WorkloadConfig") -> "Workload":
        """Instantiate the workload generator over the given data sources."""
        return self.factory(datasource_names, config)


# ------------------------------------------------------------------ registry
class PluginRegistry:
    """Ordered name -> plugin mapping with alias-aware canonicalization."""

    def __init__(self, kind: str):
        self.kind = kind
        self._plugins: Dict[str, Any] = {}
        self._aliases: Dict[str, str] = {}

    def register(self, plugin: Any) -> Any:
        """Add (or replace) a plugin; names and aliases must not shadow each other."""
        name = canonical_key(plugin.name)
        if name != plugin.name:
            raise ValueError(f"{self.kind} name {plugin.name!r} is not canonical "
                             f"(expected {name!r})")
        alias_owner = self._aliases.get(name)
        if alias_owner is not None and alias_owner != name:
            # normalize() consults aliases first, so a plugin named after
            # another plugin's alias would register but never resolve.
            raise ValueError(f"{self.kind} name {name!r} collides with an "
                             f"alias of {alias_owner!r}")
        for alias in plugin.aliases:
            owner = self._aliases.get(alias)
            if (owner is not None and owner != name) or (
                    alias in self._plugins and alias != name):
                raise ValueError(f"{self.kind} alias {alias!r} of {name!r} "
                                 f"collides with {owner or alias!r}")
        self._plugins[name] = plugin
        for alias in plugin.aliases:
            self._aliases[alias] = name
        return plugin

    def normalize(self, name: str) -> str:
        """Resolve any accepted spelling to the canonical plugin name."""
        key = canonical_key(name)
        key = self._aliases.get(key, key)
        if key not in self._plugins:
            known = ", ".join(self.names())
            raise ValueError(f"unknown {self.kind} {name!r}; "
                             f"expected one of ({known})")
        return key

    def get(self, name: str) -> Any:
        """Look up a plugin by any accepted spelling."""
        return self._plugins[self.normalize(name)]

    def names(self) -> List[str]:
        """Canonical plugin names, in registration order."""
        return list(self._plugins)

    def plugins(self) -> List[Any]:
        """All registered plugins, in registration order."""
        return list(self._plugins.values())

    def __contains__(self, name: str) -> bool:
        try:
            self.normalize(name)
        except ValueError:
            return False
        return True


SYSTEMS = PluginRegistry("system")
WORKLOADS = PluginRegistry("workload")


# ------------------------------------------------------------------- loading
_plugins_loaded = False
_plugins_loading = False


def load_plugins() -> None:
    """Import every module that registers a builtin (or contrib) plugin.

    Idempotent and re-entrant: a separate in-progress flag stops a plugin
    module that itself touches the registries from recursing, while the
    done flag is only set on success — a broken plugin module raises here
    and the next call retries the import instead of serving a silently
    half-empty registry.  ``import repro`` calls it first; the lookup
    helpers call it too, which is then a no-op.
    """
    global _plugins_loaded, _plugins_loading
    if _plugins_loaded or _plugins_loading:
        return
    _plugins_loading = True
    try:
        for module in _BUILTIN_PLUGIN_MODULES:
            importlib.import_module(module)
        _plugins_loaded = True
    finally:
        _plugins_loading = False


def _normalize(registry: PluginRegistry, name: str) -> str:
    """Canonical name in ``registry``, once the plugins are loaded."""
    load_plugins()
    return registry.normalize(name)


# ----------------------------------------------------------- system helpers
def register_system(plugin: SystemPlugin) -> SystemPlugin:
    """Register a system plugin (called by the coordinator's module)."""
    return SYSTEMS.register(plugin)


def get_system_plugin(name: str) -> SystemPlugin:
    """The system plugin for any accepted spelling of ``name``."""
    return SYSTEMS.get(_normalize(SYSTEMS, name))


def normalize_system(name: str) -> str:
    """Canonical system identifier for any accepted spelling (single source)."""
    return _normalize(SYSTEMS, name)


def system_names() -> List[str]:
    """Canonical names of every registered system, in registration order."""
    load_plugins()
    return SYSTEMS.names()


def system_plugins() -> List[SystemPlugin]:
    """Every registered system plugin, in registration order."""
    load_plugins()
    return SYSTEMS.plugins()


# --------------------------------------------------------- workload helpers
def register_workload(plugin: WorkloadPlugin) -> WorkloadPlugin:
    """Register a workload plugin (called by the workload's module)."""
    return WORKLOADS.register(plugin)


def get_workload_plugin(name: str) -> WorkloadPlugin:
    """The workload plugin for any accepted spelling of ``name``."""
    return WORKLOADS.get(_normalize(WORKLOADS, name))


def normalize_workload(name: str) -> str:
    """Canonical workload identifier for any accepted spelling."""
    return _normalize(WORKLOADS, name)


def workload_names() -> List[str]:
    """Canonical names of every registered workload, in registration order."""
    load_plugins()
    return WORKLOADS.names()


def workload_plugins() -> List[WorkloadPlugin]:
    """Every registered workload plugin, in registration order."""
    load_plugins()
    return WORKLOADS.plugins()
