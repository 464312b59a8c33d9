"""Contrib plugins: systems and workloads shipped outside the core layers.

Every module in this package is a *self-registering plugin*: importing it
registers its :class:`~repro.plugins.SystemPlugin` /
:class:`~repro.plugins.WorkloadPlugin` (and, via
:func:`~repro.plugins.register_scenario_hook`, any scenarios) without touching
``repro.cluster.deployment`` or ``repro.bench.runner``.  The package imports
its submodules in sorted order, so dropping a new module here is all it takes
to add a system or workload.
"""

import importlib
import pkgutil

for _module in sorted(info.name for info in pkgutil.iter_modules(__path__)):
    importlib.import_module(f"{__name__}.{_module}")
