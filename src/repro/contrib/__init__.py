"""Contrib plugins: systems and workloads shipped outside the core layers.

Every module in this package is a *self-registering plugin*: importing it
registers its :class:`~repro.plugins.SystemPlugin` /
:class:`~repro.plugins.WorkloadPlugin` without touching
``repro.cluster.deployment`` or ``repro.bench.runner``.  The scenarios over
these systems and workloads are rows in ``repro.bench.scenarios``, so no
module here imports the bench layer.  The package imports
its submodules in sorted order, so dropping a new module here is all it takes
to add a system or workload.
"""

import importlib
import pkgutil

for _module in sorted(info.name for info in pkgutil.iter_modules(__path__)):
    importlib.import_module(f"{__name__}.{_module}")
