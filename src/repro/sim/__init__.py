"""Discrete-event simulation engine.

This package provides the simulated substrate on which every other component of
the GeoTP reproduction runs: the kernel in :mod:`repro.sim._kernel` — an event
loop with a virtual millisecond clock, generator-based processes, events,
resources and the 2PL lock manager — a point-to-point network model with
pluggable latency distributions (:mod:`repro.sim.network`,
:mod:`repro.sim.latency`) and seeded random number utilities
(:mod:`repro.sim.rng`).  This package is the kernel's public face: code outside
``repro.sim`` imports the kernel classes from here.

The engine follows the classic SimPy design: a process is a Python generator
that yields events; the environment resumes the generator when the yielded
event fires.  All timestamps are floats in simulated milliseconds.
"""

from repro.sim._kernel.environment import EmptySchedule, Environment
from repro.sim._kernel.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim._kernel.process import Process
from repro.sim._kernel.resources import Resource, ResourceRequest, Store
from repro.sim.latency import (
    ConstantLatency,
    DynamicLatency,
    JitterLatency,
    LatencyModel,
    RandomLatency,
)
from repro.sim.network import Message, Network, NetworkInterface
from repro.sim.rng import SeededRNG, ZipfianGenerator


def active_engine() -> str:
    """Always ``"pure"``: the perf ledger still records it with every job, so it
    stays until the ledger's ``--engine`` flag is dropped."""
    return "pure"


__all__ = [
    "AllOf",
    "AnyOf",
    "ConstantLatency",
    "DynamicLatency",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "JitterLatency",
    "LatencyModel",
    "Message",
    "Network",
    "NetworkInterface",
    "Process",
    "RandomLatency",
    "Resource",
    "ResourceRequest",
    "SeededRNG",
    "Store",
    "Timeout",
    "ZipfianGenerator",
    "active_engine",
]
