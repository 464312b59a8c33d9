"""Database-middleware layer (the ShardingSphere-like substrate).

The middleware accepts transactions from clients, parses and rewrites them into
per-data-source subtransactions, routes them according to the data partitioning
and coordinates the XA two-phase commit.  The base coordinator in
:mod:`repro.middleware.coordinator` reproduces the behaviour of the paper's SSP
baseline; GeoTP and the other baselines subclass it and override the
scheduling / prepare / commit hooks.
"""

from repro.middleware.statements import TransactionSpec
from repro.middleware.parser import ParseError, SqlParser
from repro.middleware.router import (
    ModuloPartitioner,
    Partitioner,
    WarehousePartitioner,
)
from repro.middleware.rewriter import Rewriter, SubtransactionPlan
from repro.middleware.context import TransactionContext, TransactionPhase
from repro.middleware.middleware import MiddlewareBase, ParticipantHandle
from repro.middleware.coordinator import TwoPhaseCommitCoordinator

__all__ = [
    "MiddlewareBase",
    "ModuloPartitioner",
    "ParseError",
    "ParticipantHandle",
    "Partitioner",
    "Rewriter",
    "SqlParser",
    "SubtransactionPlan",
    "TransactionContext",
    "TransactionPhase",
    "TransactionSpec",
    "TwoPhaseCommitCoordinator",
    "WarehousePartitioner",
]
