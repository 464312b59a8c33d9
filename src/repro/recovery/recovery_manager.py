"""The middleware's failure-recovery protocol (§V-A).

Recovery answers three questions: *which* transactions need recovery, *where*
the information needed to decide them lives, and *how* to finish them.  One
pass, :meth:`RecoveryManager.resolve_in_doubt`, answers them for both crash
kinds: it collects the prepared-but-undecided branches from the data sources
and consults the coordinator's flushed decision log.  Branches whose
transaction has a logged decision are driven to that decision; branches
without one are rolled back, because the transaction can never have entered
the commit phase (AC3/AC4).

* After a **middleware crash**, the database servers roll back the dead
  coordinator's unprepared sessions (``DataSource.kill_sessions``) and the
  restarted (stateless) middleware runs the pass over every data source.
  Each listing kills those sessions again first: a batch sent before the
  crash may have opened a branch since (per-link FIFO delivery puts it ahead
  of the listing).
* After a **data source crash**, the node itself drops its lost, unprepared
  branches (``DataSource._end_branch`` with ``served=False``).  Their live coordinators
  see the refusal and abort the transaction, rolling back the siblings.  On
  restart every middleware, a crashed one too, runs the pass over the
  restarted node only.  It skips a live transaction without a logged
  decision, which only its coordinator may decide; a logged decision is
  driven home, since its delivery may have hit the node while it was down.

A fault run drains until every pass is done; its end state must then hold
no PREPARED branch (the ``wal_in_doubt_empty`` invariant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro import protocol
from repro.middleware.middleware import MiddlewareBase
from repro.storage.wal import LogRecordType


@dataclass
class RecoveryReport:
    """What a recovery pass did."""

    committed: List[str] = field(default_factory=list)
    rolled_back: List[str] = field(default_factory=list)


class RecoveryManager:
    """Drives in-doubt transactions to a consistent outcome after a crash."""

    def __init__(self, middleware: MiddlewareBase):
        self.middleware = middleware

    def resolve_in_doubt(self, participant_names: Optional[Iterable[str]] = None,
                         skip_global_ids: Iterable[str] = (),
                         owned_prefix: Optional[str] = None):
        """Generator: drive prepared-but-undecided branches to their outcome.

        Collects the prepared branches of the named participants (all of them
        by default), consults the decision log and commits or rolls back each
        branch (AC3/AC4: no logged decision means the transaction never
        entered the commit phase, so rollback is safe).

        ``skip_global_ids`` exempts transactions that still have a *live*
        coordinator and no logged decision: after a data-source restart the
        other participants may hold branches that are legitimately
        mid-prepare, and only their own coordinator may decide them.  A
        restart-triggered recovery pass therefore passes the middleware's
        active transaction ids here.  A crashed middleware has none, so its
        listings first kill its unprepared sessions (``kill_prefix``).

        ``owned_prefix`` restricts the pass to branches this middleware owns
        (global ids are prefixed with the coordinator name), so in
        multi-middleware deployments one coordinator's recovery never decides
        another's in-doubt transactions — its decision log knows nothing
        about them.
        """
        report = RecoveryReport()
        skip = set(skip_global_ids)
        wal = self.middleware.wal
        participants = self.middleware.participants
        listing = ({"kill_prefix": owned_prefix} if self.middleware.crashed
                   else {})
        if participant_names is None:
            selected = participants.items()
        else:
            selected = [(name, participants[name]) for name in participant_names]
        for name, handle in selected:
            reply = yield self.middleware.request_participant(
                handle, protocol.MSG_LIST_PREPARED, listing)
            prepared = reply.get("prepared", []) if isinstance(reply, dict) else []
            for xid in prepared:
                # A branch's xid is its global transaction id, the key of
                # the decision log.
                decision = wal.last_decision(xid)
                if xid in skip and decision is None:
                    continue
                if owned_prefix is not None and not xid.startswith(owned_prefix):
                    continue
                if decision is LogRecordType.COMMIT:
                    yield self.middleware.request_participant(
                        handle, protocol.MSG_XA_COMMIT, {"xid": xid})
                    report.committed.append(f"{name}:{xid}")
                else:
                    yield self.middleware.request_participant(
                        handle, protocol.MSG_XA_ROLLBACK, {"xid": xid})
                    report.rolled_back.append(f"{name}:{xid}")
        return report
