"""Submission queue: campaign records, priority order, back-pressure.

Pure bookkeeping — no HTTP, no filesystem — so every scheduling rule is
unit-testable in microseconds.  The daemon owns one :class:`ServiceState`
and funnels every submission, cancellation, and scheduling decision
through it under its lock.

Scheduling model
----------------
A campaign is submitted with a *priority*.  Campaigns are *activated*
(journal prepared, points claimable) up to a cap, and
:meth:`ServiceState.schedule` lists the active campaigns with work; both
go in ``(-priority, seq)`` order: higher priority first, then submission
order.  The daemon's ``/claim`` walks that order and leases within one
hold of its lock, so two racing claims never take the same point.

Back-pressure
-------------
``max_queued_points`` bounds the total not-yet-done points across queued
and active campaigns.  A submission that would cross the bound raises
:class:`BackPressure`, which the HTTP layer maps to ``429 Retry-After``.
"""

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

# configs_from_spec is re-exported: callers import the expander from here.
from repro.harness.spec import (ValidationError, configs_from_spec,
                                validate_spec)

__all__ = ["BackPressure", "CampaignRecord", "ServiceState",
           "configs_from_spec", "RETRY_AFTER"]

RETRY_AFTER = 5.0   # seconds, the 429 Retry-After hint


class BackPressure(RuntimeError):
    """The queue is full; retry after ``retry_after`` seconds (HTTP 429)."""

    def __init__(self, depth: int, bound: int, retry_after: float):
        self.depth = depth
        self.bound = bound
        self.retry_after = retry_after
        super().__init__(f"queue depth {depth} at bound {bound}; "
                         f"retry after {retry_after:.0f}s")


@dataclass
class CampaignRecord:
    """One submitted campaign's service-side state."""

    id: str
    priority: int
    spec: Dict
    dir: str
    submitted_unix: float
    seq: int
    status: str = "queued"   # queued -> active -> done|failed|cancelled
    total_points: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    leased: int = 0          # unexpired leases: points and audit runs
    lease_expired: int = 0
    deduped: int = 0         # points served from the run cache at activation
    audits_pending: int = 0  # active integrity audits holding us open
    finished_unix: Optional[float] = None
    error: Optional[str] = None

    def finished_points(self) -> int:
        """Points in a terminal status (done, failed, or poisoned)."""
        return (self.counts.get("done", 0) + self.counts.get("failed", 0)
                + self.counts.get("poisoned", 0))

    def remaining(self) -> int:
        return max(0, self.total_points - self.finished_points())

    def to_dict(self) -> Dict:
        return {
            "id": self.id, "priority": self.priority,
            "spec": self.spec, "dir": self.dir, "status": self.status,
            "submitted_unix": self.submitted_unix,
            "finished_unix": self.finished_unix,
            "total_points": self.total_points, "counts": dict(self.counts),
            "leased": self.leased, "lease_expired": self.lease_expired,
            "deduped": self.deduped, "audits_pending": self.audits_pending,
            "error": self.error,
        }


class ServiceState:
    """Thread-safe campaign registry + scheduler (the daemon's brain)."""

    def __init__(self, known_workloads,
                 max_queued_points: int = 100_000,
                 max_active_campaigns: int = 4):
        self.known_workloads = set(known_workloads)
        self.max_queued_points = max_queued_points
        self.max_active_campaigns = max_active_campaigns
        self.campaigns: Dict[str, CampaignRecord] = {}
        self._seq = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------ intake
    def _queue_depth_locked(self) -> int:
        return sum(c.remaining() for c in self.campaigns.values()
                   if c.status in ("queued", "active"))

    def submit(self, doc: Dict, make_dir) -> CampaignRecord:
        """Validate + enqueue one submission; raises
        :class:`ValidationError` / :class:`BackPressure`.

        ``make_dir(campaign_id)`` maps the minted id to a journal
        directory (the daemon owns the filesystem layout).
        """
        spec, configs = validate_spec(doc, self.known_workloads)
        priority = doc.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ValidationError("'priority' must be an int")
        with self._lock:
            depth = self._queue_depth_locked()
            if depth + len(configs) > self.max_queued_points:
                raise BackPressure(depth, self.max_queued_points,
                                   RETRY_AFTER)
            self._seq += 1
            cid = f"c{self._seq:04d}"
            record = CampaignRecord(
                id=cid, priority=priority,
                spec=spec, dir=str(make_dir(cid)),
                submitted_unix=round(time.time(), 3), seq=self._seq,
                total_points=len(configs))
            record.counts = {"pending": len(configs)}
            self.campaigns[cid] = record
            return record

    def adopt(self, record: CampaignRecord) -> None:
        """Register a campaign recovered from disk at daemon startup."""
        with self._lock:
            self.campaigns[record.id] = record
            self._seq = max(self._seq, record.seq)

    def get(self, cid: str) -> Optional[CampaignRecord]:
        with self._lock:
            return self.campaigns.get(cid)

    def cancel(self, cid: str) -> Optional[CampaignRecord]:
        """Cooperative cancel: no new claims; in-flight points finish."""
        with self._lock:
            record = self.campaigns.get(cid)
            if record is None:
                return None
            if record.status in ("queued", "active"):
                record.status = "cancelled"
                record.finished_unix = round(time.time(), 3)
            return record

    # -------------------------------------------------------- scheduling
    @staticmethod
    def _ordered(records: List[CampaignRecord]) -> List[CampaignRecord]:
        return sorted(records, key=lambda c: (-c.priority, c.seq))

    def to_activate(self) -> List[CampaignRecord]:
        """Queued campaigns that should activate now, in order."""
        with self._lock:
            active = [c for c in self.campaigns.values()
                      if c.status == "active"]
            slots = self.max_active_campaigns - len(active)
            if slots <= 0:
                return []
            return self._ordered([c for c in self.campaigns.values()
                                  if c.status == "queued"])[:slots]

    def schedule(self) -> List[CampaignRecord]:
        """Active campaigns with pending points or audits, in order."""
        with self._lock:
            return self._ordered([c for c in self.campaigns.values()
                                  if c.status == "active"
                                  and (c.counts.get("pending", 0) > 0
                                       or c.audits_pending > 0)])

    # -------------------------------------------------------- refreshing
    def refresh_counts(self, cid: str, counts: Dict[str, int],
                       leased: int, lease_expired: int,
                       audits_pending: int = 0,
                       retrying: int = 0) -> bool:
        """Fold the point table's counts into the record; True when this
        call made the campaign terminal.

        A campaign is terminal only when every point reached a terminal
        status *and* no integrity audit is still in flight — a campaign
        must not report ``done`` while a sampled result is unverified.
        Poisoned points count as finished (that is the whole point of
        the breaker: the campaign completes around them) but make the
        terminal status ``failed``, like failed points do.  ``retrying``
        discounts failed points the reaper still owes a retry (or a
        poison verdict) — they are in flight, not terminal.
        """
        with self._lock:
            record = self.campaigns.get(cid)
            if record is None:
                return False
            finished_now = False
            record.counts = dict(counts)
            record.leased = leased
            record.lease_expired = lease_expired
            record.audits_pending = audits_pending
            if record.status == "active":
                finished = (counts.get("done", 0) + counts.get("failed", 0)
                            + counts.get("poisoned", 0) - retrying)
                if (record.total_points and finished >= record.total_points
                        and audits_pending == 0):
                    record.status = ("failed"
                                     if counts.get("failed")
                                     or counts.get("poisoned")
                                     else "done")
                    record.finished_unix = round(time.time(), 3)
                    finished_now = True
            return finished_now

    def mark_active(self, cid: str, deduped: int = 0) -> None:
        with self._lock:
            record = self.campaigns.get(cid)
            if record is not None and record.status == "queued":
                record.status = "active"
                record.deduped = deduped

    def snapshot(self) -> Dict:
        """The ``GET /campaigns`` document (and the metrics substrate)."""
        with self._lock:
            by_status: Dict[str, int] = {}
            for c in self.campaigns.values():
                by_status[c.status] = by_status.get(c.status, 0) + 1
            return {
                "campaigns": [c.to_dict() for c in
                              sorted(self.campaigns.values(),
                                     key=lambda c: c.seq)],
                "by_status": by_status,
                "queued_points": self._queue_depth_locked(),
                "max_queued_points": self.max_queued_points,
            }
