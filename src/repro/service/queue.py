"""Submission queue: specs, tenants, quotas, fairness, back-pressure.

Pure bookkeeping — no HTTP, no filesystem — so every scheduling rule is
unit-testable in microseconds.  The daemon owns one :class:`ServiceState`
and funnels every submission, cancellation, and scheduling decision
through it under its lock.

Scheduling model
----------------
A campaign is submitted by a *tenant* with a *priority*.  Campaigns are
*activated* (journal prepared, points claimable) up to a cap, and
:meth:`ServiceState.schedule` lists the active campaigns with work in
**weighted fair order**: the tenant with the smallest ``leased /
weight`` deficit goes first, ties break by priority (higher first) then
submission order.  A tenant at its ``max_leased`` quota is skipped
entirely — its campaigns stay queued or idle-active while other
tenants' workers proceed, which is exactly the isolation property the
quotas exist to give.

The daemon's ``/claim`` walks that order, leases, and folds the new
lease back in (:meth:`ServiceState.refresh_counts`) within one hold of
its lock, so the next claim already sees it: quotas are exact, with no
window between reading the order and taking the lease.

Back-pressure
-------------
``max_queued_points`` bounds the total not-yet-done points across queued
and active campaigns.  A submission that would cross the bound raises
:class:`BackPressure`, which the HTTP layer maps to ``429 Retry-After``.
"""

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.harness.simulator import RunConfig

__all__ = ["ValidationError", "BackPressure", "TenantPolicy",
           "CampaignRecord", "ServiceState", "configs_from_spec",
           "validate_spec"]

# Hard ceiling on points per submission: a cross product past this is a
# spec mistake, not a workload (the queue bound handles real volume).
MAX_POINTS_PER_CAMPAIGN = 4096
MAX_INSTRUCTIONS = 50_000_000


class ValidationError(ValueError):
    """A submission spec is malformed (HTTP 400)."""


class BackPressure(RuntimeError):
    """The queue is full; retry after ``retry_after`` seconds (HTTP 429)."""

    def __init__(self, depth: int, bound: int, retry_after: float):
        self.depth = depth
        self.bound = bound
        self.retry_after = retry_after
        super().__init__(f"queue depth {depth} at bound {bound}; "
                         f"retry after {retry_after:.0f}s")


# Submission fields; a spec is a cross product or a point list.
_CROSS_FIELDS = ("workloads", "engines", "instructions")
_SUBMIT_FIELDS = {*_CROSS_FIELDS, "points", "tenant", "priority"}


def validate_spec(doc: Dict, known_workloads) -> Tuple[Dict, List[RunConfig]]:
    """``(normalized spec, configs)`` of one submission, or
    :class:`ValidationError` (HTTP 400): unknown field, workload or
    engine, an instruction budget outside ``[1, MAX_INSTRUCTIONS]``,
    over ``MAX_POINTS_PER_CAMPAIGN`` points, both forms at once, or a
    host path (``snapshot_dir``/``checkpoint_dir``) in a point."""
    if not isinstance(doc, dict):
        raise ValidationError("submission body must be a JSON object")
    unknown = sorted(set(doc) - _SUBMIT_FIELDS)
    if unknown:
        raise ValidationError(f"unknown fields: {unknown}")
    if "points" in doc:
        if any(f in doc for f in _CROSS_FIELDS):
            raise ValidationError("give 'points' or a cross product, "
                                  "not both")
        spec = {"points": doc["points"]}
        if (not isinstance(spec["points"], list) or not spec["points"]
                or not all(isinstance(p, dict) for p in spec["points"])):
            raise ValidationError("'points' must be a non-empty list of "
                                  "RunConfig objects")
        if any(p.get(f) is not None for p in spec["points"]
               for f in ("snapshot_dir", "checkpoint_dir")):
            raise ValidationError("host paths (snapshot_dir, "
                                  "checkpoint_dir) are not accepted")
        count = len(spec["points"])
    else:
        spec = {"instructions": doc.get("instructions", 100_000)}
        for f in ("workloads", "engines"):
            names = doc.get(f)
            if (not isinstance(names, list) or not names
                    or not all(isinstance(n, str) for n in names)):
                raise ValidationError(f"{f!r} must be a non-empty list "
                                      "of names")
            spec[f] = list(dict.fromkeys(names))
        count = len(spec["workloads"]) * len(spec["engines"])
    if count > MAX_POINTS_PER_CAMPAIGN:
        raise ValidationError(f"{count} points exceeds the per-campaign "
                              f"cap of {MAX_POINTS_PER_CAMPAIGN}")
    try:
        configs = configs_from_spec(spec)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid point: {exc}") from None
    for c in configs:
        n = c.max_instructions
        if (not isinstance(n, int) or isinstance(n, bool)
                or not 1 <= n <= MAX_INSTRUCTIONS):
            raise ValidationError("instruction budgets must be ints in "
                                  f"[1, {MAX_INSTRUCTIONS}]")
    unknown = sorted({str(c.workload) for c in configs}
                     - set(known_workloads))
    if unknown:
        raise ValidationError(f"unknown workloads: {unknown}")
    if "points" in spec:
        spec = {"points": [c.to_dict() for c in configs]}
    return spec, configs


def configs_from_spec(spec: Dict) -> List[RunConfig]:
    """The one spec expander (daemon, ``sweep``, ``audit``): the cross
    product of ``{"workloads", "engines", "instructions"}``, or
    ``{"points": [RunConfig.to_dict(), ...]}``, deduplicated by
    ``cache_key()`` in first-seen order."""
    if "points" not in spec:
        # Distinct (workload, engine) names mint distinct keys.
        return [RunConfig(workload=w, engine=e,
                          max_instructions=spec["instructions"])
                for w in dict.fromkeys(spec["workloads"])
                for e in dict.fromkeys(spec["engines"])]
    unique: Dict[str, RunConfig] = {}
    for point in spec["points"]:
        config = RunConfig.from_dict(point)
        unique.setdefault(config.cache_key(), config)
    return list(unique.values())


@dataclass
class TenantPolicy:
    """Per-tenant scheduling policy.

    ``weight`` scales the fair-share deficit (2.0 = entitled to twice
    the leased points of a weight-1.0 tenant under contention);
    ``max_leased`` hard-caps concurrently leased points (None = no cap).
    """

    weight: float = 1.0
    max_leased: Optional[int] = None


@dataclass
class CampaignRecord:
    """One submitted campaign's service-side state."""

    id: str
    tenant: str
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
            "id": self.id, "tenant": self.tenant, "priority": self.priority,
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
                 max_active_campaigns: int = 4,
                 retry_after: float = 5.0,
                 tenants: Optional[Dict[str, TenantPolicy]] = None,
                 default_policy: Optional[TenantPolicy] = None):
        self.known_workloads = set(known_workloads)
        self.max_queued_points = max_queued_points
        self.max_active_campaigns = max_active_campaigns
        self.retry_after = retry_after
        self.tenants = dict(tenants or {})
        self.default_policy = default_policy or TenantPolicy()
        self.campaigns: Dict[str, CampaignRecord] = {}
        self.peak_leased: Dict[str, int] = {}
        self._seq = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------ intake
    def policy(self, tenant: str) -> TenantPolicy:
        return self.tenants.get(tenant, self.default_policy)

    def queue_depth(self) -> int:
        with self._lock:
            return self._queue_depth_locked()

    def _queue_depth_locked(self) -> int:
        return sum(c.remaining() for c in self.campaigns.values()
                   if c.status in ("queued", "active"))

    def tenant_queue_depth(self) -> Dict[str, int]:
        with self._lock:
            out: Dict[str, int] = {}
            for c in self.campaigns.values():
                if c.status in ("queued", "active"):
                    out[c.tenant] = out.get(c.tenant, 0) + c.remaining()
            return out

    def submit(self, doc: Dict, make_dir) -> CampaignRecord:
        """Validate + enqueue one submission; raises
        :class:`ValidationError` / :class:`BackPressure`.

        ``make_dir(campaign_id)`` maps the minted id to a journal
        directory (the daemon owns the filesystem layout).
        """
        spec, configs = validate_spec(doc, self.known_workloads)
        tenant = doc.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant \
                or len(tenant) > 64 or "/" in tenant:
            raise ValidationError("'tenant' must be a short name")
        priority = doc.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ValidationError("'priority' must be an int")
        with self._lock:
            depth = self._queue_depth_locked()
            if depth + len(configs) > self.max_queued_points:
                raise BackPressure(depth, self.max_queued_points,
                                   self.retry_after)
            self._seq += 1
            cid = f"c{self._seq:04d}"
            record = CampaignRecord(
                id=cid, tenant=tenant, priority=priority,
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
    def _tenant_leased_locked(self) -> Dict[str, int]:
        leased: Dict[str, int] = {}
        for c in self.campaigns.values():
            if c.status == "active":
                leased[c.tenant] = leased.get(c.tenant, 0) + c.leased
        return leased

    def _fair_order_locked(self, records: List[CampaignRecord],
                           leased: Dict[str, int]) -> List[CampaignRecord]:
        def sort_key(c: CampaignRecord):
            deficit = leased.get(c.tenant, 0) / max(
                self.policy(c.tenant).weight, 1e-9)
            return (deficit, -c.priority, c.seq)
        return sorted(records, key=sort_key)

    def to_activate(self) -> List[CampaignRecord]:
        """Queued campaigns that should activate now, in fair order."""
        with self._lock:
            active = [c for c in self.campaigns.values()
                      if c.status == "active"]
            slots = self.max_active_campaigns - len(active)
            if slots <= 0:
                return []
            queued = [c for c in self.campaigns.values()
                      if c.status == "queued"]
            leased = self._tenant_leased_locked()
            return self._fair_order_locked(queued, leased)[:slots]

    def schedule(self) -> List[CampaignRecord]:
        """Active campaigns with pending points or audits, in
        weighted-fair order, skipping tenants at their quota."""
        with self._lock:
            leased = self._tenant_leased_locked()
            claimable = [c for c in self.campaigns.values()
                         if c.status == "active"
                         and (c.counts.get("pending", 0) > 0
                              or c.audits_pending > 0)]
            eligible = []
            for c in self._fair_order_locked(claimable, leased):
                cap = self.policy(c.tenant).max_leased
                if cap is None or leased.get(c.tenant, 0) < cap:
                    eligible.append(c)
            return eligible

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
            for tenant, n in self._tenant_leased_locked().items():
                if n > self.peak_leased.get(tenant, 0):
                    self.peak_leased[tenant] = n
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
                "peak_leased": dict(self.peak_leased),
            }
