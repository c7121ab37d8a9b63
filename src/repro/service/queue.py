"""Submission queue: specs, tenants, quotas, fairness, back-pressure.

Pure bookkeeping — no HTTP, no filesystem — so every scheduling rule is
unit-testable in microseconds.  The daemon owns one :class:`ServiceState`
and funnels every submission, cancellation, and scheduling decision
through it under its lock.

Scheduling model
----------------
A campaign is submitted by a *tenant* with a *priority*.  Campaigns are
*activated* (journal prepared, points claimable) up to a cap, and active
campaigns are offered to pulling workers in **weighted fair order**: the
tenant with the smallest ``leased / weight`` deficit goes first, ties
break by priority (higher first) then submission order.  A tenant at its
``max_leased`` quota is skipped entirely — its campaigns stay queued or
idle-active while other tenants' workers proceed, which is exactly the
isolation property the quotas exist to give.

Because workers *pull*, quota enforcement has a read-claim window; the
state closes it with short-lived **offers**: every scheduling response
counts against the tenant's quota for a few seconds (or until the
point table shows the lease), so two workers racing the same quota slot
cannot both be offered it.

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

from repro.harness.simulator import ENGINES, RunConfig

__all__ = ["SweepSpec", "ValidationError", "BackPressure", "TenantPolicy",
           "CampaignRecord", "ServiceState", "configs_from_spec",
           "config_to_doc", "config_from_doc"]

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


@dataclass
class SweepSpec:
    """A validated sweep submission: the cross product it names."""

    workloads: List[str]
    engines: List[str]
    instructions: int

    @classmethod
    def validate(cls, doc: Dict, known_workloads) -> "SweepSpec":
        if not isinstance(doc, dict):
            raise ValidationError("submission body must be a JSON object")
        workloads = doc.get("workloads")
        engines = doc.get("engines")
        instructions = doc.get("instructions", 100_000)
        if (not isinstance(workloads, list) or not workloads
                or not all(isinstance(w, str) for w in workloads)):
            raise ValidationError("'workloads' must be a non-empty list "
                                  "of names")
        unknown = [w for w in workloads if w not in known_workloads]
        if unknown:
            raise ValidationError(f"unknown workloads: {unknown}")
        if (not isinstance(engines, list) or not engines
                or not all(isinstance(e, str) for e in engines)):
            raise ValidationError("'engines' must be a non-empty list")
        bad = [e for e in engines if e not in ENGINES]
        if bad:
            raise ValidationError(f"unknown engines: {bad} "
                                  f"(known: {list(ENGINES)})")
        if not isinstance(instructions, int) or isinstance(instructions, bool) \
                or not 1 <= instructions <= MAX_INSTRUCTIONS:
            raise ValidationError("'instructions' must be an int in "
                                  f"[1, {MAX_INSTRUCTIONS}]")
        if len(workloads) * len(engines) > MAX_POINTS_PER_CAMPAIGN:
            raise ValidationError(
                f"{len(workloads) * len(engines)} points exceeds the "
                f"per-campaign cap of {MAX_POINTS_PER_CAMPAIGN}")
        # Dedup while preserving order: a repeated name would mint
        # duplicate journal keys.
        workloads = list(dict.fromkeys(workloads))
        engines = list(dict.fromkeys(engines))
        return cls(workloads=workloads, engines=engines,
                   instructions=instructions)

    def to_dict(self) -> Dict:
        return {"workloads": list(self.workloads),
                "engines": list(self.engines),
                "instructions": self.instructions}

    @property
    def points(self) -> int:
        return len(self.workloads) * len(self.engines)


def configs_from_spec(spec: Dict) -> List[RunConfig]:
    """The point set a manifest/submission spec names, in sweep order.

    The single shared derivation: the daemon (at activation and
    recovery) and the CLI ``sweep`` path must mint identical
    :class:`RunConfig` objects — and therefore identical
    ``cache_key()``s — from the same spec, or results stop being
    content-addressed.
    """
    return [RunConfig(workload=w, engine=e,
                      max_instructions=int(spec["instructions"]))
            for w in spec["workloads"] for e in spec["engines"]]


def config_to_doc(config: RunConfig) -> Dict:
    """The over-the-wire shape of a sweep point's configuration."""
    return {"workload": config.workload, "engine": config.engine,
            "instructions": config.max_instructions}


def config_from_doc(doc: Dict) -> RunConfig:
    """Rebuild a sweep-point :class:`RunConfig` from its wire shape.

    Mints the same ``cache_key()`` as :func:`configs_from_spec` for the
    same point — the invariant that keeps remote results
    content-addressed.
    """
    return RunConfig(workload=doc["workload"], engine=doc["engine"],
                     max_instructions=int(doc["instructions"]))


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
    leased: int = 0          # running points with an unexpired lease
    lease_expired: int = 0
    deduped: int = 0         # points served from the run cache at activation
    audits_pending: int = 0  # integrity audits still holding us open
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
                 offer_ttl: float = 2.0,
                 tenants: Optional[Dict[str, TenantPolicy]] = None,
                 default_policy: Optional[TenantPolicy] = None):
        self.known_workloads = set(known_workloads)
        self.max_queued_points = max_queued_points
        self.max_active_campaigns = max_active_campaigns
        self.retry_after = retry_after
        self.offer_ttl = offer_ttl
        self.tenants = dict(tenants or {})
        self.default_policy = default_policy or TenantPolicy()
        self.campaigns: Dict[str, CampaignRecord] = {}
        self.peak_leased: Dict[str, int] = {}
        self._offers: Dict[str, List[float]] = {}  # tenant -> offer deadlines
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
        spec = SweepSpec.validate(doc, self.known_workloads)
        tenant = doc.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant \
                or len(tenant) > 64 or "/" in tenant:
            raise ValidationError("'tenant' must be a short name")
        priority = doc.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ValidationError("'priority' must be an int")
        with self._lock:
            depth = self._queue_depth_locked()
            if depth + spec.points > self.max_queued_points:
                raise BackPressure(depth, self.max_queued_points,
                                   self.retry_after)
            self._seq += 1
            cid = f"c{self._seq:04d}"
            record = CampaignRecord(
                id=cid, tenant=tenant, priority=priority,
                spec=spec.to_dict(), dir=str(make_dir(cid)),
                submitted_unix=round(time.time(), 3), seq=self._seq,
                total_points=spec.points)
            record.counts = {"pending": spec.points}
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
    def _tenant_leased_locked(self) -> Dict[str, float]:
        now = time.monotonic()
        leased: Dict[str, float] = {}
        for c in self.campaigns.values():
            if c.status == "active":
                leased[c.tenant] = leased.get(c.tenant, 0) + c.leased
        for tenant, deadlines in self._offers.items():
            live = [d for d in deadlines if d > now]
            self._offers[tenant] = live
            leased[tenant] = leased.get(tenant, 0) + len(live)
        return leased

    def _fair_order_locked(self, records: List[CampaignRecord],
                           leased: Dict[str, float]) -> List[CampaignRecord]:
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

    def schedule(self, offer: bool = True) -> List[CampaignRecord]:
        """Active campaigns a worker may claim from, weighted-fair order.

        Quota-capped tenants are filtered out; with ``offer`` each
        returned campaign's tenant is charged one short-lived offer so
        concurrent pollers cannot oversubscribe a quota slot.
        """
        with self._lock:
            leased = self._tenant_leased_locked()
            claimable = [c for c in self.campaigns.values()
                         if c.status == "active"
                         and (c.counts.get("pending", 0) > 0
                              or c.audits_pending > 0)]
            eligible = []
            for c in self._fair_order_locked(claimable, leased):
                cap = self.policy(c.tenant).max_leased
                if cap is not None and leased.get(c.tenant, 0) >= cap:
                    continue
                eligible.append(c)
            if offer and eligible:
                head = eligible[0]
                self._offers.setdefault(head.tenant, []).append(
                    time.monotonic() + self.offer_ttl)
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
            tenant_leased: Dict[str, int] = {}
            for c in self.campaigns.values():
                if c.status == "active":
                    tenant_leased[c.tenant] = (tenant_leased.get(c.tenant, 0)
                                               + c.leased)
            for tenant, n in tenant_leased.items():
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
