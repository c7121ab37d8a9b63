"""Lease layer: the point state machine and the campaign point table.

Every campaign point is one journal shard (the
:class:`~repro.harness.campaign.CampaignJournal` format) moving through::

    pending -> running -> done
                      \\-> failed  -> pending (retry) | poisoned
    running -> pending (lease expired / released) | poisoned

The transitions are pure functions of a shard dict (``*_shard`` below);
:class:`PointTable` applies them to one campaign held in memory.  The
campaign daemon drives a table for every active campaign, and the local
``sweep`` (:func:`~repro.harness.campaign.run_campaign`) drives one with
local worker processes, so a point moves the same way on both paths:

* **Claiming** is generation-scoped.  Every shard carries a
  ``generation`` counter, bumped on every requeue; only a ``pending``
  point is claimable, and the claim stamps the worker id and lease
  expiry.
* **Leases** bound how long a claim is trusted.  The owning worker
  renews from its simulation heartbeat hook (the heartbeat payload is
  folded into the shard, so watchers see live progress); a worker whose
  lease was reaped or retaken gets :class:`LeaseLost` and abandons the
  point instead of fighting the new owner.
* **The reaper** (:meth:`PointTable.reap`) requeues points whose lease
  lapsed — SIGKILLed workers lose their in-flight work but never strand
  it — and retries failed points up to a cap, keeping the failed
  attempt's error as ``last_error``.
* **Resume fences.**  :meth:`PointTable.resume` requeues every point a
  previous run left ``running`` or ``failed`` with a generation bump, so
  a worker that still thinks it owns one gets :class:`LeaseLost`.
* **Completion is idempotent.**  Simulations are deterministic, so a
  worker whose lease was stolen may still finish and publish: the first
  ``done`` wins and every later completion is a no-op.
* **Failure is fenced.**  A failure report applies only while the point
  is ``running`` under the reporting worker at the generation it
  claimed; a stale worker cannot fail another worker's lease, and
  nothing fails a ``done`` point.
* **Repeats are answered from the shard.**  A publish that finds its
  own effect already recorded (a ``done`` point this worker completed,
  a failure this worker reported at this generation) gets the same
  answer again with no transition (:data:`REPEAT`), and a repeated
  claim returns the point the worker already holds — so a retried or
  duplicated request is indistinguishable from a single one, with no
  replay store beside the table.
* **Poison points stop crash loops.**  Every failed attempt (an explicit
  failure or a lease that lapsed mid-run) records its worker in the
  shard's ``failed_workers`` list; once a point has failed under
  ``poison_distinct`` *distinct* workers the fault is the point's, not
  the fleet's, and it goes to the terminal ``poisoned`` status instead
  of requeueing forever.
* **Audit runs are leases on done points.**  A sampled ``done`` point
  carries an ``audit`` sub-document beside (never inside) its
  ``entry``, so fingerprints do not move.  An audit run is claimed by a
  worker other than the original completer, renewed, failed and reaped
  through the same transitions as a point — a lapsed or failed run goes
  back to ``pending`` until :data:`MAX_AUDIT_ATTEMPTS` — and counts as a
  lease for the drain and the tenant quotas.

The table is the single writer of its campaign's shards.  It is loaded
once (:func:`~repro.harness.campaign.activate`, or :meth:`PointTable.load`
on daemon recovery); afterwards every transition runs under one lock,
updates the in-memory shard and writes it through with
:meth:`~repro.harness.campaign.CampaignJournal.write_point` before
returning, so the files stay exactly what ``sweep --resume``,
``repro watch`` and a restarted daemon read — and the table never reads
them again.  A table without a journal (a sweep with no ``--manifest``)
keeps its shards in memory only.
"""

import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.live import campaign_view

__all__ = ["DEFAULT_LEASE_SECONDS", "LeaseLost", "PointTable", "claim_shard",
           "claim_audit_shard", "renew_shard", "complete_shard",
           "fail_shard", "release_shard", "reap_shard", "lease_fields",
           "APPLIED", "REPEAT", "STALE", "AUDIT_ACTIVE_STATUSES",
           "MAX_AUDIT_ATTEMPTS"]

DEFAULT_LEASE_SECONDS = 30.0

# Audit sub-document statuses that still hold the campaign open, and the
# runs one audit may take before it is left ``unresolved``.
AUDIT_ACTIVE_STATUSES = ("pending", "running", "arbitrating")
MAX_AUDIT_ATTEMPTS = 3

# What a publish (:meth:`PointTable.complete` / :meth:`PointTable.fail`)
# did: made the transition, found its own effect already recorded, or
# found the point owned by someone else (or finished) and changed nothing.
APPLIED, REPEAT, STALE = "applied", "repeat", "stale"

# Shard fields owned by the lease layer; stripped when a point leaves
# ``running`` so stale lease data can never shadow a fresh claim.
_LEASE_FIELDS = ("worker", "lease_expires_unix", "lease_renewed_unix", "hb")

# Statuses the reaper may still act on.
_LIVE = ("running", "failed")

Reaped = Tuple[str, str, Optional[str]]


class LeaseLost(RuntimeError):
    """This worker's lease on a point was reaped or stolen.

    Raised by a renewal (typically inside the simulation heartbeat hook)
    so the worker can abandon the point promptly instead of racing the
    new owner to completion.
    """

    def __init__(self, key: str, worker: str, holder: Optional[str] = None):
        self.key = key
        self.worker = worker
        self.holder = holder
        super().__init__(f"lease on {key} lost by {worker}"
                         + (f" (now held by {holder})" if holder else ""))


def lease_fields(worker: str, lease_seconds: float, now: float) -> Dict:
    return {
        "worker": worker,
        "lease_renewed_unix": round(now, 3),
        "lease_expires_unix": round(now + lease_seconds, 3),
    }


def _strip_lease(doc: Dict) -> Dict:
    for field in _LEASE_FIELDS:
        doc.pop(field, None)
    return doc


def _blame(fields: Dict, worker: Optional[str]) -> None:
    """Append ``worker`` to the shard's distinct ``failed_workers`` list."""
    workers = [w for w in fields.get("failed_workers", ()) if w]
    if worker and worker not in workers:
        workers.append(worker)
    fields["failed_workers"] = workers


def _distinct_failures(doc: Dict) -> int:
    return len({w for w in doc.get("failed_workers", ()) if w})


def _requeue(doc: Dict, reason: str) -> Dict:
    """Back to ``pending`` with a generation bump — the bump is what
    fences the old owner (its renewals no longer match the shard)."""
    fields = _strip_lease(dict(doc))
    fields["status"] = "pending"
    fields["generation"] = int(doc.get("generation", 0)) + 1
    fields["requeued"] = reason
    if "error" in fields:
        fields["last_error"] = fields.pop("error")
    return fields


def _poison(doc: Dict, now: float, error: Optional[str] = None) -> Dict:
    fields = _strip_lease(dict(doc))
    fields["status"] = "poisoned"
    fields["poisoned_unix"] = round(now, 3)
    if error:
        fields["error"] = error
    return fields


def _holds(doc: Dict, worker: str, generation: Optional[int]) -> bool:
    """Is ``doc`` leased to ``worker`` (at ``generation``, if given)?"""
    return (doc.get("status") == "running" and doc.get("worker") == worker
            and generation in (None, doc.get("generation", 0)))


def _holds_audit(doc: Dict, worker: str) -> bool:
    """Is ``worker`` running the audit of done point ``doc``?"""
    audit = doc.get("audit") or {}
    return (doc.get("status") == "done" and audit.get("status") == "running"
            and audit.get("worker") == worker)


def _requeue_audit(doc: Dict, error: str) -> Dict:
    """A failed or lapsed audit run: ``pending`` again, or ``unresolved``
    once it has had :data:`MAX_AUDIT_ATTEMPTS` runs."""
    audit = _strip_lease(dict(doc["audit"]))
    audit["status"] = ("pending" if int(audit.get("attempts", 0))
                       < MAX_AUDIT_ATTEMPTS else "unresolved")
    audit["error"] = error
    return {**doc, "audit": audit}


def _without_entry(doc: Dict) -> Dict:
    """An audit run's claim answer: the auditor must not see the result
    it is checking."""
    return {k: v for k, v in doc.items() if k != "entry"}


# ---------------------------------------------------------------------
# Pure transitions: shard dict in, new shard dict (or a verdict) out.
# ---------------------------------------------------------------------
def claim_shard(doc: Dict, worker: str, lease_seconds: float,
                now: float) -> Optional[Dict]:
    """``pending -> running`` under ``worker``; None if not claimable."""
    if doc.get("status", "pending") != "pending":
        return None
    fields = _strip_lease(dict(doc))
    fields["status"] = "running"
    fields["generation"] = int(doc.get("generation", 0))
    fields["attempts"] = int(doc.get("attempts", 0)) + 1
    fields.update(lease_fields(worker, lease_seconds, now))
    return fields


def claim_audit_shard(doc: Dict, worker: str, lease_seconds: float,
                      now: float) -> Optional[Dict]:
    """Audit ``pending -> running`` on a ``done`` point under ``worker``;
    None unless pending, or if ``worker`` completed the point (a worker
    cannot vouch for itself)."""
    audit = doc.get("audit") or {}
    if (doc.get("status") != "done" or audit.get("status") != "pending"
            or doc.get("completed_by") == worker):
        return None
    audit = dict(audit, status="running",
                 attempts=int(audit.get("attempts", 0)) + 1)
    audit.pop("error", None)
    audit.update(lease_fields(worker, lease_seconds, now))
    return {**doc, "audit": audit}


def renew_shard(doc: Optional[Dict], key: str, worker: str,
                lease_seconds: float, now: float,
                hb: Optional[Dict] = None) -> Dict:
    """Extend ``worker``'s lease (on the point or on its audit run);
    raises :class:`LeaseLost` if not held.

    ``hb`` (a :class:`~repro.obs.live.HeartbeatTicker` payload) is folded
    into the shard: for leased points the shard is the heartbeat channel.
    """
    if doc is not None and _holds_audit(doc, worker):
        return {**doc, "audit": {**doc["audit"],
                                 **lease_fields(worker, lease_seconds, now)}}
    if doc is None or not _holds(doc, worker, None):
        raise LeaseLost(key, worker, holder=doc.get("worker") if doc else None)
    fields = dict(doc)
    fields.update(lease_fields(worker, lease_seconds, now))
    if hb is not None:
        fields["hb"] = hb
    return fields


def complete_shard(doc: Dict, worker: str, entry: Dict,
                   source: str = "worker") -> Optional[Dict]:
    """Publish a result; None when the point is already ``done``
    (first completion wins — results are deterministic, so which copy
    lands is immaterial and idempotence keeps provenance honest)."""
    if doc.get("status") == "done" and doc.get("entry") is not None:
        return None
    fields = _strip_lease(dict(doc))
    fields["status"] = "done"
    fields["entry"] = entry
    fields["source"] = source
    fields["completed_by"] = worker
    fields["attempts_taken"] = int(fields.get("attempts", 1) or 1)
    fields.pop("error", None)
    return fields


def fail_shard(doc: Dict, worker: str, error: str,
               generation: Optional[int] = None) -> Optional[Dict]:
    """Record a failed attempt (the reaper retries up to its cap); None
    unless ``worker`` holds the point at ``generation`` (None: any).  A
    failed audit run requeues the audit; the point stays ``done``."""
    if _holds_audit(doc, worker):
        return _requeue_audit(doc, error)
    if not _holds(doc, worker, generation):
        return None
    fields = _strip_lease(dict(doc))
    fields["status"] = "failed"
    fields["error"] = error
    fields["failed_by"] = worker
    _blame(fields, worker)
    return fields


def release_shard(doc: Dict, worker: str) -> Optional[Dict]:
    """Hand a held point back (shutdown courtesy); None if not held."""
    if not _holds(doc, worker, None):
        return None
    return _requeue(doc, "released")


def reap_shard(doc: Dict, now: float, max_attempts: int = 0,
               poison_distinct: int = 0
               ) -> Optional[Tuple[Dict, str, Optional[str]]]:
    """The reaper's verdict on one shard: ``(new shard, reason, worker)``
    or None.  ``worker`` is the one the event implicates.

    * ``running`` with ``lease_expires_unix`` in the past — the owner is
      dead or wedged: requeue (``lease_expired``), blaming it in
      ``failed_workers`` since it cannot report its own failure;
    * ``failed`` with ``attempts`` below ``max_attempts`` (0 disables) —
      requeue (``retry``);
    * either, with ``poison_distinct`` > 0 and that many distinct failed
      workers — the terminal ``poisoned`` status instead;
    * ``done`` with a running audit whose lease lapsed (or that has no
      recorded expiry) — requeue the audit (``lease_expired``, blaming
      the auditor).
    """
    status = doc.get("status")
    if status == "done":
        audit = doc.get("audit") or {}
        if (audit.get("status") != "running"
                or audit.get("lease_expires_unix", 0) >= now):
            return None
        return (_requeue_audit(doc, "lease expired"), "lease_expired",
                audit.get("worker"))
    if status == "running":
        expires = doc.get("lease_expires_unix")
        if expires is None or expires >= now:
            return None
        worker = doc.get("worker")
        blamed = dict(doc)
        _blame(blamed, worker)
        distinct = _distinct_failures(blamed)
        if poison_distinct and distinct >= poison_distinct:
            return (_poison(blamed, now, error="lease expired under "
                            f"{distinct} distinct workers"),
                    "poisoned", worker)
        return _requeue(blamed, "lease_expired"), "lease_expired", worker
    if status == "failed":
        worker = doc.get("failed_by")
        if poison_distinct and _distinct_failures(doc) >= poison_distinct:
            return _poison(doc, now), "poisoned", worker
        if max_attempts and int(doc.get("attempts", 0)) < max_attempts:
            return _requeue(doc, "retry"), "retry", worker
    return None


# ---------------------------------------------------------------------
# The table: one campaign in memory, written through to its journal.
# ---------------------------------------------------------------------
class PointTable:
    """One campaign's shards in memory; the single writer of its journal.

    Besides the lease transitions it offers the journal's
    ``read_point``/``write_point``/``mark``/``root`` surface, so the
    integrity monitor's audit marks and repairs go through it too.
    """

    def __init__(self, journal, manifest: Dict,
                 shards: Dict[str, Optional[Dict]],
                 lock: Optional[threading.RLock] = None):
        self.journal = journal
        self.manifest = manifest
        self.keys: List[str] = []
        self.lock = lock or threading.RLock()
        self._points: Dict[str, Dict] = {}
        self._counts: Dict[str, int] = {}
        self._live: Dict[str, None] = {}   # running/failed keys, in order
        self._audits: Dict[str, None] = {}  # done keys with an active audit
        for point in manifest.get("points", ()):
            key = point["key"]
            if key not in self._points:
                self.keys.append(key)
            self._put(key, shards.get(key)
                      or {"key": key, "attempts": 0, "status": "pending"})

    @classmethod
    def load(cls, journal,
             lock: Optional[threading.RLock] = None
             ) -> Optional["PointTable"]:
        """Read the manifest and every shard once; None without a
        manifest."""
        manifest = journal.load_manifest()
        if manifest is None:
            return None
        shards = {p["key"]: journal.read_point(p["key"])
                  for p in manifest.get("points", ())}
        return cls(journal, manifest, shards, lock)

    @property
    def root(self):
        return self.journal.root

    def _put(self, key: str, doc: Dict) -> None:
        old = self._points.get(key)
        if old is not None:
            self._counts[old.get("status", "pending")] -= 1
        status = doc.get("status", "pending")
        self._counts[status] = self._counts.get(status, 0) + 1
        self._points[key] = doc
        if status in _LIVE:
            self._live[key] = None
        else:
            self._live.pop(key, None)
        if (doc.get("audit") or {}).get("status") in AUDIT_ACTIVE_STATUSES:
            self._audits[key] = None
        else:
            self._audits.pop(key, None)

    # ------------------------------------------------ journal surface
    def read_point(self, key: str) -> Optional[Dict]:
        with self.lock:
            doc = self._points.get(key)
            return dict(doc) if doc is not None else None

    def write_point(self, key: str, doc: Dict) -> Dict:
        with self.lock:
            doc = (self.journal.write_point(key, doc)
                   if self.journal is not None
                   else dict(doc, key=key))
            self._put(key, doc)
            return dict(doc)

    def mark(self, key: str, status: str, **fields) -> Dict:
        with self.lock:
            doc = dict(self._points.get(key) or {"key": key, "attempts": 0})
            doc["status"] = status
            doc.update(fields)
            return self.write_point(key, doc)

    def note_interrupted(self, done: int, total: int) -> None:
        """Append a manifest interruption record: a SIGINT'd sweep and
        a drained daemon leave the same history."""
        if self.journal is None:
            return
        with self.lock:
            self.manifest.setdefault("interruptions", []).append(
                {"done": done, "total": total, "unix": int(time.time())})
            self.journal.write_manifest(self.manifest)

    def resume(self) -> None:
        """Requeue every ``running`` or ``failed`` point (``requeued:
        "resumed"``, generation bumped): a resumed campaign fences out any
        worker that still thinks it owns a point — its renewals raise
        :class:`LeaseLost` — and retries what failed last time."""
        with self.lock:
            for key in list(self._live):
                self.write_point(key, _requeue(self._points[key], "resumed"))

    # ----------------------------------------------------- transitions
    def claim(self, key: str, worker: str,
              lease_seconds: float = DEFAULT_LEASE_SECONDS,
              now: Optional[float] = None) -> Optional[Dict]:
        """Claim one ``pending`` point; the running shard or None."""
        with self.lock:
            doc = self._points.get(key)
            claimed = doc and claim_shard(doc, worker, lease_seconds,
                                          _now(now))
            return self.write_point(key, claimed) if claimed else None

    def held(self, worker: str) -> Optional[Tuple[str, Dict]]:
        """The point or audit run ``worker`` holds here, if any: a
        repeated claim (a retry whose answer was lost, a duplicated
        delivery) gets it back instead of stranding it under a lease
        nobody will renew."""
        with self.lock:
            for key in self._live:
                if _holds(self._points[key], worker, None):
                    return key, dict(self._points[key])
            for key in self._audits:
                if _holds_audit(self._points[key], worker):
                    return key, _without_entry(self._points[key])
        return None

    def claim_next(self, worker: str,
                   lease_seconds: float = DEFAULT_LEASE_SECONDS,
                   now: Optional[float] = None
                   ) -> Optional[Tuple[str, Dict]]:
        """Claim the first pending point in manifest order, unless
        ``worker`` already :meth:`held` one here."""
        with self.lock:
            got = self.held(worker)
            if got or not self._counts.get("pending"):
                return got
            for key in self.keys:
                if self._points[key].get("status", "pending") == "pending":
                    return key, self.claim(key, worker, lease_seconds, now)
        return None

    def claim_audit(self, worker: str,
                    lease_seconds: float = DEFAULT_LEASE_SECONDS,
                    now: Optional[float] = None
                    ) -> Optional[Tuple[str, Dict]]:
        """Lease the first pending audit ``worker`` may run: ``(key,
        shard without its entry)`` or None."""
        with self.lock:
            for key in self._audits:
                claimed = claim_audit_shard(self._points[key], worker,
                                            lease_seconds, _now(now))
                if claimed:
                    return key, _without_entry(
                        self.write_point(key, claimed))
        return None

    def renew(self, key: str, worker: str,
              lease_seconds: float = DEFAULT_LEASE_SECONDS,
              hb: Optional[Dict] = None,
              now: Optional[float] = None) -> Dict:
        with self.lock:
            return self.write_point(key, renew_shard(
                self._points.get(key), key, worker, lease_seconds,
                _now(now), hb=hb))

    def complete(self, key: str, worker: str, entry: Dict,
                 source: str = "worker") -> str:
        """Publish a result: :data:`APPLIED`; :data:`REPEAT` if this
        worker already completed the point; :data:`STALE` if another
        completion won or the key is unknown."""
        with self.lock:
            doc = self._points.get(key)
            done = doc and complete_shard(doc, worker, entry, source)
            if done:
                self.write_point(key, done)
                return APPLIED
            return (REPEAT if doc and doc.get("completed_by") == worker
                    else STALE)

    def fail(self, key: str, worker: str, error: str,
             generation: Optional[int] = None) -> str:
        """Report a failed attempt: :data:`APPLIED` while ``worker``
        holds the point at ``generation`` (None: any); :data:`REPEAT` if
        that failure is already recorded; otherwise :data:`STALE`."""
        with self.lock:
            doc = self._points.get(key)
            failed = doc and fail_shard(doc, worker, error, generation)
            if failed:
                self.write_point(key, failed)
                return APPLIED
            return (REPEAT if doc and doc.get("status") == "failed"
                    and doc.get("failed_by") == worker
                    and generation in (None, doc.get("generation", 0))
                    else STALE)

    def release(self, key: str, worker: str) -> bool:
        with self.lock:
            doc = self._points.get(key)
            released = doc and release_shard(doc, worker)
            if released:
                self.write_point(key, released)
            return bool(released)

    def reap(self, now: Optional[float] = None, max_attempts: int = 0,
             poison_distinct: int = 0) -> List[Reaped]:
        """Apply :func:`reap_shard` to every running/failed point and
        every active audit."""
        now = _now(now)
        reaped: List[Reaped] = []
        with self.lock:
            for key in [*self._live, *self._audits]:
                verdict = reap_shard(self._points[key], now, max_attempts,
                                     poison_distinct)
                if verdict is not None:
                    doc, reason, worker = verdict
                    self.write_point(key, doc)
                    reaped.append((key, reason, worker))
        return reaped

    # ----------------------------------------------------------- views
    def summary(self, now: Optional[float] = None, max_attempts: int = 0,
                poison_distinct: int = 0
                ) -> Tuple[Dict[str, int], int, int, int, int]:
        """``(counts, leased, lease_expired, retrying, audits)``.

        Running audits count as leases like running points.
        ``retrying`` counts ``failed`` points the reaper still owes a
        verdict (retry budget left, or a poison verdict due): they are in
        flight, not terminal.  ``audits`` counts active audits, which
        hold the campaign open.
        """
        now = _now(now)
        leased = expired = retrying = 0
        with self.lock:
            for key in [*self._live, *self._audits]:
                doc = self._points[key]
                lease = (doc["audit"] if doc.get("status") == "done"
                         else doc)
                if lease.get("status") == "running":
                    if lease.get("lease_expires_unix", now) < now:
                        expired += 1
                    else:
                        leased += 1
                elif reap_shard(doc, now, max_attempts,
                                poison_distinct) is not None:
                    retrying += 1
            counts = {s: n for s, n in self._counts.items() if n}
            audits = len(self._audits)
        return counts, leased, expired, retrying, audits

    def results(self) -> Dict[str, Dict]:
        """``key -> entry`` for every done point, in manifest order."""
        with self.lock:
            return {k: self._points[k]["entry"] for k in self.keys
                    if self._points[k].get("status") == "done"
                    and self._points[k].get("entry")}

    def view(self) -> Dict:
        """The :func:`~repro.obs.live.read_campaign` view, from memory."""
        with self.lock:
            return campaign_view(self.manifest.get("points", ()),
                                 self._points)


def _now(now: Optional[float]) -> float:
    return time.time() if now is None else now
