"""Result integrity: sampled audits, fingerprint voting, quarantine.

PR 8/9 made the campaign fleet survive crashed workers and a hostile
network, but a worker that *completes* a point with silently wrong data
(bit-rot, a bad host, a buggy fork, cosmic-ray SDC) was trusted
unconditionally — one corrupted entry poisons the RunCache and every
figure built on it.  Simulations are deterministic, so integrity is
cheap to verify: re-run the point anywhere and the
:func:`~repro.harness.campaign.entry_fingerprint` must match
bit-for-bit.  This module is the daemon-side machinery that does so
systematically:

* **Audit sampling** (:meth:`IntegrityMonitor.consider`, called on
  the completion that makes a point ``done``) — a seeded,
  deterministic sample (:func:`~repro.harness.spec.should_audit`) of
  worker-completed points gets a ``pending`` audit.  The audit lives in
  the point shard (an ``audit`` sub-document that never touches the
  result ``entry``, so fingerprints are unaffected), and the audit
  *run* is a lease in the campaign's
  :class:`~repro.harness.lease.PointTable` like any other: claimed
  through ``/claim`` by a worker other than the original completer,
  renewed, failed and reaped there, and reloaded from the shards on a
  daemon restart.  This module decides only what to sample
  and what an audit result means.
* **Arbitration** (:meth:`IntegrityMonitor.on_audit_complete`) — a
  matching audit is a cheap pass.  On mismatch a third, daemon-local
  tie-break execution runs and majority vote decides; the losing entry
  is quarantined beside the journal via the shared ``*.corrupt``
  machinery (:func:`repro.utils.shards.quarantine_shard`), the journal
  and run cache are atomically repaired with the winner, and the
  diagnostic report is written beside the journal as
  ``<key>.integrity.json`` for the post-mortem.
* **Worker reputation** (:meth:`IntegrityMonitor.record_misbehaviour`)
  — mismatches, crashes, and lease expiries fold into a rolling
  per-worker score over the last ``REPUTATION_WINDOW`` seconds;
  crossing the threshold quarantines the worker: ``/claim`` answers it
  shutdown, and the supervisor respawns a pool slot under a fresh
  identity.
* **Poison points** — the daemon's reaper consults
  ``ServiceConfig.poison_workers`` (see
  :func:`repro.harness.lease.reap_shard`): a point whose attempts failed
  under that many *distinct* workers is the point's fault, not the
  fleet's, and transitions to the terminal ``poisoned`` status instead
  of burning every worker in turn.
"""

import hashlib
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.harness.campaign import entry_fingerprint
from repro.harness.lease import PointTable
from repro.harness.spec import should_audit
from repro.utils.shards import atomic_write_json, quarantine_shard

__all__ = ["IntegrityMonitor", "REPUTATION_WEIGHTS", "REPUTATION_WINDOW"]

# Rolling-score weights per reputation event kind.  A mismatch is direct
# evidence of bad data; a crash or lease expiry is circumstantial (the
# point itself may be pathological), so they weigh less.
REPUTATION_WEIGHTS = {"mismatch": 4.0, "crash": 2.0, "lease_expired": 1.0}
# Seconds of reputation history that count toward the score.
REPUTATION_WINDOW = 600.0


class IntegrityMonitor:
    """The daemon's integrity book: sampling, arbitration, reputation.

    Thread-safe under one lock; the daemon calls in from the HTTP
    handler threads (sampling and audit verdicts on completion), the
    reaper (lease-expiry blame), and the supervisor (crash blame).
    ``run_config`` is the arbitration executor — ``RunConfig -> entry``;
    the default (installed by the daemon) simulates locally, tests
    inject a stub.  ``clock`` times reputation events (tests pass a
    fake).

    Reputation events decay by falling out of the window rather than by
    weighting: a worker is judged on what it did recently, and an old
    incident cannot quarantine it forever — but an actual quarantine is
    permanent for the process (the supervisor replaces the worker, it
    does not parole it).
    """

    def __init__(self, audit_rate: float = 0.0, audit_seed: int = 0,
                 quarantine_threshold: float = 5.0,
                 run_config: Optional[Callable] = None,
                 events=None, log: Optional[Callable[[str], None]] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.audit_rate = audit_rate
        self.audit_seed = audit_seed
        self.quarantine_threshold = quarantine_threshold
        self.run_config = run_config
        self.events = events
        self._log = log or (lambda msg: None)
        self._clock = clock
        self._lock = threading.Lock()
        # worker -> (time, weight, kind) events inside the window.
        self._events: Dict[str, Deque[Tuple[float, float, str]]] = {}
        self._quarantined: Dict[str, str] = {}   # worker -> event kinds
        # Counters behind the repro_service_audit_* metrics.
        self.audits_scheduled = 0
        self.audits_passed = 0
        self.audit_mismatches = 0
        self.audits_repaired = 0
        self.audits_rejected = 0
        self.audits_unresolved = 0
        self.complete_rejects = 0

    # ---------------------------------------------------------- sampling
    def consider(self, campaign: str, table: PointTable, key: str,
                 shard: Dict) -> bool:
        """Maybe give one done point a pending audit; True when sampled.

        Only worker-sourced completions are sampled: cache hits were
        verified when first computed, and audit completions are the
        verification.  Idempotent — a shard that already carries an
        ``audit`` sub-document is never re-sampled.
        """
        if shard.get("status") != "done" or shard.get("entry") is None:
            return False
        if shard.get("source", "worker") != "worker":
            return False
        if shard.get("audit") is not None:
            return False
        if not should_audit(key, self.audit_rate, self.audit_seed):
            table.mark(key, "done", audit={"status": "skipped"})
            return False
        with self._lock:
            self.audits_scheduled += 1
        table.mark(key, "done", audit={"status": "pending"})
        self._log(f"audit scheduled for {campaign}/{key} "
                  f"(completed by {shard.get('completed_by')})")
        return True

    # -------------------------------------------------------- completion
    def note_complete_reject(self) -> None:
        """Count one completion refused because its entry does not match
        the point's config (``repro_service_complete_rejects_total``)."""
        with self._lock:
            self.complete_rejects += 1

    def on_audit_complete(self, campaign: str, table: PointTable,
                          key: str, worker: str, entry: Dict,
                          cache=None, config=None,
                          arbitrate_async: bool = True) -> Optional[Dict]:
        """Fold an audit run's result in; None unless ``worker`` runs (or
        ran) this point's audit.

        A fingerprint match closes the audit (``passed``).  A mismatch
        opens arbitration: a third, daemon-local execution votes, and
        :meth:`_arbitrate` repairs or rejects accordingly.  Arbitration
        runs on a background thread by default so the completing
        worker's HTTP request is never blocked on a simulation.  A
        repeat of the audit worker's publish gets its first answer again
        (flagged ``repeat``) and never re-arbitrates or re-scores anyone.
        """
        with table.lock:
            shard = table.read_point(key) or {}
            audit = shard.get("audit") or {}
            if shard.get("status") != "done" or audit.get("worker") != worker:
                # A late completion from some fenced-out third worker is
                # not the audit vote; let first-done-wins dispose of it.
                return None
            if audit.get("status") != "running":
                return {"audit": ("passed" if audit.get("status") == "passed"
                                  else "mismatch"), "repeat": True}
            matched = (entry_fingerprint(entry)
                       == entry_fingerprint(shard["entry"]))
            table.mark(key, "done", audit={
                "status": "passed" if matched else "arbitrating",
                "worker": worker})
        original_worker = str(shard.get("completed_by") or "?")
        with self._lock:
            if matched:
                self.audits_passed += 1
            else:
                self.audit_mismatches += 1
        if matched:
            self._log(f"audit passed for {campaign}/{key} (by {worker})")
            return {"audit": "passed"}
        if self.events is not None:
            self.events.audit_mismatch(campaign, key, original_worker,
                                       worker)
        self._log(f"AUDIT MISMATCH on {campaign}/{key}: "
                  f"{original_worker} vs {worker}; arbitrating")
        args = (campaign, table, key, original_worker, worker, entry,
                cache, config)
        if arbitrate_async:
            threading.Thread(
                target=self._arbitrate_safely, args=args,
                name=f"repro-arbitrate-{key[:12]}", daemon=True).start()
        else:
            self._arbitrate_safely(*args)
        return {"audit": "mismatch"}

    def audit_requeued(self, table: PointTable, key: str) -> Optional[str]:
        """The audit status of ``key`` after its run failed or lapsed
        (None unless the point is ``done``), counting an audit that used
        its last run as ``unresolved``."""
        shard = table.read_point(key) or {}
        if shard.get("status") != "done":
            return None
        status = (shard.get("audit") or {}).get("status")
        if status == "unresolved":
            with self._lock:
                self.audits_unresolved += 1
        return status

    # ------------------------------------------------------- arbitration
    def _arbitrate_safely(self, *args) -> None:
        try:
            self._arbitrate(*args)
        except Exception as exc:  # noqa: BLE001 - must never kill the daemon
            self._log(f"arbitration error: {exc}")

    def _arbitrate(self, campaign: str, table: PointTable, key: str,
                   original_worker: str, audit_worker: str,
                   audit_entry: Dict, cache=None, config=None) -> None:
        """Third execution + majority vote; repair or reject accordingly."""
        shard = table.read_point(key) or {}
        original_entry = shard.get("entry")
        original_fp = entry_fingerprint(original_entry)
        audit_fp = entry_fingerprint(audit_entry)
        tie_fp = None
        tie_error = None
        if self.run_config is not None and config is not None:
            try:
                tie_fp = entry_fingerprint(self.run_config(config))
            except Exception as exc:  # noqa: BLE001
                tie_error = f"{type(exc).__name__}: {exc}"

        if tie_fp == audit_fp:
            verdict = "repaired"       # 2:1 against the original entry
            loser_worker = original_worker
            winner_entry, loser_entry = audit_entry, original_entry
        elif tie_fp == original_fp:
            verdict = "rejected"       # 2:1 against the audit entry
            loser_worker = audit_worker
            winner_entry, loser_entry = original_entry, audit_entry
        else:
            verdict = "unresolved"     # three-way split (or no tie-break)
            loser_worker = None
            winner_entry, loser_entry = original_entry, audit_entry

        report = {
            "kind": "integrity_violation",
            "campaign": campaign, "key": key, "verdict": verdict,
            "original_worker": original_worker,
            "audit_worker": audit_worker,
            "original_fingerprint_sha256":
                hashlib.sha256(original_fp.encode()).hexdigest(),
            "audit_fingerprint_sha256":
                hashlib.sha256(audit_fp.encode()).hexdigest(),
            "tiebreak_fingerprint_sha256":
                (hashlib.sha256(tie_fp.encode()).hexdigest()
                 if tie_fp is not None else None),
            "tiebreak_error": tie_error,
            "blamed_worker": loser_worker,
            "unix": round(time.time(), 3),
        }

        # Quarantine the losing entry's bytes (evidence, not deletion),
        # then atomically install the winner in the journal (+ cache).
        if loser_entry is not None and verdict in ("repaired", "rejected"):
            evidence = table.root / f"{key}.audit-loser.json"
            atomic_write_json(evidence,
                              {"entry": loser_entry, "worker": loser_worker,
                               "verdict": verdict}, indent=1, sort_keys=True)
            quarantine_shard(evidence, self.events, "integrity")
        if verdict == "repaired":
            repaired = {k: v for k, v in shard.items()
                        if k not in ("entry", "completed_by", "source")}
            repaired["entry"] = winner_entry
            repaired["completed_by"] = audit_worker
            repaired["source"] = "audit"
            repaired["repaired_from"] = original_worker
            repaired["audit"] = {"status": "repaired",
                                 "worker": audit_worker}
            table.write_point(key, repaired)
            if cache is not None and config is not None:
                # The cache shard holds the corrupted bytes: quarantine
                # it for the post-mortem, then publish the winner.
                quarantine_shard(cache.path_for(config), self.events,
                                 "runcache-integrity")
                cache.put(config, winner_entry)
        else:
            table.mark(key, "done",
                         audit={"status": verdict, "worker": audit_worker})

        atomic_write_json(table.root / f"{key}.integrity.json",
                          report, indent=1, sort_keys=True)

        with self._lock:
            if verdict == "repaired":
                self.audits_repaired += 1
            elif verdict == "rejected":
                self.audits_rejected += 1
            else:
                self.audits_unresolved += 1
        if loser_worker is not None:
            self.record_misbehaviour(loser_worker, "mismatch")
        self._log(f"arbitration on {campaign}/{key}: {verdict} "
                  f"(blamed: {loser_worker})")

    # -------------------------------------------------------- reputation
    def record_misbehaviour(self, worker: str, kind: str) -> bool:
        """Fold one reputation event in; True when it quarantines."""
        if not worker or worker == "?":
            return False
        now = self._clock()
        with self._lock:
            events = self._events.setdefault(worker, deque())
            events.append((now, REPUTATION_WEIGHTS.get(kind, 1.0), kind))
            if worker in self._quarantined:
                return False
            score = self._score_locked(worker, now)
            if score < self.quarantine_threshold:
                return False
            self._quarantined[worker] = "+".join(
                sorted({k for _, _, k in events}))
        if self.events is not None:
            self.events.worker_quarantined(worker, score, kind)
        self._log(f"worker {worker} QUARANTINED "
                  f"(score {score:.1f} >= "
                  f"{self.quarantine_threshold:.1f}, last: {kind})")
        return True

    def _score_locked(self, worker: str, now: float) -> float:
        events = self._events.get(worker)
        if not events:
            return 0.0
        while events and now - events[0][0] > REPUTATION_WINDOW:
            events.popleft()
        return sum(w for _, w, _ in events)

    def score(self, worker: str) -> float:
        with self._lock:
            return self._score_locked(worker, self._clock())

    def is_quarantined(self, worker: str) -> bool:
        with self._lock:
            return worker in self._quarantined

    def quarantined(self) -> Dict[str, str]:
        """``worker -> the event kinds behind its quarantine``."""
        with self._lock:
            return dict(self._quarantined)

    # ----------------------------------------------------------- metrics
    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "audits_scheduled": self.audits_scheduled,
                "audits_passed": self.audits_passed,
                "audit_mismatches": self.audit_mismatches,
                "audits_repaired": self.audits_repaired,
                "audits_rejected": self.audits_rejected,
                "audits_unresolved": self.audits_unresolved,
                "complete_rejects": self.complete_rejects,
            }
