"""The campaign daemon: simulation-as-a-service over HTTP.

:class:`CampaignService` is the single writer of its campaigns' point
shards.  Each active campaign lives in memory as a
:class:`~repro.harness.lease.PointTable` (loaded once, at activation or
recovery); every lease transition — claim, renew, complete, fail,
release, requeue, poison, audit mark — runs under one lock and writes its
shard through to the journal before the RPC answers.  Counts, terminal
status, scheduling, results and drain all come from the tables — audit
runs included, which lease through them like points; after start-up the
daemon never reads a shard back.  Around the tables run a
threaded stdlib HTTP server — the only campaign HTTP handler — and one
plain **control thread** that

* activates queued campaigns (write-ahead journal + run-cache dedup,
  :func:`~repro.harness.campaign.activate`, as a local sweep does);
* reaps: requeues points whose lease lapsed (dead workers) and retries
  failed points up to ``max_attempts``;
* supervises the in-daemon worker pool — just ``python -m repro worker
  --connect <own-url>`` subprocesses, byte-for-byte the worker an
  operator would start on another host, so there is exactly one
  execution path to trust.

It wakes when a campaign is submitted, cancelled or finishes, on stop,
and otherwise every ``reap_interval``.

HTTP API (JSON unless noted)::

    GET    /                      index (text)
    GET    /campaigns             all campaigns + queue gauges
    POST   /campaigns             submit a sweep spec -> 201 {id}
                                  (400 invalid, 429 + Retry-After full)
    GET    /campaigns/<id>        one campaign's record + live counts
    GET    /campaigns/<id>/results  key -> result entry for done points
    GET    /campaigns/<id>/stream   SSE: one status frame per interval
    DELETE /campaigns/<id>        cooperative cancel
    POST   /claim                 {worker} -> {campaign, key, config,
                                  shard, audit?} or {key: null, shutdown?}
    POST   /renew                 {campaign, worker, key, hb?}
                                  -> 200 ok / 409 lease lost
    POST   /complete              {campaign, worker, key, entry, source?}
                                  -> {accepted} (first done wins; publishes
                                  to journal + run cache)
    POST   /fail                  {campaign, worker, key, error, generation?}
                                  -> 200 ok / 409 lease lost
    POST   /release               {campaign, worker, key} -> {released}
    GET    /metrics               Prometheus text (service gauges)
    GET    /healthz               liveness probe

The five ``POST`` lease endpoints are the remote-execution protocol, and
``/claim`` is all of the scheduling: one request picks the campaign
(highest priority, then oldest) and leases a point or an audit run in
it.
Workers never see the campaign filesystem (the claim answer carries no
path; only the operator views under ``/campaigns`` show ``dir``), and
the lease length is always the daemon's ``lease_seconds``.  A repeated
request — a retry whose first answer was lost, a duplicated delivery —
is answered by the point table from the shard itself
(:mod:`repro.harness.lease`), never re-applied.

On SIGTERM (or :meth:`CampaignService.drain`) the daemon drains
gracefully: ``/claim`` answers ``{"key": null, "shutdown": true}``,
leases — points and audit runs — get up to ``drain_seconds`` to
complete or lapse (renew/complete stay served), unfinished active
campaigns receive the manifest interruption record a SIGINT'd sweep
writes, and only then does the daemon exit — so a restart resumes
bit-identically.

Every response carries ``Cache-Control: no-store`` — these are live
views; a cached 404 or stale counts would actively mislead.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

import repro
from repro.harness.campaign import CampaignJournal, activate
from repro.harness.runcache import RunCache, entry_from_result
from repro.harness.simulator import RunConfig, simulate
from repro.obs.events import EventTrace
from repro.obs.promtext import CONTENT_TYPE, prom_line, render_prometheus
from repro.harness.lease import (APPLIED, REPEAT, STALE, LeaseLost,
                                 PointTable)
from repro.harness.spec import ValidationError, configs_from_spec
from repro.service.integrity import IntegrityMonitor
from repro.service.queue import BackPressure, CampaignRecord, ServiceState
from repro.workloads import workload_names

__all__ = ["CampaignService", "ServiceConfig"]

_INDEX = """repro campaign service
  GET    /campaigns             list campaigns + queue gauges
  POST   /campaigns             submit {workloads, engines, instructions} or
                                {points: [...]}, priority? -> {id}
  GET    /campaigns/<id>        status
  GET    /campaigns/<id>/results  done-point result entries
  GET    /campaigns/<id>/stream   SSE status frames
  DELETE /campaigns/<id>        cooperative cancel
  POST   /claim                 {worker}: lease a point or an audit run
  POST   /renew                 {campaign, worker, key, hb?}
  POST   /complete              {campaign, worker, key, entry, source?}
  POST   /fail                  {campaign, worker, key, error, generation?}
  POST   /release               {campaign, worker, key}
  GET    /metrics               Prometheus service gauges
  GET    /healthz               liveness probe
  GET    /                      this index
"""


@dataclass
class ServiceConfig:
    """Daemon configuration (all durations in seconds)."""

    root: str = "campaigns"        # one subdirectory per campaign
    host: str = "127.0.0.1"
    port: int = 0                  # 0 = ephemeral (bound port on .port)
    workers: int = 2               # in-daemon worker pool size (0 = none)
    lease_seconds: float = 30.0
    reap_interval: float = 2.0     # control-thread cadence when idle
    stream_interval: float = 1.0   # SSE frame period
    heartbeat_interval: float = 1.0
    cache_dir: Optional[str] = None
    max_queued_points: int = 100_000
    max_active_campaigns: int = 4
    max_attempts: int = 3          # failed-point retries (reaper)
    drain_seconds: float = 30.0    # SIGTERM: grace for leased points
    log: bool = True
    # Result-integrity subsystem (repro.service.integrity).
    audit_rate: float = 0.0        # fraction of completions re-executed
    audit_seed: int = 0
    quarantine_threshold: float = 5.0
    poison_workers: int = 3        # distinct failing workers -> poisoned
    #                                (0 disables the breaker)


class CampaignService:
    """One daemon instance; ``start()``/``stop()`` or ``with`` it."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.root = pathlib.Path(self.config.root)
        self.state = ServiceState(
            workload_names(),
            max_queued_points=self.config.max_queued_points,
            max_active_campaigns=self.config.max_active_campaigns)
        self.events = EventTrace()
        self.cache = (RunCache(self.config.cache_dir)
                      if self.config.cache_dir else None)
        self.lease_expirations = 0
        self.retries = 0
        self.worker_respawns = 0
        self.points_poisoned = 0
        # Result integrity: audit sampling, worker reputation, and the
        # daemon-local arbitration executor (a straight deterministic
        # re-simulation; tests inject a stub via integrity.run_config).
        self.integrity = IntegrityMonitor(
            audit_rate=self.config.audit_rate,
            audit_seed=self.config.audit_seed,
            quarantine_threshold=self.config.quarantine_threshold,
            run_config=lambda config: entry_from_result(simulate(config)),
            events=self.events, log=self._log)
        # HTTP-protocol health (the repro_service_http_* metrics).
        self.http_requests: Dict[str, int] = {}
        self.http_retries = 0        # requests arriving with Attempt > 1
        self.http_duplicates = 0     # publishes answered, not applied
        self._worker_requests: Dict[str, int] = {}
        self._http_lock = threading.Lock()
        # The point tables: every transition holds this one lock.
        self._lock = threading.RLock()
        self._tables: Dict[str, PointTable] = {}
        self._config_maps: Dict[str, Dict] = {}   # cid -> key -> RunConfig
        self._draining = threading.Event()
        self._spawned = 0        # monotonic: worker ids never repeat
        self._workers: List[Tuple[str, subprocess.Popen]] = []
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._control_thread: Optional[threading.Thread] = None
        self._wake = threading.Event()
        self._stopping = threading.Event()

    # ------------------------------------------------------------ control
    @property
    def port(self) -> int:
        return self._httpd.server_address[1] if self._httpd else 0

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def _log(self, msg: str) -> None:
        if self.config.log:
            print(f"service: {msg}", file=sys.stderr, flush=True)

    def start(self) -> "CampaignService":
        self.root.mkdir(parents=True, exist_ok=True)
        self._recover()
        try:
            self._httpd = ThreadingHTTPServer(
                (self.config.host, self.config.port), self._handler_class())
        except OSError as exc:
            # A busy port degrades to an ephemeral one with a log line,
            # never a dead daemon.
            self._log(f"cannot bind {self.config.host}:{self.config.port} "
                      f"({exc}); retrying on an ephemeral port")
            self._httpd = ThreadingHTTPServer(
                (self.config.host, 0), self._handler_class())
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-service-http",
            daemon=True)
        self._http_thread.start()
        self._control_thread = threading.Thread(
            target=self._control, name="repro-service-control", daemon=True)
        self._control_thread.start()
        self._log(f"listening at {self.url} "
                  f"(root={self.root}, workers={self.config.workers})")
        return self

    def stop(self) -> None:
        self._stopping.set()
        self._wake.set()
        if self._control_thread is not None:
            self._control_thread.join(timeout=10.0)
        for _wid, proc in self._workers:
            if proc.poll() is None:
                proc.terminate()
        for _wid, proc in self._workers:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
        if self._httpd is not None:
            self._httpd.shutdown()
            if self._http_thread is not None:
                self._http_thread.join(timeout=5.0)
            self._httpd.server_close()

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """Block until interrupted (the ``repro service`` foreground mode).

        SIGINT stops immediately (journals make that loss-free); SIGTERM
        triggers the graceful drain first, so an orchestrated shutdown
        (systemd, Kubernetes, CI teardown) lets leased points land.
        """
        term = threading.Event()
        previous = None
        try:
            previous = signal.signal(signal.SIGTERM,
                                     lambda *_: term.set())
        except ValueError:
            pass  # not the main thread: no handler, SIGINT still works
        try:
            while not self._stopping.is_set():
                if term.is_set():
                    self.drain()
                    break
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()
            if previous is not None:
                try:
                    signal.signal(signal.SIGTERM, previous)
                except ValueError:
                    pass

    # -------------------------------------------------------------- drain
    def drain(self, drain_seconds: Optional[float] = None) -> None:
        """Graceful shutdown: no new claims, wait for leases.

        ``/claim`` starts answering ``{"shutdown": true}``, while
        renew/complete stay served; then the daemon waits up to
        ``drain_seconds`` for every unexpired lease (point or audit run)
        to complete or lapse, and finally writes the manifest interruption
        record (the PR-5 shape a SIGINT'd sweep leaves) for each active
        campaign with work remaining, so a restart — daemon or ``sweep
        --resume`` — continues bit-identically.
        """
        if self._draining.is_set():
            return
        self._draining.set()
        grace = (self.config.drain_seconds if drain_seconds is None
                 else drain_seconds)
        self._log(f"draining: no new claims; waiting up to {grace:.0f}s "
                  "for leased points")
        deadline = time.monotonic() + max(0.0, grace)
        while time.monotonic() < deadline:
            leased = sum(table.summary()[1] for cid, table in
                         self._live_tables(("active", "cancelled")))
            if leased == 0:
                break
            time.sleep(0.25)
        self._refresh_all()
        for cid, table in self._live_tables(("active",)):
            record = self.state.get(cid)
            done = record.counts.get("done", 0)
            total = record.total_points
            if total and record.finished_points() >= total:
                continue
            table.note_interrupted(done, total)
            self._log(f"drain: {cid} interrupted at {done}/{total} done")
        self._log("drained")

    # ----------------------------------------------------------- recovery
    def _recover(self) -> None:
        """Re-adopt campaigns journaled by a previous daemon incarnation.

        Everything needed to resume lives in ``campaign.json`` (the spec
        plus the ``service`` submission metadata written at activation;
        a ``tenant`` an older daemon wrote there is ignored); the point
        table is loaded from the shards, once, leases and audit leases
        alike.  Only an arbitration dies with the process: its audit
        runs again.
        """
        for manifest_path in sorted(self.root.glob("*/campaign.json")):
            table = PointTable.load(CampaignJournal(manifest_path.parent),
                                    lock=self._lock)
            if table is None:
                continue
            spec = table.manifest.get("spec") or {}
            meta = spec.get("service") or {}
            cid = meta.get("id") or manifest_path.parent.name
            record = CampaignRecord(
                id=cid, priority=int(meta.get("priority", 0)),
                spec={k: v for k, v in spec.items()
                      if k not in ("cache_dir", "service")},
                dir=str(manifest_path.parent),
                submitted_unix=float(meta.get("submitted_unix", 0.0)),
                seq=int(meta.get("seq", 0)) or self._seq_from_id(cid),
                status="active", total_points=len(table.keys))
            self._tables[cid] = table
            self.state.adopt(record)
            for key in table.keys:
                shard = table.read_point(key)
                if (shard.get("audit") or {}).get("status") == "arbitrating":
                    table.mark(key, "done", audit={"status": "pending"})
                elif self.config.audit_rate > 0.0:
                    # Completions that landed unsampled (a crash between
                    # the two writes, or a lower rate last time).
                    self.integrity.consider(cid, table, key, shard)
            self._refresh(cid)
            self._log(f"recovered campaign {cid} "
                      f"({record.status}, {record.total_points} points)")

    @staticmethod
    def _seq_from_id(cid: str) -> int:
        try:
            return int(cid.lstrip("c"))
        except ValueError:
            return 0

    # ------------------------------------------------------ control thread
    def _control(self) -> None:
        """Activate, reap, refresh, supervise; then sleep until woken."""
        while not self._stopping.is_set():
            for step in (self._activate_queued, self._reap,
                         self._refresh_all, self._supervise):
                try:
                    step()
                except Exception as exc:  # noqa: BLE001 - must survive
                    self._log(f"{step.__name__.strip('_')} error: {exc}")
            self._wake.wait(self.config.reap_interval)
            self._wake.clear()

    def _live_tables(self, statuses) -> List[Tuple[str, PointTable]]:
        """``(cid, table)`` for campaigns whose record is in ``statuses``."""
        return [(cid, table) for cid, table in list(self._tables.items())
                if self.state.get(cid).status in statuses]

    # --------------------------------------------------------- activation
    def _activate_queued(self) -> None:
        if not self._draining.is_set():
            for record in self.state.to_activate():
                self._activate(record)

    def _activate(self, record: CampaignRecord) -> None:
        """Write-ahead setup for one queued campaign + run-cache dedup:
        the :func:`~repro.harness.campaign.activate` a local sweep runs."""
        journal = CampaignJournal(record.dir)
        journal.root.mkdir(parents=True, exist_ok=True)
        configs = self._configs(record)
        spec_doc = dict(record.spec)
        spec_doc["cache_dir"] = self.config.cache_dir
        spec_doc["service"] = {
            "id": record.id, "priority": record.priority, "seq": record.seq,
            "submitted_unix": record.submitted_unix,
        }
        table, deduped = activate(journal, list(configs.values()),
                                  spec=spec_doc, cache=self.cache,
                                  lock=self._lock)
        self._tables[record.id] = table
        self.state.mark_active(record.id, deduped=deduped)
        self.events.campaign_activated(record.id, len(configs), deduped)
        self._log(f"activated {record.id}: {len(configs)} points"
                  + (f", {deduped} from cache" if deduped else ""))
        self._refresh(record.id)

    # --------------------------------------------------------- refreshing
    def _refresh(self, cid: str) -> None:
        """Fold one table's counts into its record (in memory, no I/O).

        Runs under the table lock, so a completion and its audit sampling
        are never split by a refresh: "terminal" and "sampled" stay
        atomic per point.
        """
        table = self._tables.get(cid)
        if table is None:
            return
        with self._lock:
            counts, leased, expired, retrying, audits = table.summary(
                max_attempts=self.config.max_attempts,
                poison_distinct=self.config.poison_workers)
            finished = self.state.refresh_counts(
                cid, counts, leased, expired, audits_pending=audits,
                retrying=retrying)
        if finished:
            record = self.state.get(cid)
            self.events.campaign_completed(cid, record.status)
            self._log(f"campaign {cid} {record.status} ({record.counts})")
            self._wake.set()   # a slot freed: activate the next campaign

    def _refresh_all(self) -> None:
        for cid, _table in self._live_tables(("active",)):
            self._refresh(cid)

    # ------------------------------------------------------------- reaper
    def _reap(self, now: Optional[float] = None
              ) -> List[Tuple[str, str, str, Optional[str]]]:
        """Requeue lapsed leases (points and audit runs) and due retries
        across live campaigns; ``(campaign, key, reason, worker)`` per
        transition."""
        reaped_all = []
        for cid, table in self._live_tables(("active", "cancelled")):
            cancelled = self.state.get(cid).status == "cancelled"
            reaped = table.reap(
                now=now,
                max_attempts=0 if cancelled else self.config.max_attempts,
                poison_distinct=self.config.poison_workers)
            for key, reason, worker in reaped:
                if reason == "lease_expired":
                    self.lease_expirations += 1
                    # The dead worker cannot report itself; the reaper
                    # is its obituary and its reputation hit.
                    if worker:
                        self.integrity.record_misbehaviour(
                            worker, "lease_expired")
                    self.integrity.audit_requeued(table, key)
                elif reason == "poisoned":
                    self.points_poisoned += 1
                    self.events.point_poisoned(
                        cid, key, table.read_point(key).get(
                            "failed_workers", []))
                else:
                    self.retries += 1
                self.events.lease_reaped(cid, key, reason)
                self._log(f"reaped {cid}/{key}: {reason}")
                reaped_all.append((cid, key, reason, worker))
            if reaped:
                self._refresh(cid)
        return reaped_all

    # --------------------------------------------------------- supervisor
    def _supervise(self) -> None:
        if self._stopping.is_set() or self._draining.is_set():
            return  # draining: let the pool wind down, respawn nothing
        live = []
        for worker_id, proc in self._workers:
            if proc.poll() is None:
                live.append((worker_id, proc))
            else:
                self.worker_respawns += 1
                # Exit 0 is a clean shutdown (idle exit, or a quarantined
                # worker obeying /claim); anything else — injection
                # os._exit, a signal's negative code, a crash — counts
                # against the worker's reputation.
                if proc.returncode != 0:
                    self.integrity.record_misbehaviour(worker_id, "crash")
                self._log(f"worker {worker_id} pid={proc.pid} exited "
                          f"(code {proc.returncode}); respawning")
        self._workers = live
        env = dict(os.environ)
        pkg_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [pkg_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        while len(self._workers) < self.config.workers:
            self._spawned += 1
            worker_id = f"svc-w{self._spawned}"
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", self.url, "--id", worker_id,
                 "--heartbeat-interval",
                 str(self.config.heartbeat_interval),
                 "--poll-interval", "0.2"],
                env=env)
            self._workers.append((worker_id, proc))
            self._log(f"spawned worker {worker_id} (pid {proc.pid})")

    def live_workers(self) -> int:
        return sum(1 for _wid, p in self._workers if p.poll() is None)

    # -------------------------------------------------------------- views
    def _submit(self, doc: Dict) -> CampaignRecord:
        record = self.state.submit(
            doc, make_dir=lambda cid: self.root / cid)
        self.events.campaign_submitted(record.id, record.total_points)
        self._log(f"submitted {record.id}: {record.total_points} points")
        self._wake.set()
        return record

    def _cancel(self, cid: str) -> Optional[CampaignRecord]:
        record = self.state.cancel(cid)
        if record is not None and record.status == "cancelled":
            # The PR-5 interruption record: the manifest remembers the
            # cut, exactly like a SIGINT'd sweep, so a later
            # ``sweep --resume`` knows this was a deliberate stop.
            done = record.counts.get("done", 0)
            table = self._tables.get(cid)
            if table is not None:   # a queued campaign has no journal
                table.note_interrupted(done, record.total_points)
            self.events.campaign_cancelled(cid)
            self._log(f"cancelled {cid} ({done}/{record.total_points} done)")
            self._wake.set()
        return record

    def _campaign_doc(self, cid: str) -> Optional[Dict]:
        record = self.state.get(cid)
        if record is None:
            return None
        doc = record.to_dict()
        # The per-point view (lease fields + derived lease_expired flags)
        # is the one a local ``repro watch`` of the directory derives.
        table = self._tables.get(cid)
        if table is not None:
            doc.update(table.view())
        return doc

    def _results_doc(self, cid: str) -> Optional[Dict]:
        record = self.state.get(cid)
        if record is None:
            return None
        table = self._tables.get(cid)
        results = table.results() if table is not None else {}
        return {"id": cid, "status": record.status,
                "total_points": record.total_points,
                "done": len(results), "results": results}

    def _claim(self, worker: str) -> Dict:
        """``POST /claim``, all of the scheduling in one step.

        In order: the drain and quarantine answers; the point or audit
        run ``worker`` already holds in any active campaign; else, in
        ``(-priority, seq)`` campaign order, the first pending point of
        a campaign, then a pending audit of a point ``worker`` did not
        complete.  The new lease is taken and folded into its campaign
        record before the lock is let go, so racing claims never lease
        one point twice.
        """
        if self._stopping.is_set() or self._draining.is_set():
            return {"key": None, "shutdown": True}
        if self.integrity.is_quarantined(worker):
            # A quarantined worker gets no work, ever: the shutdown
            # answer makes a pool worker exit cleanly, and the
            # supervisor replaces the slot under a fresh identity.
            return {"key": None, "shutdown": True, "quarantined": True}
        lease = self.config.lease_seconds
        with self._lock:
            got = next(((cid, held) for cid, table
                        in self._live_tables(("active",))
                        if (held := table.held(worker))), None)
            if got is None:
                for record in self.state.schedule():
                    table = self._tables[record.id]
                    claimed = (table.claim_next(worker, lease)
                               or table.claim_audit(worker, lease))
                    if claimed:
                        got = record.id, claimed
                        break
                else:
                    return {"key": None}
            cid, (key, shard) = got
            self._refresh(cid)
        self.events.point_claimed(cid, key, worker)
        answer = {"campaign": cid, "key": key, "shard": shard,
                  "config": self._configs(self.state.get(cid))[key].to_dict()}
        if shard.get("status") == "done":
            # An audit run: the worker re-executes with its cache
            # bypassed and publishes with source="audit".
            answer["audit"] = True
        return answer

    # --------------------------------------------- remote lease protocol
    def _count_http(self, endpoint: str, headers) -> None:
        """Fold one request's protocol headers into the http_* metrics.

        The retry count deliberately lives daemon-side, derived from the
        client's ``X-Repro-Attempt`` header: a chaos-injected 500 never
        reaches us, but the retried request that follows it does — so
        ``repro_service_http_retries_total`` is scrapeable evidence the
        client actually retried.  ``X-Repro-Worker`` counts requests per
        worker (``repro_service_worker_requests_total``), so a worker's
        first request is what makes it visible in ``/metrics``.
        """
        with self._http_lock:
            self.http_requests[endpoint] = \
                self.http_requests.get(endpoint, 0) + 1
            try:
                if int(headers.get("X-Repro-Attempt", 1)) > 1:
                    self.http_retries += 1
            except (TypeError, ValueError):
                pass
            worker = headers.get("X-Repro-Worker")
            if worker:
                self._worker_requests[worker] = \
                    self._worker_requests.get(worker, 0) + 1

    def _configs(self, record: CampaignRecord) -> Dict[str, RunConfig]:
        """``key -> RunConfig`` for one campaign (memoised)."""
        cmap = self._config_maps.get(record.id)
        if cmap is None:
            cmap = {c.cache_key(): c for c in configs_from_spec(record.spec)}
            self._config_maps[record.id] = cmap
        return cmap

    @staticmethod
    def _entry_config_problem(key: str,
                              entry: Dict) -> Optional[Tuple[str, str]]:
        """Zeroth-line integrity check on a completion: the *whole*
        embedded config (:func:`~repro.harness.runcache.entry_from_result`)
        must rebuild into a :class:`RunConfig` that mints the claimed key,
        or the entry is for a different point (a buggy or lying worker)
        and would poison the store.  ``(error, detail)``, or None."""
        embedded = entry.get("config")
        if not isinstance(embedded, dict):
            return "entry_config_missing", "the entry embeds no config"
        try:
            minted = RunConfig.from_dict(embedded).cache_key()
        except (ValueError, TypeError) as exc:
            return ("entry_config_mismatch",
                    f"embedded config does not rebuild: {exc}")
        if minted != key:
            return ("entry_config_mismatch",
                    f"embedded config mints {minted}, not the claimed {key}")
        return None

    def _lease_rpc(self, op: str, doc: Dict) -> Tuple[int, Dict]:
        """One remote lease operation -> (status, response document).

        ``claim`` is :meth:`_claim`; the others apply the
        :class:`~repro.harness.lease.PointTable` transition
        (generation-fenced failures, 409 on a fenced renew or fail,
        first-done-wins completion) and refresh the campaign record.  A
        repeat finds its effect already in the shard and gets the same
        answer, so a duplicated delivery is indistinguishable from a
        single one.
        """
        if op == "claim":
            return 200, self._claim(str(doc.get("worker") or "?"))
        cid = doc.get("campaign")
        record = self.state.get(cid) if cid else None
        table = self._tables.get(cid) if cid else None
        if record is None or table is None:
            return 404, {"error": "no such campaign", "campaign": cid}
        worker = str(doc.get("worker") or "?")
        key = doc.get("key")
        if not key:
            return 400, {"error": "missing key"}
        if op == "renew":   # a point's lease or an audit run's alike
            try:
                table.renew(key, worker, self.config.lease_seconds,
                            hb=doc.get("hb"))
                response = 200, {"ok": True}
            except LeaseLost as exc:
                response = 409, {"error": "lease_lost", "key": key,
                                 "holder": exc.holder}
        elif op == "release":
            response = 200, {"released": table.release(key, worker),
                             "key": key}
        else:
            response = self._publish(op, record, table, worker, key, doc)
        self._refresh(cid)
        return response

    def _publish(self, op: str, record: CampaignRecord, table: PointTable,
                 worker: str, key: str, doc: Dict) -> Tuple[int, Dict]:
        """``complete``/``fail``: audit verdicts first, then the point.
        A publish the table answers without a transition counts in
        ``repro_service_http_duplicates_total``."""
        cid = record.id
        if op == "fail":
            error = str(doc.get("error") or "unknown error")
            outcome = table.fail(key, worker, error, doc.get("generation"))
            self._count_duplicate(outcome)
            if outcome == STALE:
                return 409, {"error": "lease_lost", "key": key,
                             "holder": (table.read_point(key)
                                        or {}).get("worker")}
            audit = (self.integrity.audit_requeued(table, key)
                     if outcome == APPLIED else None)
            if audit is not None:
                self._log(f"audit run of {cid}/{key} failed on {worker} "
                          f"({error}); {audit}")
                return 200, {"ok": True, "key": key, "audit": audit}
            return 200, {"ok": True, "key": key}
        entry = doc.get("entry")
        if not isinstance(entry, dict):
            return 400, {"error": "missing entry"}
        problem = self._entry_config_problem(key, entry)
        if problem is not None:
            self.integrity.note_complete_reject()
            self._log(f"rejected completion of {cid}/{key} from "
                      f"{worker}: {problem[1]}")
            return 422, {"error": problem[0], "detail": problem[1],
                         "key": key}
        config = self._configs(record).get(key)
        verdict = self.integrity.on_audit_complete(
            cid, table, key, worker, entry, cache=self.cache, config=config)
        if verdict is not None:
            self._count_duplicate(REPEAT if verdict.pop("repeat", False)
                                  else APPLIED)
            return 200, {"accepted": True, "key": key, **verdict}
        with self._lock:
            outcome = table.complete(key, worker, entry,
                                     source=doc.get("source", "worker"))
            if outcome == APPLIED and self.config.audit_rate > 0.0:
                self.integrity.consider(cid, table, key,
                                        table.read_point(key))
        self._count_duplicate(outcome)
        if (outcome == APPLIED and self.cache is not None
                and config is not None):
            self.cache.put(config, entry)
        return 200, {"accepted": outcome != STALE, "key": key}

    def _count_duplicate(self, outcome: str) -> None:
        if outcome != APPLIED:
            with self._http_lock:
                self.http_duplicates += 1

    def _metrics_text(self) -> str:
        snap = self.state.snapshot()
        lines = [prom_line("repro_service_up", 1),
                 prom_line("repro_service_queued_points",
                           snap["queued_points"]),
                 prom_line("repro_service_queue_bound",
                           snap["max_queued_points"]),
                 prom_line("repro_service_lease_expirations_total",
                           self.lease_expirations),
                 prom_line("repro_service_retries_total", self.retries),
                 prom_line("repro_service_worker_respawns_total",
                           self.worker_respawns),
                 prom_line("repro_service_workers", self.live_workers()),
                 prom_line("repro_service_draining",
                           1 if self._draining.is_set() else 0)]
        with self._http_lock:
            http_requests = dict(self.http_requests)
            http_retries = self.http_retries
            http_duplicates = self.http_duplicates
            worker_requests = dict(self._worker_requests)
        for endpoint, n in sorted(http_requests.items()):
            lines.append(prom_line("repro_service_http_requests_total", n,
                                   {"endpoint": endpoint}))
        lines.append(prom_line("repro_service_http_retries_total",
                               http_retries))
        lines.append(prom_line("repro_service_http_duplicates_total",
                               http_duplicates))
        for worker, n in sorted(worker_requests.items()):
            lines.append(prom_line("repro_service_worker_requests_total", n,
                                   {"worker": worker}))
        audits = self.integrity.counters()
        lines.append(prom_line("repro_service_audit_scheduled_total",
                               audits["audits_scheduled"]))
        lines.append(prom_line("repro_service_audit_passed_total",
                               audits["audits_passed"]))
        lines.append(prom_line("repro_service_audit_mismatches_total",
                               audits["audit_mismatches"]))
        lines.append(prom_line("repro_service_audit_repaired_total",
                               audits["audits_repaired"]))
        lines.append(prom_line("repro_service_audit_rejected_total",
                               audits["audits_rejected"]))
        lines.append(prom_line("repro_service_audit_unresolved_total",
                               audits["audits_unresolved"]))
        lines.append(prom_line("repro_service_complete_rejects_total",
                               audits["complete_rejects"]))
        lines.append(prom_line("repro_service_points_poisoned_total",
                               self.points_poisoned))
        quarantined = self.integrity.quarantined()
        lines.append(prom_line("repro_service_workers_quarantined",
                               len(quarantined)))
        for worker in sorted(quarantined):
            lines.append(prom_line("repro_service_worker_quarantined", 1,
                                   {"worker": worker}))
        for status, n in sorted(snap["by_status"].items()):
            lines.append(prom_line("repro_service_campaigns", n,
                                   {"status": status}))
        for c in snap["campaigns"]:
            labels = {"campaign": c["id"]}
            for status in ("pending", "running", "done", "failed",
                           "poisoned"):
                lines.append(prom_line(
                    "repro_service_campaign_points",
                    c["counts"].get(status, 0),
                    {**labels, "status": status}))
            lines.append(prom_line("repro_service_campaign_leased",
                                   c["leased"], labels))
            lines.append(prom_line("repro_service_campaign_lease_expired",
                                   c["lease_expired"], labels))
            lines.append(prom_line("repro_service_campaign_audits_pending",
                                   c.get("audits_pending", 0), labels))
        return render_prometheus(lines)

    # ------------------------------------------------------------ handler
    def _handler_class(self):
        service = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):
                pass

            def _send(self, code: int, content_type: str, body: bytes,
                      headers: Optional[Dict[str, str]] = None) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.send_header("Cache-Control", "no-store")
                for k, v in (headers or {}).items():
                    self.send_header(k, v)
                self.end_headers()
                self.wfile.write(body)

            def _send_json(self, doc, code: int = 200,
                           headers: Optional[Dict[str, str]] = None) -> None:
                if doc is None:
                    self._send(404, "application/json",
                               b'{"error": "no such campaign"}\n')
                    return
                body = json.dumps(doc, indent=1, sort_keys=True)
                self._send(code, "application/json", body.encode() + b"\n",
                           headers=headers)

            def _route(self):
                path = urllib.parse.urlparse(self.path).path
                return [p for p in path.split("/") if p]

            def do_GET(self):
                parts = self._route()
                try:
                    if not parts:
                        self._send(200, "text/plain; charset=utf-8",
                                   _INDEX.encode())
                    elif parts == ["healthz"]:
                        self._send_json({"ok": True})
                    elif parts == ["metrics"]:
                        self._send(200, CONTENT_TYPE,
                                   service._metrics_text().encode())
                    elif parts == ["campaigns"]:
                        self._send_json(service.state.snapshot())
                    elif len(parts) == 2 and parts[0] == "campaigns":
                        self._send_json(service._campaign_doc(parts[1]))
                    elif (len(parts) == 3 and parts[0] == "campaigns"
                          and parts[2] == "results"):
                        self._send_json(service._results_doc(parts[1]))
                    elif (len(parts) == 3 and parts[0] == "campaigns"
                          and parts[2] == "stream"):
                        self._stream(parts[1])
                    else:
                        self._send(404, "text/plain; charset=utf-8",
                                   b"not found\n")
                except (BrokenPipeError, ConnectionResetError):
                    pass

            _LEASE_OPS = ("claim", "renew", "complete", "fail", "release")

            def _read_json(self) -> Optional[Dict]:
                """The request body as a JSON object, or None once a 400
                is answered: a ``Content-Length`` that is not a
                non-negative integer, a body that is not JSON, or JSON
                that is not an object."""
                try:
                    length = int(self.headers.get("Content-Length") or 0)
                except ValueError:
                    length = -1
                if length < 0:
                    self._send_json({"error": "bad Content-Length"},
                                    code=400)
                    return None
                try:
                    doc = json.loads(self.rfile.read(length) or b"{}")
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    self._send_json({"error": f"invalid JSON: {exc}"},
                                    code=400)
                    return None
                if not isinstance(doc, dict):
                    self._send_json({"error": "body must be a JSON object"},
                                    code=400)
                    return None
                return doc

            def do_POST(self):
                parts = self._route()
                if len(parts) == 1 and parts[0] in self._LEASE_OPS:
                    self._lease_op(parts[0])
                    return
                if parts != ["campaigns"]:
                    self._send(404, "text/plain; charset=utf-8",
                               b"not found\n")
                    return
                try:
                    doc = self._read_json()
                    if doc is None:
                        return
                    record = service._submit(doc)
                except ValidationError as exc:
                    self._send_json({"error": str(exc)}, code=400)
                except BackPressure as exc:
                    self._send_json(
                        {"error": str(exc), "queued_points": exc.depth,
                         "retry_after": exc.retry_after},
                        code=429,
                        headers={"Retry-After":
                                 str(int(max(1, exc.retry_after)))})
                except (BrokenPipeError, ConnectionResetError):
                    pass
                else:
                    self._send_json(record.to_dict(), code=201)

            def _lease_op(self, op: str) -> None:
                """One remote lease endpoint: parse JSON, dispatch, reply."""
                service._count_http(op, self.headers)
                try:
                    doc = self._read_json()
                    if doc is None:
                        return
                    status, response = service._lease_rpc(op, doc)
                    self._send_json(response, code=status)
                except (BrokenPipeError, ConnectionResetError):
                    pass

            def do_DELETE(self):
                parts = self._route()
                try:
                    if len(parts) == 2 and parts[0] == "campaigns":
                        record = service._cancel(parts[1])
                        self._send_json(
                            record.to_dict() if record else None)
                    else:
                        self._send(404, "text/plain; charset=utf-8",
                                   b"not found\n")
                except (BrokenPipeError, ConnectionResetError):
                    pass

            def _stream(self, cid: str) -> None:
                if service.state.get(cid) is None:
                    self._send_json(None)
                    return
                self.send_response(200)
                self.send_header("Content-Type", "text/event-stream")
                self.send_header("Cache-Control", "no-store")
                self.end_headers()
                while True:
                    record = service.state.get(cid)
                    if record is None:
                        return
                    doc = record.to_dict()
                    frame = ("data: " + json.dumps(doc, sort_keys=True)
                             + "\n\n")
                    self.wfile.write(frame.encode())
                    self.wfile.flush()
                    if doc["status"] in ("done", "failed", "cancelled"):
                        return
                    time.sleep(service.config.stream_interval)

        return Handler
