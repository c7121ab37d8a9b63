"""Live campaign telemetry: heartbeats, ``live.json``, and the watch view.

A long campaign is opaque from the outside: the journal says which points
are pending/running/done, but nothing about whether a "running" worker is
actually making progress or wedged in a pathological config.  This module
adds the out-of-band layer:

* :class:`HeartbeatTicker` — builds successive heartbeat payloads from a
  live core (retired, cycles, cycles/sec, phase, guard level).  It only
  *reads* core state, so heartbeat-enabled runs stay bit-identical to
  silent ones; nothing here ever enters ``RunConfig.cache_key()``.
* :class:`LiveStatus` — the campaign-side aggregator.  Workers' heartbeats
  and status transitions fold into one document that is atomically
  published to ``live.json`` beside the campaign journal (throttled, so a
  chatty sweep does not grind on fsyncs).
* :func:`live_view` — derives the operator-facing quantities at *read*
  time: heartbeat ages, stalled-worker flags, overall ETA.  Storing raw
  ``last`` timestamps and deriving ages on read is what lets a watcher
  notice a SIGKILLed worker within a heartbeat interval — the dead worker
  obviously cannot write its own obituary.
* :func:`render_watch` — the refreshing ASCII dashboard behind
  ``repro watch DIR``.
* :func:`read_campaign` — a read-only journal loader for watchers and the
  HTTP endpoint.  Unlike :class:`~repro.harness.campaign.CampaignJournal`
  it never quarantines an unreadable shard: observers must not mutate the
  store they observe.

Everything here is stdlib-only and deliberately independent of the
harness package (watchers duck-type the journal) so ``repro.obs`` keeps
its import graph acyclic.
"""

import json
import pathlib
import time
from typing import Dict, List, Optional

from repro.utils.shards import atomic_write_json

__all__ = ["HeartbeatTicker", "LiveStatus", "live_view", "read_live",
           "read_campaign", "campaign_view", "render_watch", "LIVE_NAME"]

_SCHEMA = 1
LIVE_NAME = "live.json"

# A point whose last heartbeat (or start) is older than this many
# heartbeat intervals is flagged as stalled.  2x tolerates scheduling
# jitter on a loaded machine while still surfacing a killed worker within
# one interval of its first missed beat.
STALL_INTERVALS = 2.0


class HeartbeatTicker:
    """Builds one run's heartbeat payloads from its live core.

    Instantiated by ``simulate`` per run and invoked from ``Core.run``'s
    ``on_heartbeat`` hook; tracks the previous sample so it can derive
    simulation speed (cycles/sec) between beats.  Strictly read-only with
    respect to the core.
    """

    def __init__(self, total_instructions: Optional[int] = None):
        self.total = total_instructions
        self.phase = "run"
        self._last_mono: Optional[float] = None
        self._last_cycles = 0
        self._last_retired = 0

    def payload(self, core) -> Dict:
        mono = time.monotonic()
        cycles = core.cycle
        retired = core.main.retired
        cps = rps = None
        if self._last_mono is not None and mono > self._last_mono:
            dt = mono - self._last_mono
            cps = round((cycles - self._last_cycles) / dt, 1)
            rps = round((retired - self._last_retired) / dt, 1)
        self._last_mono = mono
        self._last_cycles = cycles
        self._last_retired = retired
        return {
            "unix": round(time.time(), 3),
            "phase": self.phase,
            "cycles": cycles,
            "retired": retired,
            "instructions": self.total,
            "cycles_per_sec": cps,
            "retired_per_sec": rps,
            "guard": core.config.guard_level,
            "halted": core.halted,
        }


class LiveStatus:
    """Aggregates per-point status + heartbeats into ``live.json``.

    Owned by ``run_campaign`` (one instance per campaign); every worker
    event — spawn, heartbeat, completion, failure — funnels through
    :meth:`mark` / :meth:`beat`, and :meth:`write` publishes the document
    atomically, throttled to at most one write per ``write_interval``
    seconds (status *transitions* force a write so the file never lags a
    state change by more than the in-flight heartbeats).
    """

    def __init__(self, path, interval: float = 1.0,
                 write_interval: Optional[float] = None):
        self.path = pathlib.Path(path)
        self.interval = float(interval)
        # Heartbeats from N workers arrive at ~N/interval Hz; publishing
        # at the heartbeat cadence (not per event) keeps disk traffic flat
        # in the worker count.
        self.write_interval = (self.interval / 2.0 if write_interval is None
                               else float(write_interval))
        self.points: Dict[str, Dict] = {}
        self._last_write = 0.0

    # ---------------------------------------------------------- building
    def point(self, key: str, workload: str, engine: str,
              status: str = "pending") -> None:
        """Register one campaign point (idempotent)."""
        self.points.setdefault(key, {
            "workload": workload, "engine": engine, "status": status,
            "attempts": 0, "started_unix": None, "finished_unix": None,
            "wall_seconds": None, "error": None, "hb": None,
        })

    def mark(self, key: str, status: str, error: Optional[str] = None,
             wall_seconds: Optional[float] = None) -> None:
        """Status transition; forces the next :meth:`write` through."""
        doc = self.points.get(key)
        if doc is None:
            self.point(key, "?", "?")
            doc = self.points[key]
        doc["status"] = status
        now = round(time.time(), 3)
        if status == "running":
            doc["attempts"] += 1
            doc["started_unix"] = now
            doc["error"] = None
        elif status in ("done", "failed"):
            doc["finished_unix"] = now
            doc["error"] = error
            if wall_seconds is not None:
                doc["wall_seconds"] = round(wall_seconds, 3)
        self._last_write = 0.0  # transitions are never throttled away

    def beat(self, key: str, payload: Dict) -> None:
        """Fold one worker heartbeat into its point."""
        doc = self.points.get(key)
        if doc is None:
            return
        doc["hb"] = payload

    # --------------------------------------------------------- publishing
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for doc in self.points.values():
            out[doc["status"]] = out.get(doc["status"], 0) + 1
        return out

    def snapshot(self) -> Dict:
        return {
            "schema": _SCHEMA,
            "updated_unix": round(time.time(), 3),
            "heartbeat_interval": self.interval,
            "total": len(self.points),
            "counts": self.counts(),
            "points": self.points,
        }

    def write(self, force: bool = False) -> bool:
        """Publish ``live.json`` atomically; returns True if written."""
        now = time.monotonic()
        if not force and now - self._last_write < self.write_interval:
            return False
        self._last_write = now
        atomic_write_json(self.path, self.snapshot(), indent=1,
                          sort_keys=True)
        return True


# ----------------------------------------------------------------------
# Read side: watchers, the HTTP endpoint, anything outside the sweep.
# ----------------------------------------------------------------------
def read_live(campaign_dir) -> Optional[Dict]:
    """The campaign's ``live.json``, or None (absent/torn — writes are
    atomic, so "torn" means a foreign file; either way: no live data)."""
    path = pathlib.Path(campaign_dir)
    if path.is_dir():
        path = path / LIVE_NAME
    try:
        doc = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError,
            OSError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != _SCHEMA:
        return None
    return doc


def read_campaign(campaign_dir) -> Optional[Dict]:
    """Read-only view of a campaign journal: manifest + per-point shards.

    Returns ``{"manifest": .., "points": {key: view}, "counts": ..}`` or
    None when no manifest exists.  Never writes, never quarantines — a
    watcher that repaired the store it was watching would race the sweep
    that owns it; unreadable shards simply count as ``pending``.
    """
    root = pathlib.Path(campaign_dir)
    try:
        manifest = json.loads((root / "campaign.json").read_text())
    except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError,
            OSError):
        return None
    shards: Dict[str, Dict] = {}
    for meta in manifest.get("points", ()):
        key = meta.get("key")
        if not key:
            continue
        try:
            shards[key] = json.loads((root / f"{key}.json").read_text())
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError,
                OSError):
            shards[key] = {}
    return {"manifest": manifest,
            **campaign_view(manifest.get("points", ()), shards)}


def campaign_view(metas, shards: Dict[str, Dict],
                  now: Optional[float] = None) -> Dict:
    """``points``/``counts``/``total``/``lease_expired`` from manifest
    point entries and their shards — the one derivation shared by
    :func:`read_campaign` and the campaign daemon's in-memory table."""
    now = time.time() if now is None else now
    points: Dict[str, Dict] = {}
    counts: Dict[str, int] = {}
    lease_expired = 0
    for meta in metas:
        key = meta.get("key")
        if not key:
            continue
        shard = shards.get(key) or {}
        status = shard.get("status", "pending")
        # Lease health is derived at read time from the shard's expiry —
        # a dead worker cannot write its own obituary, so "running with a
        # lapsed lease" is precisely how its corpse is distinguishable
        # from a healthy (merely quiet) worker.
        expires = shard.get("lease_expires_unix")
        expired = bool(status == "running"
                       and expires is not None and expires < now)
        if expired:
            lease_expired += 1
        points[key] = {
            "workload": meta.get("workload"),
            "engine": meta.get("engine"),
            "status": status,
            "attempts": shard.get("attempts", 0),
            "error": shard.get("error"),
            "wall_seconds": (shard.get("entry") or {}).get("wall_seconds"),
            "worker": shard.get("worker"),
            "requeued": shard.get("requeued"),
            "hb": shard.get("hb"),
            "lease_expires_unix": expires,
            "lease_expired": expired,
            "audit": shard.get("audit"),
            "failed_workers": shard.get("failed_workers"),
        }
        counts[status] = counts.get(status, 0) + 1
    return {"points": points, "counts": counts, "total": len(points),
            "lease_expired": lease_expired}


def live_view(doc: Dict, now: Optional[float] = None,
              stall_after: Optional[float] = None) -> Dict:
    """Derive the operator-facing view from a raw ``live.json`` document.

    Adds, per point: ``heartbeat_age`` (seconds since the last beat, or
    since start when no beat arrived yet), ``stalled`` (running and silent
    past ``stall_after``, default ``2 x heartbeat_interval``), and
    ``progress`` (retired / instruction budget).  Adds, campaign-wide:
    ``stalled`` count and ``eta_seconds`` — mean done-point wall time
    scaled by the remaining work and divided by the observed concurrency.
    All derivation happens at read time from stored timestamps, so a
    killed worker's silence is visible the moment its age crosses the
    threshold, not when something next writes the file.
    """
    now = time.time() if now is None else now
    interval = float(doc.get("heartbeat_interval") or 1.0)
    if stall_after is None:
        stall_after = STALL_INTERVALS * interval
    view = {k: v for k, v in doc.items() if k != "points"}
    points: Dict[str, Dict] = {}
    stalled = 0
    lease_expired = 0
    audits = 0
    poisoned = 0
    walls: List[float] = []
    remaining = 0.0
    n_running = 0
    for key, src in (doc.get("points") or {}).items():
        p = dict(src)
        hb = p.get("hb") or {}
        last = hb.get("unix") or p.get("started_unix")
        age = round(now - last, 3) if last is not None else None
        p["heartbeat_age"] = age
        # A lapsed lease (journal-derived docs carry the expiry) is a
        # *diagnosed* dead worker awaiting the reaper — report it as its
        # own state, distinct from the mere silence of "stalled".
        expires = p.get("lease_expires_unix")
        p["lease_expired"] = bool(p.get("status") == "running"
                                  and expires is not None and expires < now)
        if p["lease_expired"]:
            lease_expired += 1
        p["stalled"] = bool(p.get("status") == "running"
                            and not p["lease_expired"]
                            and age is not None and age > stall_after)
        total = hb.get("instructions")
        p["progress"] = (min(1.0, hb.get("retired", 0) / total)
                         if total else None)
        # Audit sub-docs live *outside* the entry (fingerprint-neutral);
        # surface the in-flight ones so a watcher can tell "done but
        # still under audit" from plain "done".
        audit = p.get("audit") or {}
        p["audit_active"] = bool(
            isinstance(audit, dict) and
            audit.get("status") in ("pending", "running", "arbitrating"))
        if p["audit_active"]:
            audits += 1
        if p["stalled"]:
            stalled += 1
        if p.get("status") == "done" and p.get("wall_seconds"):
            walls.append(float(p["wall_seconds"]))
        if p.get("status") == "pending":
            remaining += 1.0
        elif p.get("status") == "running":
            n_running += 1
            remaining += 1.0 - (p["progress"] or 0.0)
        elif p.get("status") == "poisoned":
            # Terminal: the breaker gave up on it, so it contributes
            # nothing to remaining work or the ETA.
            poisoned += 1
        points[key] = p
    view["points"] = points
    view["stalled"] = stalled
    view["lease_expired"] = lease_expired
    view["audits"] = audits
    view["poisoned"] = poisoned
    view["stall_after"] = stall_after
    if walls and remaining:
        lanes = max(1, n_running)
        view["eta_seconds"] = round(sum(walls) / len(walls)
                                    * remaining / lanes, 1)
    else:
        view["eta_seconds"] = None
    return view


# ----------------------------------------------------------------------
# ASCII dashboard (``repro watch``).
# ----------------------------------------------------------------------
_STATUS_ORDER = {"poisoned": 0, "failed": 0, "running": 1, "pending": 2,
                 "done": 3}


def _fmt_rate(value) -> str:
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.1f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.0f}"


def _fmt_eta(seconds) -> str:
    if seconds is None:
        return "-"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{seconds % 3600 // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def render_watch(view: Dict, limit: int = 0) -> str:
    """One frame of the watch dashboard, as plain text.

    ``view`` is a :func:`live_view` result (or a journal-derived document
    with the same shape minus heartbeats).  Rows sort failures and
    running points to the top; ``limit`` truncates long campaigns (0 =
    all rows).
    """
    counts = view.get("counts") or {}
    total = view.get("total", 0)
    done = (counts.get("done", 0) + counts.get("failed", 0)
            + counts.get("poisoned", 0))
    head = (f"campaign: {done}/{total} finished  "
            + "  ".join(f"{s}={counts[s]}" for s in
                        ("pending", "running", "done", "failed",
                         "poisoned")
                        if counts.get(s)))
    if view.get("stalled"):
        head += f"  STALLED={view['stalled']}"
    if view.get("lease_expired"):
        head += f"  LEASE-EXPIRED={view['lease_expired']}"
    if view.get("audits"):
        head += f"  AUDIT={view['audits']}"
    if view.get("poisoned"):
        head += f"  POISONED={view['poisoned']}"
    head += f"  eta={_fmt_eta(view.get('eta_seconds'))}"

    rows = []
    for key, p in view.get("points", {}).items():
        status = p.get("status", "pending")
        flag = (" LEASE-EXPIRED" if p.get("lease_expired")
                else " STALLED" if p.get("stalled")
                else " AUDIT" if p.get("audit_active") else "")
        progress = p.get("progress")
        hb = p.get("hb") or {}
        rows.append((
            _STATUS_ORDER.get(status, 9), key,
            [f"{p.get('workload')}/{p.get('engine')}",
             status + flag,
             f"{progress * 100:.0f}%" if progress is not None else "-",
             _fmt_rate(hb.get("cycles_per_sec")),
             (f"{p['heartbeat_age']:.1f}s"
              if p.get("heartbeat_age") is not None else "-"),
             str(p.get("attempts", 0)),
             p.get("error") or ""],
        ))
    rows.sort(key=lambda r: (r[0], r[1]))
    cells = [r[2] for r in rows]
    if limit and len(cells) > limit:
        dropped = len(cells) - limit
        cells = cells[:limit]
        cells.append([f"... {dropped} more", "", "", "", "", "", ""])

    headers = ["point", "status", "prog", "cyc/s", "hb age", "att", "error"]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [head, ""]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def journal_view(campaign_dir) -> Optional[Dict]:
    """A :func:`live_view`-shaped document straight from the journal —
    no ``live.json`` needed.  Lets ``repro watch`` tail finished or
    foreign campaigns, and is the primary view for service campaigns,
    whose leased workers fold heartbeats into their *point shards* (each
    point has exactly one owner) rather than a shared live.json."""
    camp = read_campaign(campaign_dir)
    if camp is None:
        return None
    return live_view({
        "schema": _SCHEMA,
        "source": "journal",
        "total": camp["total"],
        "counts": camp["counts"],
        "points": camp["points"],
    })
