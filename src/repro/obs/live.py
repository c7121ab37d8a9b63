"""Live campaign telemetry: heartbeats and the watch view.

A long campaign is opaque from the outside: the journal says which points
are pending/running/done, but nothing about whether a "running" worker is
actually making progress or wedged in a pathological config.  This module
adds the out-of-band layer:

* :class:`HeartbeatTicker` — builds successive heartbeat payloads from a
  live core (retired, cycles, cycles/sec, phase, guard level).  It only
  *reads* core state, so heartbeat-enabled runs stay bit-identical to
  silent ones; nothing here ever enters ``RunConfig.cache_key()``.  A
  worker's heartbeat renews its point's lease, and the point table folds
  the payload into the point's shard — local sweep and daemon alike — so
  the shards are the one status book.
* :func:`read_campaign` / :func:`campaign_view` — the per-point view of a
  journal, read-only from disk or from the daemon's in-memory table.
  Unlike :class:`~repro.harness.campaign.CampaignJournal` the reader
  never quarantines an unreadable shard: observers must not mutate the
  store they observe.
* :func:`live_view` — derives the operator-facing quantities at *read*
  time: heartbeat ages, stalled-worker flags, overall ETA.  Storing raw
  timestamps and deriving ages on read is what lets a watcher notice a
  SIGKILLed worker within a heartbeat interval — the dead worker
  obviously cannot write its own obituary.
* :func:`render_watch` — the refreshing ASCII dashboard behind
  ``repro watch``.

Everything here is stdlib-only and deliberately independent of the
harness package (watchers duck-type the journal) so ``repro.obs`` keeps
its import graph acyclic.
"""

import json
import pathlib
import time
from typing import Dict, List, Optional

__all__ = ["HeartbeatTicker", "live_view", "read_campaign", "campaign_view",
           "render_watch", "journal_view", "finished_count",
           "FINISHED_STATUSES"]

# Statuses no worker will move a point out of: what "finished" means to
# the watch header and to ``repro watch``'s exit alike.
FINISHED_STATUSES = ("done", "failed", "poisoned")

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


# ----------------------------------------------------------------------
# Read side: watchers, the daemon's views, anything outside the sweep.
# ----------------------------------------------------------------------
def read_campaign(campaign_dir) -> Optional[Dict]:
    """Read-only :func:`campaign_view` of a campaign journal directory.

    Returns ``{"points": {key: view}, "counts": .., ..}`` or None when no
    manifest exists.  Never writes, never quarantines — a
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
    return campaign_view(manifest.get("points", ()), shards)


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
            "lease_renewed_unix": shard.get("lease_renewed_unix"),
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
    """Derive the operator-facing view from a :func:`campaign_view`-shaped
    document (``points``, ``counts``, ``total``).

    Adds, per point: ``heartbeat_age`` (seconds since the last beat, or
    since the last lease renewal — the claim, at first — when no beat
    arrived yet), ``stalled`` (running, its lease not lapsed, and silent
    past ``stall_after``, default ``2 x heartbeat_interval``), and
    ``progress`` (retired / instruction budget).  Adds, campaign-wide:
    ``stalled`` count and ``eta_seconds`` — mean done-point wall time
    scaled by the remaining work and divided by the observed concurrency.
    All derivation happens at read time from stored timestamps, so a
    killed worker's silence is visible the moment its age crosses the
    threshold, not when something next writes a shard.
    """
    now = time.time() if now is None else now
    interval = float(doc.get("heartbeat_interval") or 1.0)
    if stall_after is None:
        stall_after = STALL_INTERVALS * interval
    view = {k: v for k, v in doc.items() if k != "points"}
    points: Dict[str, Dict] = {}
    stalled = 0
    audits = 0
    poisoned = 0
    walls: List[float] = []
    remaining = 0.0
    n_running = 0
    for key, src in (doc.get("points") or {}).items():
        p = dict(src)
        hb = p.get("hb") or {}
        last = hb.get("unix") or p.get("lease_renewed_unix")
        age = round(now - last, 3) if last is not None else None
        p["heartbeat_age"] = age
        # A lapsed lease (flagged by :func:`campaign_view`) is a
        # *diagnosed* dead worker awaiting the reaper — its own state,
        # distinct from the mere silence of "stalled".
        p["stalled"] = bool(p.get("status") == "running"
                            and not p.get("lease_expired")
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
    head = (f"campaign: {finished_count(view)}/{total} finished  "
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


def finished_count(view: Dict) -> int:
    """Points in a view no worker will move again
    (:data:`FINISHED_STATUSES`)."""
    counts = view.get("counts") or {}
    return sum(counts.get(s, 0) for s in FINISHED_STATUSES)


def journal_view(campaign_dir) -> Optional[Dict]:
    """A :func:`live_view` straight from a journal directory: what
    ``repro watch DIR`` shows, for a local sweep or a daemon campaign
    alike — both fold heartbeats into the *point shards* (each point has
    exactly one owner)."""
    camp = read_campaign(campaign_dir)
    return None if camp is None else live_view(camp)
