"""Journaled, resumable sweep campaigns.

A campaign is a set of :class:`RunConfig` points (a sweep cross product)
with a write-ahead journal: one atomic JSON shard per point under the
campaign directory, keyed by ``RunConfig.cache_key()``, moving through
the point state machine of :mod:`repro.harness.lease`::

    pending -> running -> done
                      \\-> failed -> pending (retry) | poisoned

The journal is written *ahead* of the work, so it is crash-consistent
at every instant: after a SIGKILL, ``done`` points hold their full
result entry, ``running`` points are exactly the in-flight casualties to
requeue, and nothing is ever half-written (atomic shard writes;
unreadable shards are quarantined to ``*.corrupt`` and only that point
recomputes).

:func:`activate` is the one way a point set becomes a live
:class:`~repro.harness.lease.PointTable`, for the local sweep and the
campaign daemon alike; :func:`run_campaign` drives the table with local
worker processes.  Because every simulation is deterministic, a resumed
sweep's results are bit-identical to an uninterrupted one's, as
:func:`entry_fingerprint` (an entry minus wall-clock) compares them.
"""

import json
import pathlib
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.harness.lease import PointTable
from repro.harness.parallel import Progress, SweepInterrupted, run_points
from repro.harness.simulator import RunConfig
from repro.utils.shards import atomic_write_json, quarantine_shard

__all__ = ["CampaignJournal", "activate", "entry_fingerprint",
           "run_campaign"]

_SCHEMA = 1
_MANIFEST = "campaign.json"

# Fields of a cached result entry that legitimately differ between two
# runs of the same deterministic point.
_VOLATILE_ENTRY_FIELDS = ("wall_seconds",)


def entry_fingerprint(entry: Dict) -> str:
    """Canonical serialization of a result entry for bit-identity checks.

    Drops host-dependent wall-clock; everything else — cycles, IPC, MPKI,
    engine counters, metrics, epoch timeseries — must match exactly
    between an uninterrupted sweep and a killed-and-resumed one.
    """
    doc = {k: v for k, v in entry.items() if k not in _VOLATILE_ENTRY_FIELDS}
    return json.dumps(doc, sort_keys=True, default=str)


class CampaignJournal:
    """Write-ahead journal for one campaign directory.

    Layout::

        <root>/campaign.json      manifest: schema, spec, point list,
                                  interruption history
        <root>/<cache_key>.json   one status shard per point
    """

    def __init__(self, root, events=None):
        self.root = pathlib.Path(root)
        self.events = events        # optional EventTrace for quarantines
        self.quarantined = 0

    # ------------------------------------------------------------ paths
    @property
    def manifest_path(self) -> pathlib.Path:
        return self.root / _MANIFEST

    def point_path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    # --------------------------------------------------------- manifest
    def load_manifest(self) -> Optional[Dict]:
        try:
            doc = json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            if quarantine_shard(self.manifest_path, self.events,
                                "campaign-manifest") is not None:
                self.quarantined += 1
            return None
        if doc.get("schema") != _SCHEMA:
            return None
        return doc

    def write_manifest(self, doc: Dict) -> None:
        atomic_write_json(self.manifest_path, doc, indent=1, sort_keys=True)

    # ----------------------------------------------------------- shards
    def read_point(self, key: str) -> Optional[Dict]:
        """The point's shard, or None (missing / quarantined = recompute).

        A shard that exists but cannot be parsed — the signature of a
        writer killed mid-write before the atomic rename, or of disk
        damage — is quarantined to ``*.corrupt`` and the point requeues;
        every other point's state is untouched.
        """
        path = self.point_path(key)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            if quarantine_shard(path, self.events, "campaign") is not None:
                self.quarantined += 1
            return None
        if not isinstance(doc, dict) or doc.get("key") != key:
            if quarantine_shard(path, self.events, "campaign") is not None:
                self.quarantined += 1
            return None
        return doc

    def mark(self, key: str, status: str, **fields) -> Dict:
        """Transition a point's shard to ``status``, merging ``fields``.

        The previous shard's ``attempts`` count survives unless
        overridden; each write is one atomic rename.
        """
        doc = self.read_point(key) or {"key": key, "attempts": 0}
        doc["status"] = status
        doc.update(fields)
        atomic_write_json(self.point_path(key), doc, indent=1, sort_keys=True)
        return doc

    def write_point(self, key: str, doc: Dict) -> Dict:
        """Replace a point's shard wholesale (one atomic rename).

        Unlike :meth:`mark` nothing from the on-disk shard is merged
        back in — the lease layer (:mod:`repro.harness.lease`) uses this
        to *drop* stale lease fields when a point changes hands, which a
        merge could silently resurrect.
        """
        doc = dict(doc)
        doc["key"] = key
        atomic_write_json(self.point_path(key), doc, indent=1, sort_keys=True)
        return doc

    def note_attempt(self, key: str) -> None:
        # Nothing in src/ calls this (the point table claims points); it
        # stays while perfbench's ``wrap_harness`` wraps it by name.
        doc = self.read_point(key) or {}
        self.mark(key, "running", attempts=doc.get("attempts", 0) + 1)

    # ------------------------------------------------------ preparation
    def prepare(self, configs: Sequence[RunConfig],
                spec: Optional[Dict] = None
                ) -> Tuple[Dict, Dict[str, Dict]]:
        """Write-ahead setup: the manifest plus a ``pending`` shard for
        every point that has none; returns ``(manifest, key -> shard)``
        for every point the manifest names, each shard read once.

        Idempotent: points named again are not appended twice, and
        existing shards are returned as they are — requeueing what a
        previous run left ``running`` or ``failed`` is
        :meth:`PointTable.resume`'s job.
        """
        manifest = self.load_manifest()
        points = [{"key": c.cache_key(), "workload": c.workload,
                   "engine": c.engine} for c in configs]
        if manifest is None:
            manifest = {"schema": _SCHEMA, "spec": spec or {},
                        "points": points, "interruptions": []}
            self.write_manifest(manifest)
        else:
            known = {p["key"] for p in manifest.get("points", ())}
            missing = [p for p in points if p["key"] not in known]
            if missing:
                manifest["points"] = list(manifest.get("points", ())) + missing
                self.write_manifest(manifest)
        shards: Dict[str, Dict] = {}
        for point in manifest.get("points", ()):
            key = point["key"]
            shards[key] = self.read_point(key) or self.write_point(
                key, {"attempts": 0, "status": "pending"})
        return manifest, shards


def activate(journal: Optional[CampaignJournal],
             configs: Sequence[RunConfig], spec: Optional[Dict] = None,
             cache=None, lock=None) -> Tuple[PointTable, int]:
    """Turn a point set into a live :class:`PointTable`; the one
    activation the local sweep and the campaign daemon share.

    Journals the manifest and ``pending`` shards (:meth:`CampaignJournal.
    prepare`), loads the shards it read into the table, requeues what a
    previous run left ``running`` or ``failed`` (:meth:`PointTable.
    resume`), and marks every run-cache hit ``done`` (``source:
    "cache"``).  Without a journal the table lives in memory only.
    Returns ``(table, cache hits)``.
    """
    if journal is None:
        manifest = {"points": [{"key": c.cache_key(), "workload": c.workload,
                                "engine": c.engine} for c in configs]}
        table = PointTable(None, manifest, {}, lock)
    else:
        manifest, shards = journal.prepare(configs, spec=spec)
        table = PointTable(journal, manifest, shards, lock)
        table.resume()
    deduped = 0
    if cache is not None:
        for config in configs:
            key = config.cache_key()
            if table.read_point(key)["status"] == "done":
                continue
            hit = cache.get(config)
            if hit is not None:
                table.mark(key, "done", entry=hit, source="cache")
                deduped += 1
    return table, deduped


def run_campaign(configs: Sequence[RunConfig],
                 journal: Optional[CampaignJournal] = None,
                 cache=None,
                 jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 progress: Optional[Callable[[Progress], None]] = None,
                 events=None,
                 spec: Optional[Dict] = None,
                 heartbeat_interval: float = 1.0) -> Dict[str, Dict]:
    """Run a point set through a point table; returns key -> entry.

    The one sweep path for fresh runs, cache-warm reruns and resumes:
    :func:`activate` skips journal ``done`` points and run-cache hits
    (their stored entries are returned as-is — that is what makes a
    resumed sweep bit-identical to an uninterrupted one), then
    :func:`~repro.harness.parallel.run_points` simulates the rest, every
    result written through to the journal shard and the cache the
    moment it lands.  Worker heartbeats fold into the running point's
    shard, where ``repro watch DIR`` reads them.

    A point whose ``retries + 1`` attempts all fail raises
    :class:`~repro.harness.parallel.SimulationFailed`.  On
    SIGINT/SIGTERM the :class:`SweepInterrupted` is re-raised with
    campaign-level counts after an obs ``campaign_interrupted`` event
    and a manifest interruption record.  ``journal``/``cache`` are both
    optional: with neither, the table lives in memory.
    """
    configs = list(configs)
    table, _ = activate(journal, configs, spec=spec, cache=cache)
    points = {}
    for index, config in enumerate(configs):
        points.setdefault(config.cache_key(), (index, config))
    stray = [k for k in table.keys if k not in points
             and table.read_point(k)["status"] != "done"]
    if stray:
        raise ValueError(f"journal {journal.root} names {len(stray)} "
                         f"unfinished point(s) this run does not: "
                         f"{', '.join(stray[:3])}")
    try:
        run_points(table, points, jobs=jobs, timeout=timeout,
                   retries=retries, progress=progress, cache=cache,
                   heartbeat_interval=heartbeat_interval)
    except SweepInterrupted:
        done = sum(1 for k in table.results() if k in points)
        if events is not None:
            events.campaign_interrupted(done, len(points))
        table.note_interrupted(done, len(points))
        raise SweepInterrupted(done, len(points)) from None
    return {k: e for k, e in table.results().items() if k in points}
