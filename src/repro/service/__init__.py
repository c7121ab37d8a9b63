"""Campaign service: simulation-as-a-service on top of the journal.

The harness packages built every single-host primitive — the sharded
atomic :class:`~repro.harness.runcache.RunCache`, the write-ahead
:class:`~repro.harness.campaign.CampaignJournal` with bit-identical
resume, and the live heartbeat view.  This package lifts them into a
standing service with one lease authority, the daemon, which holds each
campaign in a :class:`~repro.harness.lease.PointTable` — the same point
state machine the local ``sweep`` drives:

* :mod:`repro.service.queue` — campaign records, ``(-priority, seq)``
  scheduling order, and back-pressure accounting (specs are expanded
  and validated by :mod:`repro.harness.spec`).
* :mod:`repro.service.worker` — the pull-model worker loop: ask the
  daemon for a point, simulate it (renewing the lease from the heartbeat
  hook), publish the result, repeat — all over HTTP, never touching the
  campaign filesystem.
* :mod:`repro.service.daemon` — the daemon: an HTTP/JSON API
  (``POST /campaigns``, status/results/stream routes, the five ``POST``
  lease endpoints), the in-memory point tables, one control thread that
  activates, reaps and supervises the in-daemon worker pool, and
  Prometheus service gauges.
* :mod:`repro.service.httpclient` — the worker-side HTTP client: one
  retry policy per request (timeout, deterministic-jitter backoff,
  status-aware error handling).
* :mod:`repro.service.integrity` — the result-integrity subsystem:
  seeded sampled audit re-execution on a *different* worker, fingerprint
  voting with a daemon-side tie-break on mismatch, per-worker reputation
  scores that quarantine misbehaving workers, and the poison-point
  breaker that stops a crash-looping config from burning the fleet.
"""

from repro.service.queue import BackPressure, CampaignRecord, ServiceState
from repro.service.httpclient import (HttpStatusError, ServiceClient,
                                      TransportError)
from repro.service.integrity import IntegrityMonitor
from repro.service.worker import RemoteJournal, WorkerOptions, work_service
from repro.service.daemon import CampaignService, ServiceConfig

__all__ = [
    "BackPressure",
    "CampaignRecord",
    "ServiceState",
    "ServiceClient",
    "HttpStatusError",
    "TransportError",
    "RemoteJournal",
    "IntegrityMonitor",
    "WorkerOptions",
    "work_service",
    "CampaignService",
    "ServiceConfig",
]
