"""Campaign service: simulation-as-a-service on top of the journal.

The harness packages built every single-host primitive — the sharded
atomic :class:`~repro.harness.runcache.RunCache`, the write-ahead
:class:`~repro.harness.campaign.CampaignJournal` with bit-identical
resume, and the live heartbeat view.  This package lifts them into a
standing service with one lease authority, the daemon, which holds each
campaign in a :class:`~repro.harness.lease.PointTable` — the same point
state machine the local ``sweep`` drives:

* :mod:`repro.service.queue` — submission specs, tenants, quotas,
  priorities, weighted fair scheduling, and back-pressure accounting.
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

from repro.service.queue import (BackPressure, CampaignRecord, ServiceState,
                                 TenantPolicy, ValidationError,
                                 configs_from_spec)
from repro.service.httpclient import (HttpStatusError, ServiceClient,
                                      TransportError)
from repro.service.integrity import (IntegrityConfig, IntegrityMonitor,
                                     IntegrityViolation, WorkerReputation,
                                     should_audit)
from repro.service.worker import RemoteJournal, WorkerOptions, work_service
from repro.service.daemon import CampaignService, ServiceConfig

__all__ = [
    "ValidationError",
    "BackPressure",
    "TenantPolicy",
    "CampaignRecord",
    "ServiceState",
    "configs_from_spec",
    "ServiceClient",
    "HttpStatusError",
    "TransportError",
    "RemoteJournal",
    "IntegrityConfig",
    "IntegrityMonitor",
    "IntegrityViolation",
    "WorkerReputation",
    "should_audit",
    "WorkerOptions",
    "work_service",
    "CampaignService",
    "ServiceConfig",
]
