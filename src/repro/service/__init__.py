"""Campaign service: simulation-as-a-service on top of the journal.

The harness packages built every single-host primitive — the sharded
atomic :class:`~repro.harness.runcache.RunCache`, the write-ahead
:class:`~repro.harness.campaign.CampaignJournal` with bit-identical
resume, and the live telemetry endpoint.  This package lifts them into a
standing service with one lease authority, the daemon:

* :mod:`repro.service.lease` — the point state machine as pure
  transitions on a shard dict (generation-fenced claims, renewals and
  failures, first-done-wins completion, retry cap, poison breaker) and
  the :class:`~repro.service.lease.PointTable` that holds one campaign in
  memory, writes every transition through to its journal, and answers
  every repeated request from the shard.
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
* :mod:`repro.service.httpclient` — the resilient worker-side HTTP
  client: timeouts, deterministic-jitter retries, status-aware error
  handling, a circuit breaker.
* :mod:`repro.service.chaosproxy` — a seeded network-fault proxy
  (latency, drops, 500s, truncation, duplicate delivery, response-body
  corruption) the chaos tests put between workers and the daemon.
* :mod:`repro.service.integrity` — the result-integrity subsystem:
  seeded sampled audit re-execution on a *different* worker, fingerprint
  voting with a daemon-side tie-break on mismatch, per-worker reputation
  scores that quarantine misbehaving workers, and the poison-point
  breaker that stops a crash-looping config from burning the fleet.
"""

from repro.service.lease import DEFAULT_LEASE_SECONDS, LeaseLost, PointTable
from repro.service.queue import (BackPressure, CampaignRecord, ServiceState,
                                 TenantPolicy, ValidationError,
                                 configs_from_spec)
from repro.service.httpclient import (CircuitOpen, ClientStats,
                                      HttpStatusError, NotFound,
                                      ServiceClient, TransportError)
from repro.service.chaosproxy import ChaosProxy, FaultPlan
from repro.service.integrity import (IntegrityConfig, IntegrityMonitor,
                                     IntegrityViolation, WorkerReputation,
                                     should_audit)
from repro.service.worker import RemoteJournal, WorkerOptions, work_service
from repro.service.daemon import CampaignService, ServiceConfig

__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "LeaseLost",
    "PointTable",
    "ValidationError",
    "BackPressure",
    "TenantPolicy",
    "CampaignRecord",
    "ServiceState",
    "configs_from_spec",
    "ServiceClient",
    "ClientStats",
    "HttpStatusError",
    "NotFound",
    "TransportError",
    "CircuitOpen",
    "RemoteJournal",
    "ChaosProxy",
    "FaultPlan",
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
