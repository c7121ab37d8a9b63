"""Pull-model campaign worker: claim, simulate, publish, repeat.

One worker process runs one point at a time for a campaign daemon
(``repro worker --connect URL``): one ``POST /claim`` gets it a point or
an audit run — the daemon picks the campaign — which it simulates with
the lease renewed from the simulation heartbeat hook (so a healthy
worker's lease never lapses and watchers see live progress in the point
shard), publishes the result with ``/complete`` (or ``/fail``), and
claims the next.  :class:`RemoteJournal` is that protocol's client
side.  A worker **never touches the campaign root** —
it is never even told the path — so worker hosts need no shared
filesystem.  All HTTP goes through the retrying
:class:`~repro.service.httpclient.ServiceClient`: a daemon restart or a
flaky link costs the worker retries and idle polls, not an exit.
``WorkerOptions.max_idle_polls`` (0 = never) bounds how many
consecutive claims may yield no point, whether the daemon answered
empty or could not be reached.

A worker that loses its lease mid-simulation (the reaper requeued it, or
a resume fenced it out) gets :class:`~repro.harness.lease.LeaseLost`
from the renewal inside its heartbeat hook, abandons the point, and
moves on; the new owner's result is the one that lands.  On exit the
worker courteously releases exactly the points it still holds.

Fault injection (tests only): ``REPRO_SERVICE_INJECT`` is a JSON object
``{"worker": "w1", "die_after_claims": 2, "flag": "/path"}`` — the named
worker hard-exits (``os._exit``, no cleanup, exactly like SIGKILL) right
after its Nth successful claim, once per flag file, which is how the
service tests manufacture a deterministic mid-campaign worker death for
the reaper to heal.  Two further plan keys exercise the
result-integrity path: ``"corrupt_after_claims": N`` makes the worker
silently perturb one SimStats field of every entry from its Nth claim
on before publishing (the silent-data-corruption failure mode audits
exist to catch), and ``"fail_workload": "name"`` makes it report every
point of that workload as failed (a deterministic crash-looping point
for the poison breaker).  ``"worker": "*"`` matches any worker id, for
fleet-wide plans.
"""

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.harness.runcache import RunCache, entry_from_result
from repro.harness.simulator import RunConfig, simulate
from repro.service.httpclient import (HttpStatusError, ServiceClient,
                                      TransportError)
from repro.harness.lease import LeaseLost

__all__ = ["RemoteJournal", "WorkerOptions", "work_service"]

INJECT_ENV = "REPRO_SERVICE_INJECT"

# How long a finished point's /complete or /fail keeps being retried
# through transport failures before the worker leaves it to the reaper.
PUBLISH_DEADLINE = 120.0


@dataclass
class WorkerOptions:
    """Knobs for one worker process."""

    worker_id: str = ""
    heartbeat_interval: float = 1.0
    poll_interval: float = 0.5     # wait after a claim that got no point
    max_idle_polls: int = 0        # 0 = poll forever (daemon pool mode)
    max_points: int = 0            # 0 = unbounded
    cache_dir: Optional[str] = None
    log: bool = True

    def __post_init__(self):
        if not self.worker_id:
            self.worker_id = f"w{os.getpid()}"


@dataclass
class WorkerReport:
    """What one worker loop did, for logs and tests."""

    worker_id: str = ""
    claimed: int = 0
    completed: int = 0
    failed: int = 0
    lease_lost: int = 0
    cache_hits: int = 0
    idle_polls: int = 0
    released: int = 0
    campaigns: List[str] = field(default_factory=list)
    # Transport health.
    renew_misses: int = 0
    publish_retries: int = 0

    def to_dict(self) -> Dict:
        return dict(self.__dict__)


def _log(options: WorkerOptions, msg: str) -> None:
    if options.log:
        print(f"worker[{options.worker_id}]: {msg}", file=sys.stderr,
              flush=True)


class _Injection:
    """The ``REPRO_SERVICE_INJECT`` fault plan for this process, if any."""

    def __init__(self, worker_id: str):
        self.die_after_claims = 0
        self.corrupt_after_claims = 0
        self.fail_workload: Optional[str] = None
        self.flag: Optional[str] = None
        raw = os.environ.get(INJECT_ENV)
        if not raw:
            return
        try:
            plan = json.loads(raw)
        except json.JSONDecodeError:
            return
        if not isinstance(plan, dict):
            return
        target = plan.get("worker")
        if target != worker_id and target != "*":
            return
        self.die_after_claims = int(plan.get("die_after_claims", 0))
        self.corrupt_after_claims = int(plan.get("corrupt_after_claims", 0))
        self.fail_workload = plan.get("fail_workload")

        self.flag = plan.get("flag")

    def maybe_die(self, claims: int) -> None:
        if not self.die_after_claims or claims < self.die_after_claims:
            return
        if self.flag:
            # Once only: the flag file arbitrates which incarnation dies
            # (a respawned worker with the same id must survive).
            try:
                fd = os.open(self.flag,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
            except OSError:
                return
        # SIGKILL semantics: no journal cleanup, no lease release — the
        # point this worker holds must be healed by the reaper.
        os._exit(37)

    def maybe_corrupt(self, claims: int, entry: Dict) -> bool:
        """Perturb one SimStats field in-place; True if it corrupted.

        Silent-data-corruption semantics: the worker believes the run
        succeeded and publishes a well-formed entry whose payload is
        off by one — exactly what a bad host or bit-rot produces, and
        exactly what the daemon's sampled audits must catch.
        """
        if not self.corrupt_after_claims or \
                claims < self.corrupt_after_claims:
            return False
        entry["cycles"] = int(entry.get("cycles", 0)) + 1
        return True

    def should_fail(self, config: RunConfig) -> bool:
        return (self.fail_workload is not None and
                config.workload == self.fail_workload)


class RemoteJournal:
    """The worker side of the daemon's lease protocol.

    Error philosophy, per operation:

    * ``claim`` — transport errors propagate (the loop counts them as
      idle polls).
    * ``renew`` — only an authoritative ``409`` becomes
      :class:`LeaseLost`.  Transport errors are swallowed and counted
      (``renew_misses``): the daemon may requeue the point while we are
      dark, but first-done-wins makes finishing anyway safe, and
      abandoning real compute because of a blip would be strictly worse.
    * ``complete``/``fail`` — retried through transport failures until
      :data:`PUBLISH_DEADLINE` passes.  The daemon's point table answers
      a repeat from the shard (a done point this worker completed, a
      failure already recorded at the claimed generation, which ``fail``
      sends), so a dropped response cannot double-apply and a daemon
      restart mid-publish costs only patience.  Completion bodies carry
      the full run-cache entry, so the daemon publishes to the journal
      *and* the shared cache on its side of the wire.
    * ``release_held`` — hands back exactly the points still held.

    ``held`` maps each held key to the campaign and generation its claim
    named; every later request for the key goes to that campaign.
    """

    def __init__(self, client: ServiceClient, worker_id: str, log=None):
        self.client = client
        self.worker_id = worker_id
        self.held: Dict[str, Tuple[str, int]] = {}
        self.shutdown = False
        self.renew_misses = 0
        self.publish_retries = 0
        self._log = log or (lambda msg: print(msg, file=sys.stderr,
                                              flush=True))

    def _body(self, key: str, **fields) -> Dict:
        campaign = self.held.get(key, (None, 0))[0]
        return {"campaign": campaign, "worker": self.worker_id, "key": key,
                **fields}

    def claim(self) -> Optional[Tuple[str, RunConfig, Dict]]:
        """``(key, config, shard)`` for the point or audit run the daemon
        hands out, or None when it has nothing for us (``shutdown`` is
        then set if it asked us to exit).  A config that does not mint
        the claimed key is refused with ``/fail`` (its result would land
        under the wrong point); the retry cap bounds its comebacks."""
        doc = self.client.post("/claim", {"worker": self.worker_id})
        self.shutdown = bool(doc.get("shutdown"))
        key = doc.get("key")
        if not key:
            return None
        shard = doc.get("shard") or {}
        self.held[key] = (doc.get("campaign"),
                          int(shard.get("generation", 0)))
        try:
            config = RunConfig.from_dict(doc["config"])
            minted = config.cache_key()
        except (KeyError, TypeError, ValueError) as exc:
            minted = f"nothing ({exc!r})"
        if minted != key:
            self.fail(key, f"ClaimRefused: config mints {minted}")
            return None
        return key, config, shard

    def renew(self, key: str, hb: Optional[Dict] = None) -> None:
        body = self._body(key)
        if hb is not None:
            body["hb"] = hb
        try:
            self.client.post("/renew", body)
        except HttpStatusError as exc:
            if exc.status == 409:
                self.held.pop(key, None)
                info = exc.json() or {}
                raise LeaseLost(key, self.worker_id,
                                holder=info.get("holder")) from exc
            self.renew_misses += 1
        except TransportError:
            self.renew_misses += 1

    def _publish(self, path: str, body: Dict) -> Dict:
        deadline = time.monotonic() + PUBLISH_DEADLINE
        while True:
            try:
                return self.client.post(path, body)
            except TransportError:
                if time.monotonic() >= deadline:
                    raise
                self.publish_retries += 1
                time.sleep(0.2)

    def complete(self, key: str, entry: Dict,
                 source: str = "worker") -> bool:
        try:
            doc = self._publish("/complete", self._body(
                key, entry=entry, source=source))
        except (TransportError, HttpStatusError) as exc:
            # The result is lost to us but not to the campaign: the
            # reaper requeues the point and a deterministic rerun
            # publishes the identical entry.
            self._log(f"publish of {key} failed ({exc}); "
                      "leaving it to the reaper")
            doc = {}
        self.held.pop(key, None)
        return bool(doc.get("accepted"))

    def fail(self, key: str, error: str) -> None:
        try:
            self._publish("/fail", self._body(
                key, error=error, generation=self.held.get(key, (0, 0))[1]))
        except (TransportError, HttpStatusError) as exc:
            self._log(f"fail-report of {key} not applied ({exc}); "
                      "the reaper will requeue it")
        self.held.pop(key, None)

    def release_held(self) -> int:
        """Best-effort: hand back exactly what we still hold."""
        released = 0
        for key in sorted(self.held):
            try:
                doc = self.client.post("/release", self._body(key))
            except (TransportError, HttpStatusError):
                continue  # the reaper covers what courtesy cannot
            if doc.get("released"):
                released += 1
        self.held.clear()
        return released


def _run_point(transport, key: str, config: RunConfig,
               options: WorkerOptions, report: WorkerReport,
               cache: Optional[RunCache],
               injection: Optional[_Injection] = None,
               audit: bool = False) -> None:
    """Simulate one claimed point and publish the outcome.

    ``transport`` is a :class:`RemoteJournal` (or anything with its
    ``renew``/``complete``/``fail`` surface): renewals raise
    :class:`LeaseLost` only on authoritative fencing, and publication is
    idempotent (first done wins; repeats are answered, not re-applied).

    ``audit`` runs re-execute an already-done point for the daemon's
    integrity monitor: the local RunCache is bypassed in both directions
    (a cache hit would just echo the entry under audit back at the
    daemon, and the audit result must not clobber a good cached entry
    before arbitration settles who is right).
    """
    if injection is not None and injection.should_fail(config):
        report.failed += 1
        transport.fail(key, "InjectedFailure: fail_workload plan")
        _log(options, f"FAILED {key} (injected)")
        return
    if cache is not None and not audit:
        hit = cache.get(config)
        if hit is not None:
            if transport.complete(key, hit, source="cache"):
                report.cache_hits += 1
                report.completed += 1
            return

    # Renewing from the heartbeat hook gives the lease exactly the
    # liveness the lease protocol wants: a simulating worker renews every
    # heartbeat_interval << lease_seconds, a SIGKILLed worker stops
    # renewing instantly, and a fenced-out worker aborts mid-simulation
    # because LeaseLost propagates out of core.run.
    last_renew = [0.0]

    def on_heartbeat(payload: Dict) -> None:
        now = time.monotonic()
        if now - last_renew[0] < options.heartbeat_interval / 2.0:
            return
        last_renew[0] = now
        transport.renew(key, hb=payload)

    try:
        result = simulate(config, on_heartbeat=on_heartbeat,
                          heartbeat_interval=options.heartbeat_interval)
    except LeaseLost:
        report.lease_lost += 1
        _log(options, f"lease lost on {key}; abandoning")
        return
    except Exception as exc:  # noqa: BLE001 - a point must never kill the loop
        report.failed += 1
        transport.fail(key, f"{type(exc).__name__}: {exc}")
        _log(options, f"FAILED {key}: {exc}")
        return
    entry = entry_from_result(result)
    corrupted = (injection is not None and
                 injection.maybe_corrupt(report.claimed, entry))
    if cache is not None and not audit and not corrupted:
        cache.put(config, entry)
    source = "audit" if audit else "worker"
    if transport.complete(key, entry, source=source):
        report.completed += 1
        _log(options, f"done {key} ({result.wall_seconds:.1f}s)")
    else:
        _log(options, f"done {key} (duplicate; first completion kept)")


def work_service(base_url: str, options: Optional[WorkerOptions] = None
                 ) -> WorkerReport:
    """Work for a daemon: claim one point (or audit run), run it, repeat.

    The loop ends when the daemon asks (``{"shutdown": true}``),
    ``max_points`` claims were made, or ``max_idle_polls`` consecutive
    claims yielded no point (0 = never).  A claim the daemon answered
    empty and one that could not reach it count alike, so with the
    default ``max_idle_polls=0`` an unreachable daemon never kills the
    worker: it polls every ``poll_interval`` until the daemon returns.
    """
    options = options or WorkerOptions()
    report = WorkerReport(worker_id=options.worker_id)
    injection = _Injection(options.worker_id)
    client = ServiceClient(base_url, worker_id=options.worker_id)
    remote = RemoteJournal(client, options.worker_id,
                           log=lambda msg: _log(options, msg))
    cache = RunCache(options.cache_dir) if options.cache_dir else None
    idle = 0
    while not (options.max_points and report.claimed >= options.max_points):
        try:
            got = remote.claim()
        except (TransportError, HttpStatusError):
            got = None
        if remote.shutdown:
            _log(options, "daemon asked for shutdown")
            break
        if got is None:
            idle += 1
            report.idle_polls += 1
            if options.max_idle_polls and idle >= options.max_idle_polls:
                break
            time.sleep(options.poll_interval)
            continue
        idle = 0
        key, config, shard = got
        report.claimed += 1
        cid = remote.held[key][0]
        if cid not in report.campaigns:
            report.campaigns.append(cid)
        injection.maybe_die(report.claimed)
        _run_point(remote, key, config, options, report, cache,
                   injection=injection, audit=bool(shard.get("audit")))
    # Courtesy: hand back exactly the points still held (normally none).
    report.released = remote.release_held()
    report.renew_misses = remote.renew_misses
    report.publish_retries = remote.publish_retries
    return report
