"""The two campaign workloads.

Both run every registry workload x {baseline, phelps} x 5,000
instructions (40 points of about 0.4 s each), so per-point overhead is a
visible share of the time.  ``--seed`` shuffles the workload order, and
with it the order points run in; result fingerprints must not move.

``campaign-local`` drives ``run_campaign(jobs=2)`` with a fresh journal
and a fresh ``RunCache`` (cold pass).  The traced run adds warm passes:
the point set again with a new journal over the filled cache (one cache
read and one journal write per point).

``campaign-served`` sends the same spec to a ``repro service --workers 0``
daemon with two ``repro worker --connect`` processes: a cold phase (POST
``/campaigns`` until the client sees the campaign done).  The traced run
adds warm phases (the same spec again, served by the daemon's run-cache
dedup at activation) and an idle phase (workers gone, a backlog of
``max_active_campaigns`` 140-point campaigns active, daemon CPU sampled
over a fixed window, then every backlog campaign deleted).

Warm passes are file-system bound and vary up to 2x between runs on a
noisy host, so they feed only the per-layer ``harness.warm_wall_s``.
"""

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
import urllib.request

from repro.harness import RunCache
from repro.harness.campaign import (CampaignJournal, entry_fingerprint,
                                    run_campaign)
from repro.harness.simulator import ENGINES as ALL_ENGINES
from repro.service import ServiceConfig
from repro.service.httpclient import ServiceClient
from repro.service.queue import configs_from_spec
from repro.workloads import build_workload, workload_names

from common import (BENCH_DIR, ROOT, SRC, Checker, Samples, fresh_dir,
                    load_json, median, own_cpu_s, proc_cpu_s, wrap_harness,
                    zero_layers)
from tracer import Tracer

ENGINES = ["baseline", "phelps"]
INSTRUCTIONS = 5_000
JOBS = 2                # pool size (local) and worker count (served)
LOCAL_SETUP_REPS = 20
SERVED_EXTRA_SETUPS = 1
WARM_REPS = 10          # warm passes timed in a traced run
SERVED_WARM_REPS = 5
HEARTBEAT = 0.25        # worker heartbeat: ~one lease renewal per point
# Client status polls: coarse in the cold phase, where each poll would
# take CPU from the two simulating workers; fine in the short warm phases.
COLD_POLL = 0.1
WARM_POLL = 0.005
IDLE_WINDOW = 2.0       # seconds of daemon CPU sampled in the idle phase
PHASE_TIMEOUT = 100.0


def campaign_spec(seed: int, workloads=None) -> dict:
    names = list(workloads or workload_names())
    random.Random(seed).shuffle(names)
    return {"workloads": names, "engines": list(ENGINES),
            "instructions": INSTRUCTIONS}


def entry_digest(entry: dict) -> str:
    return hashlib.sha256(entry_fingerprint(entry).encode()).hexdigest()


def check_entries(checker: Checker, keys, entries: dict, what: str) -> None:
    """One comparison per point: present and fingerprint-equal to the
    reference (a missing point is a failed one)."""
    for key in keys:
        entry = entries.get(key)
        checker.check(f"{what} {key}",
                      entry_digest(entry) if entry else None,
                      checker.reference.get(key))


def order_digest(keys) -> str:
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]


def results_digest(entries: dict) -> str:
    doc = "\n".join(f"{k} {entry_digest(entries[k])}" for k in sorted(entries))
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _entry_layers(entries: dict, tracer: Tracer) -> dict:
    """Per-layer counts the result entries carry exactly; the in-process
    stage timings need the sim workloads and read 0 here."""
    m = zero_layers()
    values = list(entries.values())
    cycles = sum(e["cycles"] for e in values) or 1
    retired = sum(e["retired"] for e in values) or 1
    m.update({
        "core.cycles": sum(e["cycles"] for e in values),
        "core.ipc": retired / cycles,
        "core.idle_skip_frac": sum(e["idle_cycles_skipped"]
                                   for e in values) / cycles,
        "frontend.mpki": 1000.0 * sum(e["mispredicts"] for e in values)
        / retired,
        "phelps.helper_uops_per_retired": sum(e["helper_retired"]
                                              for e in values) / retired,
        "phelps.activations": sum(e["engine"].get("activations", 0)
                                  for e in values),
        "harness.simulate_s": sum(e["wall_seconds"] for e in values),
        "harness.cache_get_s": tracer.self_s("harness.cache_get"),
        "harness.cache_put_s": tracer.self_s("harness.cache_put"),
        "harness.journal_s": tracer.self_s("harness.journal"),
    })
    return m


def _time_builds(configs) -> float:
    """The point set's workload builds, timed in this process (pool
    children and workers build the same programs out of view)."""
    t0 = time.perf_counter()
    for config in configs:
        build_workload(config.workload)
    return time.perf_counter() - t0


# ====================================================================
# campaign-local
# ====================================================================
def _local_setup(spec: dict, work):
    """The point set, its journal keys and the run cache (``setup_s``)."""
    configs = configs_from_spec(spec)
    keys = [c.cache_key() for c in configs]
    return configs, keys, RunCache(work / "cache")


def _local_cold(spec, samples, checker, tracer=None):
    work = fresh_dir("local")
    configs, keys, cache = _local_setup(spec, work)
    journal = CampaignJournal(work / "journal")
    if tracer is not None:
        wrap_harness(tracer, cache, journal)
    starts = {}

    def progress(p):
        key = p.config.cache_key()
        if p.kind == "start":
            starts[key] = time.time()
        elif p.kind == "done":
            samples.add("point_s", p.wall_seconds)
            if tracer is not None:
                tracer.add_span("point", starts[key], time.time(), "harness",
                                tid=1, span_id=key, workload=p.config.workload,
                                engine=p.config.engine)

    cpu0 = own_cpu_s()
    t0 = time.perf_counter()
    entries = run_campaign(configs, journal=journal, cache=cache, jobs=JOBS,
                           progress=progress)
    wall = time.perf_counter() - t0
    samples.add("cpu_s", own_cpu_s() - cpu0)
    samples.add("wall_s", wall)
    samples.add("sim_kips", sum(e["retired"] for e in entries.values())
                / wall / 1000.0)
    samples.add("points_per_hour", len(configs) / wall * 3600.0)
    check_entries(checker, keys, entries, "cold")
    return configs, keys, work, entries, wall


def _local_warm(configs, keys, cache, journal, samples, checker) -> None:
    t0 = time.perf_counter()
    entries = run_campaign(configs, journal=journal, cache=cache, jobs=JOBS)
    samples.add("warm_wall_s", time.perf_counter() - t0)
    check_entries(checker, keys, entries, "warm")


def run_local(seconds: float, traced: bool, seed: int, workloads=None):
    spec = campaign_spec(seed, workloads)
    checker = Checker(load_json("reference.json")["campaign"]["fingerprints"])
    samples = Samples()
    if not traced:
        work = fresh_dir("local-setup")
        for _ in range(LOCAL_SETUP_REPS):
            t0 = time.perf_counter()
            _local_setup(spec, work)
            samples.add("setup_s", time.perf_counter() - t0)
        deadline = time.perf_counter() + seconds
        entries = None
        while entries is None or time.perf_counter() < deadline:
            _, keys, _, entries, _ = _local_cold(spec, samples, checker)
        return None, checker, samples, None, _digests(keys, entries)

    plain_wall = _local_cold(spec, samples, checker)[-1]
    tracer = Tracer()
    with tracer.span("cold", "harness"):
        configs, keys, work, entries, wall = _local_cold(
            spec, samples, checker, tracer)
    cache = RunCache(work / "cache")
    for i in range(WARM_REPS):
        _local_warm(configs, keys, cache, CampaignJournal(work / f"warm{i}"),
                    samples, checker)
    warm_wall = samples.median("warm_wall_s")
    journal = CampaignJournal(work / "warm-traced")
    wrap_harness(tracer, cache, journal)
    with tracer.span("warm", "harness"):
        _local_warm(configs, keys, cache, journal, Samples(), checker)
    m = _entry_layers(entries, tracer)
    m["workloads.build_s"] = _time_builds(configs)
    m["harness.warm_wall_s"] = warm_wall
    m["harness.overhead_s_per_point"] = (
        wall * JOBS - m["harness.simulate_s"] - m["harness.cache_get_s"]
        - m["harness.cache_put_s"] - m["harness.journal_s"]) / len(configs)
    m["bench.trace_overhead_frac"] = wall / plain_wall - 1.0
    return m, checker, samples, tracer, _digests(keys, entries)


def _digests(keys, entries) -> dict:
    return {"order": order_digest(keys), "results": results_digest(entries)}


# ====================================================================
# campaign-served
# ====================================================================
_LIVE = []   # every process this module started and has not reaped


def stop_all() -> None:
    """Stop and reap every daemon/worker still running."""
    for proc in list(_LIVE):
        _stop(proc, signal.SIGKILL)


def _stop(proc, sig) -> None:
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc in _LIVE:
        _LIVE.remove(proc)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _spawn(argv, work, name):
    with open(work / f"{name}.out", "w") as out, \
            open(work / f"{name}.err", "w") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=out,
                                stderr=err)
    _LIVE.append(proc)
    return proc


def _wait_for(predicate, what: str, timeout: float = 60.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while True:
        got = predicate()
        if got:
            return got
        if time.monotonic() > deadline:
            raise RuntimeError(f"timed out waiting for {what}")
        time.sleep(poll)


class Fleet:
    """One daemon process plus ``JOBS`` connected worker processes."""

    def __init__(self, name: str, traced: bool = False):
        self.work = fresh_dir(name)
        self.traced = traced
        self.worker_ids = [f"bw{i + 1}" for i in range(JOBS)]
        self.daemon = None
        self.workers = []
        self.url = None

    def start(self) -> float:
        """Daemon up and every worker connected; returns the seconds."""
        t0 = time.perf_counter()
        self.daemon = _spawn(
            [sys.executable, "-m", "repro", "service",
             "--root", str(self.work / "root"), "--port", "0",
             "--workers", "0", "--cache-dir", str(self.work / "cache")],
            self.work, "daemon")
        out = self.work / "daemon.out"

        def url():
            if self.daemon.poll() is not None:
                raise RuntimeError("daemon exited during start-up")
            for word in out.read_text().split():
                if word.startswith("http://"):
                    return word
            return None

        self.url = _wait_for(url, "the daemon URL")
        for wid in self.worker_ids:
            if self.traced:
                argv = [sys.executable, str(BENCH_DIR / "traced_worker.py"),
                        "--trace-out", str(self.work / f"{wid}.jsonl")]
            else:
                argv = [sys.executable, "-m", "repro", "worker", "-q"]
            argv += ["--connect", self.url, "--id", wid,
                     "--poll-interval", "0.2",
                     "--heartbeat-interval", str(HEARTBEAT)]
            self.workers.append(_spawn(argv, self.work, wid))

        def connected():
            with urllib.request.urlopen(self.url + "/metrics",
                                        timeout=10) as resp:
                text = resp.read().decode()
            return all(f'worker="{w}"' in text for w in self.worker_ids)

        _wait_for(connected, "workers to connect")
        return time.perf_counter() - t0

    def cpu_s(self) -> float:
        return sum(proc_cpu_s(p.pid) for p in [self.daemon] + self.workers
                   if p.poll() is None)

    def stop_workers(self) -> None:
        for proc in self.workers:
            _stop(proc, signal.SIGTERM)

    def stop(self) -> None:
        self.stop_workers()
        if self.daemon is not None:
            _stop(self.daemon, signal.SIGINT)

    def worker_records(self):
        records = []
        for i, wid in enumerate(self.worker_ids):
            path = self.work / f"{wid}.jsonl"
            if path.exists():
                for line in path.read_text().splitlines():
                    if line.strip():
                        records.append(dict(json.loads(line), pid=i + 1))
        return records


def _status(client: ServiceClient, cid: str) -> str:
    for record in client.get("/campaigns")["campaigns"]:
        if record["id"] == cid:
            return record["status"]
    return "missing"


def _run_served_campaign(client, spec, poll):
    """POST the spec, poll until terminal: (id, wall, submit RTT, window)."""
    start = time.time()
    t0 = time.perf_counter()
    cid = client.post("/campaigns", spec)["id"]
    submit_rtt = time.perf_counter() - t0
    _wait_for(lambda: _status(client, cid) in ("done", "failed",
                                               "cancelled"),
              f"campaign {cid}", timeout=PHASE_TIMEOUT, poll=poll)
    wall = time.perf_counter() - t0
    return cid, wall, submit_rtt, (start, time.time())


def _served_unit(spec, keys, samples, checker, tracer=None) -> dict:
    """Start a fleet and run the cold phase; the fleet is left running
    for the caller to stop (or to run the warm and idle phases on)."""
    fleet = Fleet("served-traced" if tracer else "served", traced=bool(tracer))
    t0 = time.time()
    try:
        samples.add("setup_s", fleet.start())
        if tracer is not None:
            tracer.add_span("setup", t0, time.time(), "service")
        client = ServiceClient(fleet.url, worker_id="bench")
        daemon0 = proc_cpu_s(fleet.daemon.pid)
        cpu0 = fleet.cpu_s() + own_cpu_s()
        cid, wall, submit_rtt, window = _run_served_campaign(client, spec,
                                                             COLD_POLL)
        samples.add("cpu_s", fleet.cpu_s() + own_cpu_s() - cpu0)
        daemon_cpu = proc_cpu_s(fleet.daemon.pid) - daemon0
        entries = client.get(f"/campaigns/{cid}/results")["results"]
        samples.add("wall_s", wall)
        samples.add("submit_rtt_s", submit_rtt)
        samples.add("sim_kips", sum(e["retired"] for e in entries.values())
                    / wall / 1000.0)
        samples.add("points_per_hour", len(keys) / wall * 3600.0)
        check_entries(checker, keys, entries, "served cold")
        if tracer is not None:
            tracer.add_span("cold", *window, "service", campaign=cid)
        return {"fleet": fleet, "client": client, "entries": entries,
                "wall": wall, "window": window, "daemon_cpu": daemon_cpu,
                "submit_rtt": submit_rtt}
    except BaseException:
        fleet.stop()
        raise


def _served_warm(unit, spec, keys, samples, checker, tracer) -> None:
    """The same spec again: the daemon dedups every point from its run
    cache at activation."""
    client = unit["client"]
    for _ in range(SERVED_WARM_REPS):
        cid, wall, _, window = _run_served_campaign(client, spec, WARM_POLL)
        samples.add("warm_wall_s", wall)
        check_entries(checker, keys,
                      client.get(f"/campaigns/{cid}/results")["results"],
                      "served warm")
        tracer.add_span("warm", *window, "service", campaign=cid)


def _idle_phase(fleet: Fleet, client: ServiceClient, tracer: Tracer) -> float:
    """Daemon CPU share with a full active backlog and no workers."""
    fleet.stop_workers()
    start = time.time()
    cids = []
    for i in range(ServiceConfig().max_active_campaigns):
        spec = {"workloads": workload_names(), "engines": list(ALL_ENGINES),
                "instructions": INSTRUCTIONS + 1 + i}
        cids.append(client.post("/campaigns", spec)["id"])
    _wait_for(lambda: all(_status(client, c) == "active" for c in cids),
              "the idle backlog to activate")
    cpu0 = proc_cpu_s(fleet.daemon.pid)
    t0 = time.perf_counter()
    time.sleep(IDLE_WINDOW)
    pct = 100.0 * (proc_cpu_s(fleet.daemon.pid) - cpu0) \
        / (time.perf_counter() - t0)
    for cid in cids:
        client.request("DELETE", f"/campaigns/{cid}")
    tracer.add_span("idle", start, time.time(), "service", campaigns=len(cids))
    return pct


def run_served(seconds: float, traced: bool, seed: int, workloads=None):
    spec = campaign_spec(seed, workloads)
    keys = [c.cache_key() for c in configs_from_spec(spec)]
    checker = Checker(load_json("reference.json")["campaign"]["fingerprints"])
    samples = Samples()
    try:
        if not traced:
            # Fleets started only to time set-up, so setup_s is a median.
            for _ in range(SERVED_EXTRA_SETUPS):
                fleet = Fleet("served-setup")
                try:
                    samples.add("setup_s", fleet.start())
                finally:
                    fleet.stop()
            deadline = time.perf_counter() + seconds
            unit = None
            while unit is None or time.perf_counter() < deadline:
                unit = _served_unit(spec, keys, samples, checker)
                unit["fleet"].stop()
            return (None, checker, samples, None,
                    _digests(keys, unit["entries"]))

        plain = _served_unit(spec, keys, samples, checker)
        plain["fleet"].stop()
        tracer = Tracer()
        unit = _served_unit(spec, keys, samples, checker, tracer)
        fleet = unit["fleet"]
        try:
            _served_warm(unit, spec, keys, samples, checker, tracer)
            idle_pct = _idle_phase(fleet, unit["client"], tracer)
            records = fleet.worker_records()
        finally:
            fleet.stop()
        m = _entry_layers(unit["entries"], tracer)
        m.update(_service_layers(records, unit["window"], len(keys),
                                 samples))
        m["service.submit_rtt_s"] = unit["submit_rtt"]
        m["service.idle_cpu_pct"] = idle_pct
        m["service.daemon_cpu_s_per_point"] = unit["daemon_cpu"] / len(keys)
        m["workloads.build_s"] = _time_builds(configs_from_spec(spec))
        m["harness.warm_wall_s"] = samples.median("warm_wall_s")
        m["harness.overhead_s_per_point"] = (
            unit["wall"] * JOBS - m["harness.simulate_s"]) / len(keys)
        m["bench.trace_overhead_frac"] = unit["wall"] / plain["wall"] - 1.0
        _add_worker_spans(tracer, records)
        return m, checker, samples, tracer, _digests(keys, unit["entries"])
    finally:
        stop_all()


def _service_layers(records, window, points: int, samples: Samples) -> dict:
    start, end = window
    inside = [r for r in records
              if r["kind"] == "request" and start <= r["start"] <= end]
    by_endpoint = {}
    for r in inside:
        by_endpoint.setdefault(r["endpoint"], []).append(r["end"] - r["start"])
    for endpoint, rtts in by_endpoint.items():
        for rtt in rtts:
            samples.add(f"{endpoint}_rtt_s", rtt)
    return {
        "service.schedule_rtt_s": median(by_endpoint.get("schedule", [])),
        "service.claim_rtt_s": median(by_endpoint.get("claim", [])),
        "service.renew_rtt_s": median(by_endpoint.get("renew", [])),
        "service.complete_rtt_s": median(by_endpoint.get("complete", [])),
        "service.requests_per_point": len(inside) / points,
        "service.idle_polls": sum(1 for r in inside if r.get("idle")),
    }


def _add_worker_spans(tracer: Tracer, records) -> None:
    for r in records:
        tracer.processes[r["pid"]] = f"worker {r['pid']}"
        if r["kind"] == "point":
            tracer.add_span("point", r["start"], r["end"], "service",
                            pid=r["pid"], tid=1, span_id=r["key"])
        else:
            tracer.add_span(r["endpoint"], r["start"], r["end"], "service",
                            pid=r["pid"], tid=2, parent=r.get("key"))
