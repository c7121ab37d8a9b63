"""Remote-execution protocol end-to-end: filesystem-free workers over
HTTP, daemon restarts, graceful drain, and the network-chaos sweep.

The acceptance bar throughout is the repo's standing one: a campaign
executed remotely — through faults, worker death, and daemon restarts —
finishes bit-identical (``entry_fingerprint``) to an in-process
``run_campaign`` of the same spec.
"""

import json
import os
import pathlib
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.harness.campaign import (CampaignJournal, entry_fingerprint,
                                    run_campaign)
from repro.service.daemon import CampaignService, ServiceConfig
from repro.service.httpclient import ServiceClient
from repro.harness.lease import LeaseLost
from repro.harness.spec import configs_from_spec
from repro.service.worker import (INJECT_ENV, RemoteJournal, WorkerOptions,
                                  work_service)

from tests.service.chaosproxy import ChaosProxy, FaultPlan

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

SPEC = {"workloads": ["astar", "perlbench"],
        "engines": ["baseline", "phelps"], "instructions": 1500}


def get(url, timeout=10.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            body = resp.read().decode()
            status = resp.status
    except urllib.error.HTTPError as exc:
        body = exc.read().decode()
        status = exc.code
    try:
        return status, json.loads(body)
    except json.JSONDecodeError:
        return status, body


def post(url, doc, headers=None, timeout=10.0):
    req = urllib.request.Request(
        url, data=json.dumps(doc).encode(), method="POST",
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def wait_for(predicate, timeout=180.0, interval=0.2, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


def quick_config(tmp_path, **overrides):
    kwargs = dict(root=str(tmp_path / "svc"), port=0, workers=0,
                  lease_seconds=2.0, reap_interval=0.3,
                  stream_interval=0.1, heartbeat_interval=0.2,
                  cache_dir=str(tmp_path / "cache"), log=False)
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


def submit_and_activate(svc, spec=SPEC):
    code, doc = post(f"{svc.url}/campaigns", spec)
    assert code == 201
    cid = doc["id"]
    wait_for(lambda: get(f"{svc.url}/campaigns/{cid}")[1]["status"]
             == "active", timeout=30, what="activation")
    return cid


def campaign_dir(svc, cid):
    return pathlib.Path(svc.state.get(cid).dir)


def journal_fingerprints(directory):
    journal = CampaignJournal(directory)
    manifest = journal.load_manifest() or {}
    fps = {}
    for point in manifest.get("points", ()):
        shard = journal.read_point(point["key"]) or {}
        assert shard.get("status") == "done", \
            f"{point['key']} is {shard.get('status')}"
        fps[point["key"]] = entry_fingerprint(shard["entry"])
    return fps


@pytest.fixture(scope="module")
def reference():
    """Fingerprints of an in-process run of SPEC (the bit-identity bar)."""
    entries = run_campaign(configs_from_spec(SPEC), jobs=1)
    return {key: entry_fingerprint(entry)
            for key, entry in entries.items()}


def worker_options(**overrides):
    kwargs = dict(worker_id="rw1", heartbeat_interval=0.2, poll_interval=0.1,
                  max_idle_polls=40, log=False)
    kwargs.update(overrides)
    return WorkerOptions(**kwargs)


class TestLeaseProtocol:
    def test_claim_renew_complete_roundtrip(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc)
            client = ServiceClient(svc.url, worker_id="rw1")
            remote = RemoteJournal(client, "rw1")
            got = remote.claim()
            assert got is not None
            key, config, shard = got
            # The wire config mints the exact journal key: remote results
            # stay content-addressed.
            assert config.cache_key() == key
            assert shard["worker"] == "rw1"
            assert remote.held == {key: (cid, 0)}
            remote.renew(key, hb={"instructions": 10})
            doc = CampaignJournal(campaign_dir(svc, cid)).read_point(key)
            assert doc["hb"] == {"instructions": 10}
            assert remote.complete(key, {"cycles": 123,
                                         "config": config.to_dict()}) is True
            doc = CampaignJournal(campaign_dir(svc, cid)).read_point(key)
            assert doc["status"] == "done"
            assert doc["completed_by"] == "rw1"
            assert not remote.held

    def test_first_done_wins_over_http(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc)
            client = ServiceClient(svc.url, worker_id="rw1")
            remote = RemoteJournal(client, "rw1")
            key, config, _shard = remote.claim()
            entry = {"cycles": 1, "config": config.to_dict()}
            assert remote.complete(key, entry) is True
            # A different worker re-completing the same point is refused
            # (first done wins; it is not a repeat of rw1's publish).
            code, doc = post(f"{svc.url}/complete",
                             {"campaign": cid, "worker": "rw2", "key": key,
                              "entry": {**entry, "cycles": 999}})
            assert code == 200
            assert doc["accepted"] is False
            shard = CampaignJournal(campaign_dir(svc, cid)).read_point(key)
            assert shard["entry"] == entry

    def test_claim_race_has_one_winner(self, tmp_path):
        """Two workers race the last pending point of a campaign; the
        daemon's point table admits exactly one."""
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc, {**SPEC, "workloads": ["astar"],
                                            "engines": ["baseline"]})
            remotes = [RemoteJournal(ServiceClient(svc.url, worker_id=w), w)
                       for w in ("a", "b")]
            barrier = threading.Barrier(len(remotes))
            wins = {}

            def race(remote):
                barrier.wait()
                wins[remote.worker_id] = remote.claim()

            threads = [threading.Thread(target=race, args=(r,))
                       for r in remotes]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert sum(1 for w in wins.values() if w is not None) == 1

    def test_renew_409_after_fence_raises_leaselost(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc)
            client = ServiceClient(svc.url, worker_id="rw1")
            remote = RemoteJournal(client, "rw1")
            key, _config, _shard = remote.claim()
            # The lease lapses unrenewed (an hour passes on the reaper's
            # clock); the reaper requeues it, and the next renew gets an
            # authoritative 409 -> LeaseLost.
            reaped = svc._reap(now=time.time() + 3600)
            assert (cid, key, "lease_expired", "rw1") in reaped
            journal = CampaignJournal(campaign_dir(svc, cid))
            assert journal.read_point(key)["status"] == "pending"
            with pytest.raises(LeaseLost):
                remote.renew(key)
            assert key not in remote.held

    def test_repeated_publish_is_answered_by_the_table(self, tmp_path):
        """A repeat of a landed /complete (even with a mangled body)
        finds the point done by this worker, and the point table gives
        the same answer; the first entry stays, and the repeat is
        counted."""
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc)
            client = ServiceClient(svc.url, worker_id="rw1")
            remote = RemoteJournal(client, "rw1")
            key, config, _shard = remote.claim()
            entry = {"cycles": 7, "config": config.to_dict()}
            body = {"campaign": cid, "worker": "rw1", "key": key,
                    "entry": entry}
            code, first = post(f"{svc.url}/complete", body)
            assert (code, first["accepted"]) == (200, True)
            code, repeat = post(f"{svc.url}/complete",
                                {**body, "entry": {**entry, "cycles": 666}})
            assert (code, repeat) == (200, first)
            shard = CampaignJournal(campaign_dir(svc, cid)).read_point(key)
            assert shard["entry"] == entry
            _status, metrics = get(f"{svc.url}/metrics")
            assert "repro_service_http_duplicates_total 1" in metrics
            assert "repro_service_http_requests_total" in metrics
            # Only the claim went through rw1's client (the publishes
            # above carry no X-Repro-Worker header).
            assert ('repro_service_worker_requests_total{worker="rw1"} 1'
                    in metrics)

    def test_stale_fail_is_fenced_over_http(self, tmp_path):
        """A worker whose lease lapsed cannot fail the point's new
        owner, and no /fail un-does a finished point."""
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc)
            old = RemoteJournal(ServiceClient(svc.url, worker_id="rw1"),
                                "rw1")
            key, config, _shard = old.claim()
            svc._reap(now=time.time() + 3600)
            new = RemoteJournal(ServiceClient(svc.url, worker_id="rw2"),
                                "rw2")
            assert new.claim()[0] == key
            stale = {"campaign": cid, "worker": "rw1", "key": key,
                     "error": "late", "generation": 0}
            code, doc = post(f"{svc.url}/fail", stale)
            assert (code, doc["error"], doc["holder"]) \
                == (409, "lease_lost", "rw2")
            journal = CampaignJournal(campaign_dir(svc, cid))
            shard = journal.read_point(key)
            assert (shard["status"], shard["worker"]) == ("running", "rw2")
            entry = {"cycles": 5, "config": config.to_dict()}
            assert new.complete(key, entry) is True
            code, _doc = post(f"{svc.url}/fail", {**stale, "worker": "rw2",
                                                  "generation": 1})
            assert code == 409
            assert journal.read_point(key)["status"] == "done"
            _status, results = get(f"{svc.url}/campaigns/{cid}/results")
            assert results["results"][key] == entry

    def test_release_returns_only_held_points(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc)
            client = ServiceClient(svc.url, worker_id="rw1")
            remote = RemoteJournal(client, "rw1")
            key, _config, _shard = remote.claim()
            assert remote.release_held() == 1
            shard = CampaignJournal(campaign_dir(svc, cid)).read_point(key)
            assert shard["status"] == "pending"
            assert shard["requeued"] == "released"
            # Nothing held -> nothing released, no manifest sweep needed.
            assert remote.release_held() == 0

    def test_unknown_campaign_is_404(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            for op in ("renew", "complete", "fail", "release"):
                code, doc = post(f"{svc.url}/{op}",
                                 {"campaign": "c999", "worker": "x",
                                  "key": "k"})
                assert (code, doc["campaign"]) == (404, "c999"), op
            # /claim names no campaign: with none active, it has nothing.
            assert post(f"{svc.url}/claim", {"worker": "x"}) \
                == (200, {"key": None})

    def test_claim_never_carries_a_path(self, tmp_path):
        """Workers learn which campaign their point is in, never where it
        lives (nor the key list: the daemon picks the point); only the
        operator views show the directory."""
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc)
            _status, claim = post(f"{svc.url}/claim", {"worker": "probe"})
            assert claim["campaign"] == cid
            assert not {"dir", "cache_dir", "keys"} & set(claim)
            assert str(tmp_path) not in json.dumps(claim)
            _status, record = get(f"{svc.url}/campaigns/{cid}")
            assert record["dir"] == str(campaign_dir(svc, cid))


class TestRemoteWorker:
    def test_filesystem_free_worker_is_bit_identical(
            self, tmp_path, monkeypatch, reference):
        """The tentpole acceptance test, local half: a connected worker
        that provably never opens the campaign directory (no
        CampaignJournal may be constructed once the campaign is active,
        and the daemon never reveals the path) finishes the campaign
        bit-identical to run_campaign."""

        def trap(*args, **kwargs):
            raise AssertionError("something opened a campaign journal")

        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc)
            with monkeypatch.context() as m:
                m.setattr(CampaignJournal, "__init__", trap)
                report = work_service(svc.url,
                                      worker_options(max_idle_polls=2))
            assert report.claimed == 4
            assert report.completed == 4
            assert report.failed == 0
            assert report.campaigns == [cid]
            wait_for(lambda: get(f"{svc.url}/campaigns/{cid}")[1]["status"]
                     == "done", timeout=30, what="campaign done")
            assert journal_fingerprints(campaign_dir(svc, cid)) == reference

    def test_unreachable_daemon_counts_as_idle_polls(self):
        """A claim that cannot reach the daemon yields no point, so it
        counts toward ``max_idle_polls`` exactly like an empty answer:
        the worker gives up after two failed claims."""
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        box = {}
        thread = threading.Thread(target=lambda: box.update(
            report=work_service(f"http://127.0.0.1:{port}",
                                worker_options(max_idle_polls=2))),
            daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "the worker kept polling a dead URL"
        report = box["report"]
        assert (report.claimed, report.idle_polls) == (0, 2)

    def test_worker_rides_through_daemon_restart(self, tmp_path,
                                                 reference):
        """Stop the daemon mid-campaign and restart it on a new port (the
        chaos proxy retargets); the connected worker retries and polls
        through the outage, resumes, and completes every point exactly
        once — no duplicate completions, fingerprints identical."""
        config = quick_config(tmp_path)
        svc_a = CampaignService(config).start()
        svc_b = None
        proxy = ChaosProxy("127.0.0.1", svc_a.port).start()
        report_box = {}
        try:
            cid = submit_and_activate(svc_a)
            root = campaign_dir(svc_a, cid)
            options = worker_options(max_idle_polls=80)

            def run_worker():
                report_box["report"] = work_service(proxy.url, options)

            thread = threading.Thread(target=run_worker, daemon=True)
            thread.start()
            journal = CampaignJournal(root)
            done = lambda: sum(
                1 for p in (journal.load_manifest() or {}).get("points", ())
                if (journal.read_point(p["key"]) or {}).get("status")
                == "done")
            wait_for(lambda: done() >= 1, timeout=60, what="first point")
            svc_a.stop()
            # The worker hits the dead daemon: its connections fail.
            dark = proxy.counters()["connections"]
            wait_for(lambda: proxy.counters()["connections"] >= dark + 3,
                     timeout=30, interval=0.02, what="failed connections")
            svc_b = CampaignService(quick_config(tmp_path)).start()
            proxy.retarget("127.0.0.1", svc_b.port)
            wait_for(lambda: done() == 4, timeout=120,
                     what="campaign completion after restart")
            svc_b.drain(drain_seconds=0)   # /claim: shutdown
            thread.join(timeout=60)
            assert not thread.is_alive()
            report = report_box["report"]
            # Every point completed exactly once, by this worker.
            assert report.completed == 4
            assert report.failed == 0
            assert journal_fingerprints(root) == reference
        finally:
            proxy.stop()
            if svc_b is not None:
                svc_b.stop()
            svc_a.stop()

    def test_drain_then_restart_resumes_bit_identically(self, tmp_path,
                                                        reference):
        """SIGTERM semantics: drain stops claims, waits for the
        lease, records the interruption in the manifest, and a restarted
        daemon resumes the campaign to a bit-identical finish."""
        config = quick_config(tmp_path)
        svc_a = CampaignService(config).start()
        svc_b = None
        try:
            cid = submit_and_activate(svc_a)
            root = campaign_dir(svc_a, cid)
            client = ServiceClient(svc_a.url, worker_id="rw1")
            remote = RemoteJournal(client, "rw1")
            key, _config, _shard = remote.claim()
            svc_a.drain(drain_seconds=0.3)
            code, doc = post(f"{svc_a.url}/claim", {"worker": "rw2"})
            assert (code, doc) == (200, {"key": None, "shutdown": True})
            # Renew/complete stay served while draining.
            remote.renew(key)
            manifest = CampaignJournal(root).load_manifest()
            assert manifest["interruptions"], \
                "drain must write the interruption record"
            assert manifest["interruptions"][-1]["total"] == 4
            _status, metrics = get(f"{svc_a.url}/metrics")
            assert "repro_service_draining 1" in metrics
            svc_a.stop()
            # Restart: recovery re-adopts the campaign and a worker
            # finishes it.  It runs as rw1, so its first claim hands back
            # the point the drained daemon left leased to rw1 (had the
            # lease lapsed first, the reaper would have requeued it).
            svc_b = CampaignService(quick_config(tmp_path)).start()
            assert svc_b.state.get(cid) is not None   # recovered at start
            box = {}
            thread = threading.Thread(target=lambda: box.update(
                report=work_service(svc_b.url,
                                    worker_options(max_idle_polls=80))))
            thread.start()
            wait_for(lambda: get(f"{svc_b.url}/campaigns/{cid}")[1]
                     ["status"] == "done", timeout=120, what="done")
            svc_b.drain(drain_seconds=0)   # /claim: shutdown
            thread.join(timeout=60)
            assert box["report"].completed == 4
            assert journal_fingerprints(root) == reference
        finally:
            if svc_b is not None:
                svc_b.stop()
            svc_a.stop()


class TestChaosSweep:
    def test_chaos_sweep_with_worker_death_is_bit_identical(
            self, tmp_path, reference):
        """The tentpole acceptance test, chaos half: a 2x2 sweep through
        the seeded chaos proxy, executed by two subprocess workers (one
        SIGKILL-style death after its first claim), finishes fingerprint-
        identical to a local run_campaign, and the daemon's HTTP metrics
        saw the client-side retries the faults forced."""
        config = quick_config(tmp_path, lease_seconds=3.0)
        plan = FaultPlan(seed=1234, drop_rate=0.08, error_rate=0.12,
                         truncate_rate=0.08, duplicate_rate=0.08,
                         latency_rate=0.2, latency_seconds=0.01)
        flag = tmp_path / "died.flag"
        pkg_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        procs = []
        with CampaignService(config) as svc:
            with ChaosProxy("127.0.0.1", svc.port, plan=plan) as proxy:
                cid = submit_and_activate(svc)
                root = campaign_dir(svc, cid)
                for wid in ("cw1", "cw2"):
                    env = dict(os.environ)
                    env["PYTHONPATH"] = os.pathsep.join(
                        [pkg_root] + ([env["PYTHONPATH"]]
                                      if env.get("PYTHONPATH") else []))
                    if wid == "cw1":
                        env[INJECT_ENV] = json.dumps(
                            {"worker": "cw1", "die_after_claims": 1,
                             "flag": str(flag)})
                    procs.append(subprocess.Popen(
                        [sys.executable, "-m", "repro", "worker",
                         "--connect", proxy.url, "--id", wid,
                         "--heartbeat-interval", "0.2",
                         "--poll-interval", "0.1",
                         "--max-idle-polls", "80", "-q"],
                        env=env, cwd=str(tmp_path)))
                    if wid == "cw1":
                        # The doomed worker must win a claim before the
                        # survivor drains the sweep: it dies right after.
                        wait_for(lambda: flag.exists() or
                                 procs[0].poll() is not None, timeout=60,
                                 interval=0.02, what="cw1's first claim")
                try:
                    wait_for(lambda: get(f"{svc.url}/campaigns/{cid}")[1]
                             ["status"] == "done", timeout=180,
                             what="chaos campaign completion")
                    # The injected death really happened (exit 37, the
                    # SIGKILL-semantics hard exit) and was healed.
                    assert procs[0].wait(timeout=60) == 37
                    assert flag.exists()
                    counters = proxy.counters()
                    _status, metrics = get(f"{svc.url}/metrics")
                    injected = counters["injected"]
                    retried_faults = (injected["error"] + injected["drop"]
                                      + injected["truncate"])
                    if retried_faults:
                        for line in metrics.splitlines():
                            if line.startswith(
                                    "repro_service_http_retries_total"):
                                assert int(float(line.split()[-1])) >= 1
                                break
                        else:
                            raise AssertionError(
                                "repro_service_http_retries_total missing")
                    claims = [line for line in metrics.splitlines()
                              if line.startswith(
                                  "repro_service_http_requests_total")
                              and 'endpoint="claim"' in line]
                    assert claims and float(claims[0].split()[-1]) >= 4
                    # The survivor exits cleanly when the daemon drains.
                    svc.drain(drain_seconds=0)
                    assert procs[1].wait(timeout=60) == 0
                finally:
                    for proc in procs:
                        if proc.poll() is None:
                            proc.terminate()
                    for proc in procs:
                        try:
                            proc.wait(timeout=30)
                        except subprocess.TimeoutExpired:
                            proc.kill()
            assert journal_fingerprints(root) == reference
        reread = journal_fingerprints(root)
        assert reread == reference   # survives daemon shutdown untouched

    def test_every_request_delivered_twice_is_bit_identical(
            self, tmp_path, reference):
        """``duplicate_rate=1.0``: every claim, renew and publish reaches
        the daemon twice.  The point table answers each second copy —
        the held point again, the same acceptance — so no point is
        stranded under a lease its worker never learned of, and every
        completion counts exactly once."""
        with CampaignService(quick_config(tmp_path)) as svc:
            plan = FaultPlan(seed=7, duplicate_rate=1.0)
            with ChaosProxy("127.0.0.1", svc.port, plan=plan) as proxy:
                cid = submit_and_activate(svc)
                report = work_service(proxy.url, worker_options(
                    poll_interval=0.05, max_idle_polls=2))
                assert proxy.counters()["injected"]["duplicate"] >= 8
            assert report.claimed == 4
            assert report.completed == 4
            assert svc.http_duplicates >= 4     # each second /complete
            assert journal_fingerprints(campaign_dir(svc, cid)) == reference
