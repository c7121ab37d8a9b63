"""Daemon end-to-end: HTTP lifecycle, worker death + reaper healing,
back-pressure, claim order, recovery, SSE.

These tests run the real daemon with its real subprocess worker pool
against real (tiny) simulations, because the acceptance bar is an HTTP
campaign finishing bit-identical to the local ``sweep`` path after a
worker is killed mid-flight.
"""

import http.client
import json
import pathlib
import re
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.harness.campaign import (CampaignJournal, entry_fingerprint,
                                    run_campaign)
from repro.harness.runcache import RunCache
from repro.harness.spec import configs_from_spec
from repro.obs.live import read_campaign
from repro.service.daemon import _INDEX, CampaignService, ServiceConfig
from repro.service.queue import RETRY_AFTER
from repro.service.worker import INJECT_ENV, WorkerOptions, work_service


def statuses(journal):
    """``key -> status`` for every point the journal's manifest names."""
    return {k: p["status"]
            for k, p in read_campaign(journal.root)["points"].items()}


pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

SPEC = {"workloads": ["astar", "perlbench"],
        "engines": ["baseline", "phelps"], "instructions": 1500}

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs"


def get(url, timeout=10.0):
    """GET -> (status, parsed JSON or text)."""
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

def post(url, doc, timeout=10.0):
    req = urllib.request.Request(
        url, data=json.dumps(doc).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode()), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode()), exc.headers

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


class TestHTTPSurface:
    def test_validation_errors_and_unknown_ids(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            code, doc, _ = post(f"{svc.url}/campaigns",
                                {"workloads": ["nope"],
                                 "engines": ["baseline"]})
            assert code == 400
            assert "unknown workloads" in doc["error"]
            assert get(f"{svc.url}/campaigns/c9999")[0] == 404
            assert get(f"{svc.url}/healthz") == (200, {"ok": True})
            status, text = get(f"{svc.url}/metrics")
            assert status == 200
            assert "repro_service_up 1" in text

    def test_responses_are_marked_no_store(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            for path in ("/metrics", "/campaigns", "/healthz"):
                with urllib.request.urlopen(svc.url + path,
                                            timeout=10) as resp:
                    assert resp.headers["Cache-Control"] == "no-store", path

    def test_busy_port_degrades_to_ephemeral(self, tmp_path):
        """A taken port must not kill the daemon: it falls back to an
        ephemeral port instead."""
        with CampaignService(quick_config(tmp_path)) as first:
            second = CampaignService(quick_config(
                tmp_path / "second", port=first.port)).start()
            try:
                assert second.port != first.port
                assert get(f"{second.url}/healthz") == (200, {"ok": True})
            finally:
                second.stop()

    def test_documented_routes_are_the_served_routes(self, tmp_path):
        """The route table in docs/campaign-service.md, the daemon's
        index page and the handler agree: every listed route is served,
        and a deleted route (``GET /schedule``) answers the router's
        404, so no document can keep an endpoint the code dropped."""
        table = (DOCS / "campaign-service.md").read_text()
        documented = {(method, path) for path, method in re.findall(
            r"^\| `(/[^`]*)` \| (GET|POST|DELETE) \|", table, re.M)}
        indexed = set(re.findall(r"^ +(GET|POST|DELETE) +(/\S*)", _INDEX,
                                 re.M))
        assert documented == indexed
        assert ("POST", "/claim") in indexed and len(indexed) == 14

        def first_line(method, path):
            req = urllib.request.Request(
                svc.url + path, method=method,
                data=b"{}" if method == "POST" else None)
            try:
                with urllib.request.urlopen(req, timeout=10) as resp:
                    return resp.readline()   # the SSE stream never ends
            except urllib.error.HTTPError as exc:
                return exc.read()

        with CampaignService(quick_config(tmp_path)) as svc:
            cid = activate(svc)
            # The cancel goes last: it ends the campaign the rest read.
            for method, path in sorted(indexed,
                                       key=lambda r: r[0] == "DELETE"):
                path = path.replace("<id>", cid)
                assert first_line(method, path) != b"not found\n", path
            assert first_line("GET", "/schedule?worker=w1") \
                == b"not found\n"

    def test_back_pressure_returns_429_with_retry_after(self, tmp_path):
        config = quick_config(tmp_path, max_queued_points=5)
        with CampaignService(config) as svc:
            code, doc, _ = post(f"{svc.url}/campaigns", SPEC)  # 4 points
            assert code == 201
            cid = doc["id"]
            code, doc, headers = post(f"{svc.url}/campaigns", SPEC)
            assert code == 429
            assert headers["Retry-After"] == str(int(RETRY_AFTER))
            assert doc["retry_after"] == RETRY_AFTER
            # Cancelling the queued campaign frees the budget.
            req = urllib.request.Request(
                f"{svc.url}/campaigns/{cid}", method="DELETE")
            with urllib.request.urlopen(req, timeout=10) as resp:
                assert json.loads(resp.read())["status"] == "cancelled"
            code, _, _ = post(f"{svc.url}/campaigns", SPEC)
            assert code == 201

    def test_a_submission_with_a_tenant_is_rejected(self, tmp_path):
        """The daemon is single-tenant: a ``tenant`` (and so any quota a
        caller meant by it) is an unknown field, not silently dropped."""
        with CampaignService(quick_config(tmp_path)) as svc:
            code, doc, _ = post(f"{svc.url}/campaigns",
                                {**SPEC, "tenant": "alice"})
            assert code == 400
            assert "unknown fields: ['tenant']" in doc["error"]
            assert get(f"{svc.url}/campaigns")[1]["campaigns"] == []

    def test_malformed_content_length_gets_400(self, tmp_path):
        """A ``Content-Length`` that is not a non-negative integer is
        answered 400 instead of killing the handler (``abc``) or
        reading until the client hangs up (``-1``)."""
        with CampaignService(quick_config(tmp_path)) as svc:
            for path in ("/campaigns", "/claim"):
                for length in ("abc", "-1"):
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", svc.port, timeout=10)
                    try:
                        conn.putrequest("POST", path)
                        conn.putheader("Content-Length", length)
                        conn.endheaders()
                        resp = conn.getresponse()
                        assert resp.status == 400, (path, length)
                        assert json.loads(resp.read()) == {
                            "error": "bad Content-Length"}
                    finally:
                        conn.close()
            assert get(f"{svc.url}/healthz") == (200, {"ok": True})

    def test_cache_warm_campaign_and_sse_stream(self, tmp_path):
        """With every point in the run cache, activation dedups the whole
        campaign; the SSE stream delivers frames until the terminal one."""
        cache = RunCache(tmp_path / "cache")
        warm = run_campaign(configs_from_spec(SPEC), cache=cache, jobs=1)
        with CampaignService(quick_config(tmp_path)) as svc:
            _, doc, _ = post(f"{svc.url}/campaigns", SPEC)
            cid = doc["id"]
            frames = []
            with urllib.request.urlopen(f"{svc.url}/campaigns/{cid}/stream",
                                        timeout=60) as resp:
                assert resp.headers["Content-Type"] == "text/event-stream"
                for raw in resp:
                    line = raw.decode().strip()
                    if line.startswith("data: "):
                        frames.append(json.loads(line[len("data: "):]))
            assert frames
            assert frames[-1]["status"] == "done"
            record = get(f"{svc.url}/campaigns/{cid}")[1]
            assert record["deduped"] == 4
            assert record["counts"]["done"] == 4
            _, results = get(f"{svc.url}/campaigns/{cid}/results")
            assert {k: entry_fingerprint(v)
                    for k, v in results["results"].items()} \
                == {k: entry_fingerprint(v) for k, v in warm.items()}


class TestWorkerPoolEndToEnd:
    def test_killed_worker_is_reaped_and_campaign_stays_bit_identical(
            self, tmp_path, monkeypatch):
        """The tentpole acceptance test: two pool workers, one hard-dies
        (os._exit, no cleanup) right after its first claim; the reaper
        expires the orphaned lease, the survivor (or the respawn) retakes
        the point, and the finished campaign's entries are bit-identical
        to an in-process ``run_campaign`` of the same spec."""
        flag = tmp_path / "died.flag"
        monkeypatch.setenv(INJECT_ENV, json.dumps(
            {"worker": "svc-w1", "die_after_claims": 1, "flag": str(flag)}))
        # The dead worker's lease must lapse before anyone retakes its
        # point; renewals every 0.2 s keep the survivors' 1 s leases.
        config = quick_config(tmp_path, workers=2, lease_seconds=1.0)
        with CampaignService(config) as svc:
            wait_for(lambda: svc.live_workers() == 2, timeout=30,
                     what="worker pool")
            code, doc, _ = post(f"{svc.url}/campaigns", SPEC)
            assert code == 201
            cid = doc["id"]
            record = wait_for(
                lambda: (lambda d: d if d and d.get("status") in
                         ("done", "failed") else None)(
                             get(f"{svc.url}/campaigns/{cid}")[1]),
                what="campaign to finish")
            assert record["status"] == "done", record
            assert flag.exists()  # the injected death really happened
            assert svc.lease_expirations >= 1
            assert svc.worker_respawns >= 1
            # A requeued shard remembers why.
            requeued = [p for p in record["points"].values()
                        if p.get("requeued") == "lease_expired"]
            assert requeued
            _, results = get(f"{svc.url}/campaigns/{cid}/results")
            names = {e.name for e in svc.events.buffer}
            assert {"campaign_submitted", "campaign_activated",
                    "lease_reaped", "campaign_completed"} <= names
            _, metrics = get(f"{svc.url}/metrics")
            samples = dict(line.rsplit(" ", 1)
                           for line in metrics.splitlines()
                           if line and not line.startswith("#"))
            assert float(
                samples["repro_service_lease_expirations_total"]) >= 1
            assert float(
                samples["repro_service_worker_respawns_total"]) >= 1
        reference = run_campaign(configs_from_spec(SPEC), jobs=1)
        assert {k: entry_fingerprint(v)
                for k, v in results["results"].items()} \
            == {k: entry_fingerprint(v) for k, v in reference.items()}


def claim(svc, worker):
    return post(f"{svc.url}/claim", {"worker": worker})[1]


class TestClaimScheduling:
    """``/claim`` schedules and leases in one step under the daemon's
    lock, so racing claims never share a point, with no offer
    bookkeeping and no timers."""

    def test_racing_claims_get_an_exact_quota(self, tmp_path):
        """Four racers per round (more than the cores) on a 16-point
        campaign: each racer leases its own point, no point is leased
        twice across the rounds, and the completions finish the
        campaign."""
        spec = {**SPEC, "workloads": ["astar", "perlbench", "bfs", "sssp"],
                "engines": ["baseline", "phelps", "br", "perfbp"]}
        config = quick_config(tmp_path, lease_seconds=60.0)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # interleave the racers finely
        leased = []
        try:
            with CampaignService(config) as svc:
                cid = activate(svc, spec)
                for round_no in range(4):
                    won = self._race(svc, round_no)
                    assert {a["campaign"] for a in won} == {cid}
                    leased += [a["key"] for a in won]
                    for a in won:
                        code, doc, _ = post(f"{svc.url}/complete", {
                            "campaign": cid, "worker": a["worker"],
                            "key": a["key"], "entry": {
                                "cycles": 1, "config": a["config"]}})
                        assert (code, doc["accepted"]) == (200, True)
                assert len(leased) == len(set(leased)) == 16
                assert set(leased) == set(svc._tables[cid].keys)
                assert svc.state.get(cid).status == "done"
        finally:
            sys.setswitchinterval(switch)

    @staticmethod
    def _race(svc, round_no):
        barrier = threading.Barrier(4)
        answers = {}

        def race(worker):
            barrier.wait()
            answers[worker] = claim(svc, worker)

        threads = [threading.Thread(target=race, args=(f"r{round_no}.{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), round_no
        won = [{**a, "worker": w} for w, a in answers.items() if a["key"]]
        assert len(won) == 4, (round_no, answers)
        assert len({a["key"] for a in won}) == 4, (round_no, answers)
        return won

    def test_a_held_lease_is_answered_before_fair_order(self, tmp_path):
        """A repeated claim returns the lease the worker holds in any
        campaign, even when a higher-priority campaign now has a pending
        point."""
        with CampaignService(quick_config(tmp_path)) as svc:
            first = activate(svc)
            held = claim(svc, "w1")
            second = activate(svc, {**SPEC, "priority": 5})
            # The new campaign outranks the first for fresh claims.
            assert claim(svc, "w2")["campaign"] == second
            again = claim(svc, "w1")
            assert (again["campaign"], again["key"]) == (first, held["key"])
            assert svc.state.get(first).leased == 1


class TestRecovery:
    def test_restarted_daemon_adopts_journaled_campaigns(self, tmp_path):
        config = quick_config(tmp_path)  # workers=0: nothing executes
        with CampaignService(config) as svc:
            _, doc, _ = post(f"{svc.url}/campaigns", SPEC)
            cid = doc["id"]
            wait_for(lambda: get(f"{svc.url}/campaigns/{cid}")[1].get(
                "status") == "active", timeout=30, what="activation")
        with CampaignService(quick_config(tmp_path)) as svc2:
            status, record = get(f"{svc2.url}/campaigns/{cid}")
            assert status == 200
            assert record["status"] == "active"
            assert record["total_points"] == 4
            assert record["spec"]["workloads"] == SPEC["workloads"]
            # A new submission continues the id sequence past the
            # adopted one instead of reusing it.
            _, doc2, _ = post(f"{svc2.url}/campaigns", SPEC)
            assert doc2["id"] != cid

    def test_a_tenant_in_an_older_manifest_is_ignored(self, tmp_path):
        """A campaign journaled by a multi-tenant daemon (``tenant`` in
        the manifest's ``service`` metadata) is recovered, and keeps its
        priority and id."""
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = activate(svc, {**SPEC, "priority": 3})
            journal = CampaignJournal(svc.state.get(cid).dir)
        manifest = journal.load_manifest()
        manifest["spec"]["service"]["tenant"] = "alice"
        journal.write_manifest(manifest)
        with CampaignService(quick_config(tmp_path)) as svc2:
            record = svc2.state.get(cid).to_dict()
            assert (record["status"], record["priority"],
                    record["total_points"]) == ("active", 3, 4)
            assert "tenant" not in record
            assert claim(svc2, "w1")["campaign"] == cid


def activate(svc, spec=SPEC):
    _, doc, _ = post(f"{svc.url}/campaigns", spec)
    cid = doc["id"]
    wait_for(lambda: svc.state.get(cid).status == "active", timeout=30,
             what="activation")
    return cid


class TestPointTable:
    def test_renew_never_resurrects_a_reaped_lease(self, tmp_path):
        """~200 renew-from-the-old-owner / reap pairs race on expired
        leases (the reaper's clock is an hour ahead; nothing sleeps).
        Whichever wins, a point the reaper reports as lease_expired ends
        up pending one generation later — never running under the owner
        it just blamed, in memory or on disk."""
        config = quick_config(tmp_path, lease_seconds=60.0,
                              reap_interval=3600.0, poison_workers=0)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # interleave the pair finely
        try:
            self._race_renew_against_reap(config)
        finally:
            sys.setswitchinterval(switch)

    @staticmethod
    def _race_renew_against_reap(config):
        with CampaignService(config) as svc:
            cid = activate(svc, {**SPEC, "workloads": ["astar"],
                                 "engines": ["baseline"]})
            table = svc._tables[cid]
            for round_no in range(200):
                worker = f"w{round_no}"
                status, answer = svc._lease_rpc("claim", {"worker": worker})
                assert status == 200 and answer["key"], answer
                key = answer["key"]
                generation = answer["shard"]["generation"]
                barrier = threading.Barrier(2)
                out = {}

                def renew():
                    barrier.wait()
                    out["renew"] = svc._lease_rpc(
                        "renew", {"campaign": cid, "worker": worker,
                                  "key": key})[0]

                def reap():
                    barrier.wait()
                    out["reaped"] = svc._reap(now=time.time() + 3600)

                threads = [threading.Thread(target=renew),
                           threading.Thread(target=reap)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads), round_no
                assert (cid, key, "lease_expired", worker) \
                    in out["reaped"], round_no
                assert out["renew"] in (200, 409)
                for shard in (table.read_point(key),
                              CampaignJournal(table.root).read_point(key)):
                    assert shard["status"] == "pending", (round_no, shard)
                    assert shard.get("worker") is None
                    assert shard["generation"] == generation + 1
            assert svc.lease_expirations == 200

    def test_daemon_reads_no_shard_after_activation(self, tmp_path,
                                                    monkeypatch):
        """Once a campaign is active the daemon serves counts, claims
        (scheduling included), completions, audits, results and its
        terminal status from
        memory: a booby-trapped ``read_point`` never fires while the
        campaign runs to completion (audits included)."""
        def trap(self, key):
            raise AssertionError(f"daemon read shard {key} after start-up")

        config = quick_config(tmp_path, audit_rate=1.0)
        with CampaignService(config) as svc:
            cid = activate(svc)
            monkeypatch.setattr(CampaignJournal, "read_point", trap)
            options = dict(poll_interval=0.05, heartbeat_interval=0.2,
                           max_idle_polls=20, log=False)
            # Two workers: each audit must run on the other one.
            reports = {}
            threads = [threading.Thread(
                target=lambda w=w: reports.update({w: work_service(
                    svc.url, WorkerOptions(worker_id=w, **options))}))
                for w in ("r1", "r2")]
            for t in threads:
                t.start()
            record = wait_for(
                lambda: (lambda d: d if d["status"] in ("done", "failed")
                         else None)(get(f"{svc.url}/campaigns/{cid}")[1]),
                timeout=120, what="campaign to finish")
            svc.drain(drain_seconds=0)   # /claim: shutdown
            for t in threads:
                t.join(timeout=60)
            assert record["status"] == "done", record
            assert svc.integrity.counters()["audits_passed"] == 4
            _, results = get(f"{svc.url}/campaigns/{cid}/results")
            assert len(results["results"]) == 4
            monkeypatch.undo()
        reference = run_campaign(configs_from_spec(SPEC), jobs=1)
        assert {k: entry_fingerprint(v)
                for k, v in results["results"].items()} \
            == {k: entry_fingerprint(v) for k, v in reference.items()}

    def test_daemon_journal_resumes_with_sweep(self, tmp_path):
        """The write-through shards are the same files a sweep journal
        holds: a daemon campaign stopped half-way (one point done, one
        still leased) finishes under ``sweep --resume`` bit-identical to
        a clean run."""
        from repro.cli import main

        with CampaignService(quick_config(tmp_path)) as svc:
            cid = activate(svc)
            svc._lease_rpc("claim", {"worker": "w1"})
            work_service(svc.url, WorkerOptions(
                worker_id="w2", max_points=1, poll_interval=0.05,
                log=False))
            directory = svc.state.get(cid).dir
        counts = statuses(CampaignJournal(directory))
        assert sorted(counts.values()) == ["done", "pending", "pending",
                                           "running"]
        assert main(["sweep", "--resume", directory, "-q", "-j", "1"]) == 0
        journal = CampaignJournal(directory)
        reference = run_campaign(configs_from_spec(SPEC), jobs=1)
        assert {k: entry_fingerprint(journal.read_point(k)["entry"])
                for k in statuses(journal)} \
            == {k: entry_fingerprint(v) for k, v in reference.items()}


class TestOneEngine:
    """The local sweep and the daemon run points through the same point
    table, so they leave the same shards and the same views."""

    def test_local_and_served_shards_match(self, tmp_path):
        """The same 2-point spec through ``run_campaign`` with a journal
        and through a daemon with one worker: each pair of done shards
        has the same fields and the same entry fingerprint, and only
        the worker ids differ."""
        spec = {"workloads": ["astar"], "engines": ["baseline", "phelps"],
                "instructions": 1500}
        local = CampaignJournal(tmp_path / "local")
        run_campaign(configs_from_spec(spec), journal=local, jobs=2)
        with CampaignService(quick_config(tmp_path, cache_dir=None)) as svc:
            cid = activate(svc, spec)
            work_service(svc.url, WorkerOptions(
                worker_id="w1", max_points=2, poll_interval=0.05,
                heartbeat_interval=0.2, log=False))
            served = CampaignJournal(svc.state.get(cid).dir)
        keys = [c.cache_key() for c in configs_from_spec(spec)]
        for key in keys:
            mine, theirs = local.read_point(key), served.read_point(key)
            assert mine["status"] == theirs["status"] == "done"
            assert mine.keys() == theirs.keys(), key
            assert entry_fingerprint(mine["entry"]) \
                == entry_fingerprint(theirs["entry"])
            assert {f: v for f, v in mine.items()
                    if f not in ("entry", "completed_by")} \
                == {f: v for f, v in theirs.items()
                    if f not in ("entry", "completed_by")}
            assert theirs["completed_by"] == "w1"
