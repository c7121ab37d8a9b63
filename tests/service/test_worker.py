"""Worker-loop contracts: draining, concurrency, cache reuse, crash plan.

Every worker talks to a real in-process daemon over HTTP (the only
transport).  The bit-identity tests run real (tiny) simulations: the
worker path and the in-process ``run_campaign`` path must publish
byte-equal entries for the same spec, because that is the acceptance bar
for the whole service.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.core import CoreConfig
from repro.harness.campaign import (CampaignJournal, entry_fingerprint,
                                    run_campaign)
from repro.harness.runcache import RunCache
from repro.harness.simulator import RunConfig
from repro.phelps import PhelpsConfig
from repro.service.daemon import CampaignService
from repro.service.queue import configs_from_spec
from repro.service.worker import (INJECT_ENV, RemoteJournal, WorkerOptions,
                                  work_service)

from tests.service.test_daemon import post, quick_config, statuses, wait_for

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

SPEC = {"workloads": ["astar", "perlbench"], "engines": ["baseline"],
        "instructions": 1500}


@pytest.fixture
def daemon(tmp_path):
    # No daemon-side cache: every point reaches a worker.
    with CampaignService(quick_config(tmp_path, cache_dir=None,
                                      lease_seconds=30.0)) as svc:
        yield svc


def submit(svc, spec=SPEC):
    _, doc, _ = post(f"{svc.url}/campaigns", spec)
    cid = doc["id"]
    wait_for(lambda: svc.state.get(cid).status == "active", timeout=30,
             what="activation")
    return CampaignJournal(svc.state.get(cid).dir)


def options(worker_id, **overrides):
    kwargs = dict(worker_id=worker_id, poll_interval=0.05,
                  heartbeat_interval=0.2, max_idle_polls=4, log=False)
    kwargs.update(overrides)
    return WorkerOptions(**kwargs)


def fingerprints(journal):
    out = {}
    for key, status in statuses(journal).items():
        assert status == "done", (key, status)
        out[key] = entry_fingerprint(journal.read_point(key)["entry"])
    return out


class TestDrain:
    def test_worker_drains_campaign_bit_identical_to_sweep(self, daemon):
        journal = submit(daemon)
        report = work_service(daemon.url, options("w1"))
        assert report.claimed == report.completed == 2
        reference = run_campaign(configs_from_spec(SPEC), jobs=1)
        assert fingerprints(journal) == {
            k: entry_fingerprint(v) for k, v in reference.items()}
        # Completion provenance survives in the shards.
        for key in statuses(journal):
            doc = journal.read_point(key)
            assert doc["completed_by"] == "w1"
            assert doc["source"] == "worker"

    def test_points_spec_with_overrides_matches_local_campaign(self,
                                                               daemon):
        """Per-point core and Phelps overrides travel as RunConfig dicts:
        the served campaign is fingerprint-equal to local run_campaign."""
        configs = [RunConfig(workload="astar", max_instructions=1500,
                             core=CoreConfig(pipeline_stages=19)),
                   RunConfig(workload="astar", engine="phelps",
                             max_instructions=1500,
                             phelps_config=PhelpsConfig().ablation_b1())]
        spec = {"points": [c.to_dict() for c in configs]}
        journal = submit(daemon, spec)
        report = work_service(daemon.url, options("w1"))
        assert report.claimed == report.completed == 2
        reference = run_campaign(configs, jobs=1)
        assert set(reference) == {c.cache_key() for c in configs}
        assert fingerprints(journal) == {
            k: entry_fingerprint(v) for k, v in reference.items()}

    def test_cache_hits_short_circuit_simulation(self, daemon, tmp_path):
        cache = RunCache(tmp_path / "wcache")
        warm = run_campaign(configs_from_spec(SPEC), cache=cache, jobs=1)
        journal = submit(daemon)
        report = work_service(daemon.url, options(
            "w1", cache_dir=str(tmp_path / "wcache")))
        assert report.cache_hits == 2
        assert fingerprints(journal) == {
            k: entry_fingerprint(v) for k, v in warm.items()}
        doc = journal.read_point(next(iter(statuses(journal))))
        assert doc["source"] == "cache"

    def test_max_points_bounds_one_worker(self, daemon):
        journal = submit(daemon)
        report = work_service(daemon.url, options("w1", max_points=1))
        assert report.claimed == 1
        assert sorted(statuses(journal).values()) == ["done", "pending"]


class TestConcurrency:
    def test_concurrent_workers_share_without_duplication(self, daemon):
        spec = {"workloads": ["astar", "perlbench", "bfs", "sssp"],
                "engines": ["baseline"], "instructions": 1500}
        journal = submit(daemon, spec)
        reports = {}

        def drain(worker_id):
            reports[worker_id] = work_service(daemon.url, options(worker_id))

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        # Every point done exactly once; the sum over workers covers the
        # campaign with no double completion.
        assert sum(r.completed for r in reports.values()) == 4
        assert sum(r.claimed for r in reports.values()) == 4
        assert all(s == "done" for s in statuses(journal).values())
        completers = {journal.read_point(k)["completed_by"]
                      for k in statuses(journal)}
        assert completers <= {"w0", "w1", "w2"}
        reference = run_campaign(configs_from_spec(spec), jobs=1)
        assert fingerprints(journal) == {
            k: entry_fingerprint(v) for k, v in reference.items()}


class TestInjection:
    def test_injected_death_leaves_a_leased_point_behind(self, daemon,
                                                         tmp_path):
        """The CI crash plan: ``repro worker --connect`` with a matching
        ``REPRO_SERVICE_INJECT`` hard-exits 37 right after its first
        claim, leaving that point running under a lease the reaper must
        later expire."""
        journal = submit(daemon)
        flag = tmp_path / "died.flag"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   [os.path.abspath("src"),
                    os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep),
               INJECT_ENV: json.dumps({"worker": "victim",
                                       "die_after_claims": 1,
                                       "flag": str(flag)})}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "worker", "--connect",
             daemon.url, "--id", "victim", "--quiet"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 37, proc.stderr
        assert flag.exists()
        states = statuses(journal)
        assert sorted(states.values()) == ["pending", "running"]
        running = next(k for k, s in states.items() if s == "running")
        doc = journal.read_point(running)
        assert doc["worker"] == "victim"
        assert doc["lease_expires_unix"] > 0

    def test_plan_for_other_worker_is_inert(self, daemon, monkeypatch):
        journal = submit(daemon)
        monkeypatch.setenv(INJECT_ENV, json.dumps(
            {"worker": "somebody-else", "die_after_claims": 1}))
        report = work_service(daemon.url, options("w1"))
        assert report.completed == 2
        assert sorted(statuses(journal).values()) == ["done", "done"]


class _ScriptedClient:
    """Answers ``/claim`` with one canned document, records the rest."""

    def __init__(self, claim):
        self.claim = claim
        self.posts = []

    def post(self, path, body):
        self.posts.append((path, body))
        return self.claim if path == "/claim" else {"ok": True}


class TestClaimRefusal:
    @pytest.mark.parametrize("config", [
        RunConfig(workload="bfs").to_dict(),           # mints another key
        {"workload": "astar", "rob_size": 316},        # does not rebuild
    ])
    def test_config_that_does_not_mint_the_key_is_failed(self, config):
        key = RunConfig(workload="astar").cache_key()
        client = _ScriptedClient({"campaign": "c0001", "key": key,
                                  "shard": {}, "config": config})
        remote = RemoteJournal(client, "w1", log=lambda msg: None)
        assert remote.claim() is None
        path, body = client.posts[-1]
        assert path == "/fail" and body["key"] == key
        assert body["campaign"] == "c0001"
        assert body["generation"] == 0     # the claimed generation fences it
        assert body["error"].startswith("ClaimRefused")
        assert not remote.held

    def test_matching_config_is_run(self):
        config = RunConfig(workload="astar", core=CoreConfig(rob_size=320))
        client = _ScriptedClient({"campaign": "c0001",
                                  "key": config.cache_key(), "shard": {},
                                  "config": config.to_dict()})
        remote = RemoteJournal(client, "w1", log=lambda msg: None)
        key, got, _ = remote.claim()
        assert key == config.cache_key() and got == config
        assert client.posts == [("/claim", {"worker": "w1"})]
