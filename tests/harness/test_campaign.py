"""Campaign journal: write-ahead statuses, quarantine, kill-and-resume.

The headline property: a sweep SIGKILLed at an arbitrary point and then resumed produces results
bit-identical to an uninterrupted sweep, with zero orphaned ``running``
journal entries left behind.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.core import CoreConfig
from repro.harness import (CampaignJournal, RunCache, RunConfig,
                           activate, entry_fingerprint, run_campaign)
from repro.obs.live import read_campaign
from repro.phelps import PhelpsConfig

N = 1_500
REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _configs(n=N):
    return [RunConfig(workload=w, engine=e, max_instructions=n)
            for w in ("astar", "perlbench") for e in ("baseline", "phelps")]


def _statuses(root):
    """``key -> status`` for every point the manifest names, read-only."""
    return {k: p["status"] for k, p in read_campaign(root)["points"].items()}


def _reference_fingerprints(configs):
    entries = run_campaign(configs, jobs=1)
    return {k: entry_fingerprint(v) for k, v in entries.items()}


def test_journal_roundtrip(tmp_path):
    journal = CampaignJournal(tmp_path / "camp")
    configs = _configs()
    keys = [c.cache_key() for c in configs]
    manifest, shards = journal.prepare(configs, spec={"note": "x"})
    assert [p["key"] for p in manifest["points"]] == keys
    assert manifest["spec"] == {"note": "x"}
    assert {k: s["status"] for k, s in shards.items()} \
        == dict.fromkeys(keys, "pending")
    assert _statuses(journal.root) == dict.fromkeys(keys, "pending")

    table, _ = activate(journal, configs)
    table.claim(keys[0], "w1")
    table.complete(keys[0], "w1", {"ipc": 1.0})
    doc = journal.read_point(keys[0])
    assert doc["status"] == "done" and doc["attempts"] == 1
    table.claim(keys[1], "w1")

    # Activation again is the resume path: done points untouched, a
    # crashed "running" point requeues to pending with provenance.
    table, _ = activate(journal, configs)
    assert journal.read_point(keys[0])["status"] == "done"
    requeued = journal.read_point(keys[1])
    assert requeued["status"] == "pending"
    assert requeued["requeued"] == "resumed" and requeued["attempts"] == 1
    assert len(journal.load_manifest()["points"]) == len(configs)


def test_campaign_completes_then_resume_skips_all(tmp_path):
    configs = _configs()
    journal = CampaignJournal(tmp_path / "camp")
    cache = RunCache(tmp_path / "cache")
    entries = run_campaign(configs, journal=journal, cache=cache, jobs=1)
    assert set(_statuses(journal.root).values()) == {"done"}
    assert all(c.cache_key() in entries for c in configs)

    # Second pass: everything served from the journal, nothing simulated.
    events = []
    again = run_campaign(configs, journal=journal, jobs=1,
                         progress=events.append)
    assert events == []
    assert {k: entry_fingerprint(v) for k, v in again.items()} \
        == {k: entry_fingerprint(v) for k, v in entries.items()}


def test_watch_shows_heartbeats_of_a_local_sweep(tmp_path, capsys):
    """A local sweep's heartbeats land in its point shards, so ``repro
    watch DIR --once`` shows a running point's progress mid-run — no
    side file and no server — and the finished campaign afterwards."""
    camp = tmp_path / "camp"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    sweep = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", "-w", "astar", "sssp",
         "-e", "baseline", "phelps", "-n", "20000", "--jobs", "2",
         "--manifest", str(camp), "--heartbeat-interval", "0.2", "-q"],
        cwd=REPO, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while True:   # until a frame shows a running point's progress
            assert sweep.poll() is None, "sweep ended before a heartbeat"
            assert time.monotonic() < deadline, "no heartbeat seen"
            time.sleep(0.05)
            if not (camp / "campaign.json").exists():
                continue
            capsys.readouterr()
            assert main(["watch", str(camp), "--once"]) == 0
            rows = [line.split() for line in
                    capsys.readouterr().out.splitlines()]
            live = [r for r in rows if len(r) > 2 and r[1] == "running"
                    and r[2].endswith("%")]
            if live:
                break
        assert sweep.wait(timeout=300) == 0
    finally:
        if sweep.poll() is None:
            sweep.kill()
            sweep.wait()
    capsys.readouterr()
    assert main(["watch", str(camp), "--once"]) == 0
    assert "campaign: 4/4 finished" in capsys.readouterr().out


def test_truncated_shard_requeues_only_that_point(tmp_path):
    configs = _configs()
    journal = CampaignJournal(tmp_path / "camp")
    run_campaign(configs, journal=journal, jobs=1)

    victim = configs[2].cache_key()
    path = journal.point_path(victim)
    path.write_text(path.read_text()[:37])  # torn write: invalid JSON

    events = []
    entries = run_campaign(configs, journal=journal, jobs=1,
                           progress=events.append)
    # Exactly the damaged point recomputed; the shard was quarantined,
    # not deleted, and the journal healed back to all-done.
    assert [e.config.cache_key() for e in events if e.kind == "start"] \
        == [victim]
    assert journal.quarantined == 1
    assert list((tmp_path / "camp").glob("*.corrupt"))
    assert set(_statuses(journal.root).values()) == {"done"}
    assert len(entries) == len(configs)


def _spawn_sweep(camp, cache, n, jobs=2):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep",
         "-w", "astar", "perlbench", "-e", "baseline", "phelps",
         "-n", str(n), "--jobs", str(jobs),
         "--manifest", str(camp), "--cache-dir", str(cache)],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _wait_for_journal_activity(camp, proc, timeout=60.0):
    """Block until at least one point shard exists (the sweep is mid-flight)."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        if proc.poll() is not None:
            return  # finished before we could interfere — still valid
        shards = [p for p in camp.glob("*.json") if p.name != "campaign.json"]
        for p in shards:
            try:
                if json.loads(p.read_text())["status"] in ("running", "done"):
                    return
            except (ValueError, KeyError):
                continue
        time.sleep(0.02)
    pytest.fail("sweep subprocess never started journaling")


def test_sigkill_then_resume_bit_identical(tmp_path):
    """The acceptance property: SIGKILL at a seeded-random point, resume,
    results bit-identical to an uninterrupted sweep."""
    n = 20_000
    camp, cache = tmp_path / "camp", tmp_path / "cache"
    proc = _spawn_sweep(camp, cache, n)
    _wait_for_journal_activity(camp, proc)
    # Seeded delay: the kill lands at a reproducible-ish arbitrary point
    # mid-campaign rather than always at the first journal write.
    time.sleep(random.Random(1234).uniform(0.05, 0.8))
    if proc.poll() is None:
        proc.kill()  # SIGKILL: no handlers, no flushing, a true crash
    proc.wait(timeout=30)
    proc.stdout.close(), proc.stderr.close()

    journal = CampaignJournal(camp)
    assert journal.load_manifest() is not None  # manifest survived the kill

    # Resume through the CLI path and verify the journal converged.
    assert main(["sweep", "--resume", str(camp), "--jobs", "2"]) == 0
    statuses = _statuses(camp)
    assert set(statuses.values()) == {"done"}, statuses

    configs = _configs(n)
    reference = _reference_fingerprints(configs)
    for config in configs:
        key = config.cache_key()
        entry = journal.read_point(key)["entry"]
        assert entry_fingerprint(entry) == reference[key], config


def test_sigint_exits_130_with_consistent_journal(tmp_path):
    n = 60_000
    camp, cache = tmp_path / "camp", tmp_path / "cache"
    proc = _spawn_sweep(camp, cache, n)
    _wait_for_journal_activity(camp, proc)
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    rc = proc.wait(timeout=120)
    stderr = proc.stderr.read().decode()
    proc.stdout.close(), proc.stderr.close()
    if rc == 0:
        pytest.skip("sweep finished before SIGINT landed")
    assert rc == 130, stderr

    # Graceful stop: every shard parses, completed work is flushed as
    # "done" with a full entry, nothing is torn, and the manifest records
    # the interruption.
    journal = CampaignJournal(camp)
    manifest = journal.load_manifest()
    assert manifest is not None
    for point in manifest["points"]:
        doc = journal.read_point(point["key"])
        assert doc is not None and doc["status"] in ("pending", "running",
                                                     "done")
        if doc["status"] == "done":
            assert doc["entry"]["cycles"] > 0
    assert journal.quarantined == 0


@pytest.mark.parametrize("override", [["-w", "bfs"], ["-e", "phelps"],
                                      ["-n", "600"]])
def test_resume_refuses_point_overrides(tmp_path, capsys, override):
    """``--resume`` takes its points from the manifest spec alone: an
    override would run (and append) points the spec does not name, and
    ``repro audit`` would then silently skip them."""
    camp = tmp_path / "camp"
    assert main(["sweep", "-w", "astar", "-e", "baseline", "-n", "500",
                 "--manifest", str(camp), "-j", "1", "-q"]) == 0
    before = _statuses(camp)
    assert main(["sweep", "--resume", str(camp), *override, "-j", "1",
                 "-q"]) == 2
    assert "--resume" in capsys.readouterr().err
    assert _statuses(camp) == before


def test_points_spec_resumes_and_audits(tmp_path, capsys):
    """A ``{"points": [...]}`` journal (the figure benchmarks' form, with
    core and Phelps overrides) resumes and audits through the CLI."""
    configs = [RunConfig(workload="astar", max_instructions=500,
                         core=CoreConfig(pipeline_stages=19)),
               RunConfig(workload="astar", engine="phelps",
                         max_instructions=500,
                         phelps_config=PhelpsConfig().ablation_b1())]
    spec = {"points": [c.to_dict() for c in configs]}
    camp = tmp_path / "camp"
    run_campaign(configs[:1], journal=CampaignJournal(camp), spec=spec,
                 jobs=1)
    assert main(["sweep", "--resume", str(camp), "-j", "1", "-q"]) == 0
    journal = CampaignJournal(camp)
    assert _statuses(camp) == {c.cache_key(): "done" for c in configs}
    reference = _reference_fingerprints(configs)
    for key, fingerprint in reference.items():
        assert entry_fingerprint(journal.read_point(key)["entry"]) \
            == fingerprint
    assert main(["audit", str(camp), "--rate", "1.0", "-q"]) == 0
    assert "audit: 2 re-executed, 0 mismatched" in capsys.readouterr().out


def test_sweep_cache_dir_shards_are_named_by_path_for(tmp_path):
    """``sweep --cache-dir`` across two workers writes one shard per
    point, each exactly where ``RunCache.path_for`` looks for it."""
    cache_dir = tmp_path / "shards"
    assert main(["sweep", "-w", "astar", "perlbench", "-e", "baseline",
                 "phelps", "-n", "5000", "--jobs", "2", "--cache-dir",
                 str(cache_dir), "-q"]) == 0
    cache = RunCache(cache_dir)
    configs = _configs(5000)
    assert sorted(cache_dir.glob("*.json")) \
        == sorted(cache.path_for(c) for c in configs)
    for config in configs:
        assert cache.get(config)["cycles"] > 0
