"""The local campaign engine: determinism, progress, timeout and retry.

``run_campaign`` drives a point table with local worker processes
(``repro.harness.parallel.run_points``); these tests pin what the old
process-pool runner promised, now stated against the table and its
journal shards.
"""

import time

import pytest

import repro.harness.parallel as parallel
from repro.harness import (CampaignJournal, Progress, SimulationFailed,
                           entry_fingerprint, run_campaign)
from repro.harness.simulator import RunConfig, simulate

N = 1_500  # instructions per point: enough pipeline activity, fast suite


def _configs():
    return [
        RunConfig(workload="astar", engine="baseline", max_instructions=N),
        RunConfig(workload="astar", engine="phelps", max_instructions=N),
        RunConfig(workload="perlbench", engine="baseline", max_instructions=N),
        # observe=True exercises the obs-drop path: the hub holds closures
        # over live cores and must not cross the process boundary.
        RunConfig(workload="bfs", engine="br", max_instructions=N,
                  observe=True),
    ]


def _fingerprints(entries):
    return {k: entry_fingerprint(v) for k, v in entries.items()}


def _require_fork():
    if parallel.mp.get_start_method() != "fork":
        pytest.skip("injection requires fork start method")


def test_parallel_matches_serial_bit_identical():
    configs = _configs()
    events = []
    serial = run_campaign(configs, jobs=1)
    fanned = run_campaign(configs, jobs=4, progress=events.append)

    assert set(fanned) == {c.cache_key() for c in configs}
    # Bit-identical result entries, whichever process simulated them.
    assert _fingerprints(fanned) == _fingerprints(serial)
    # observe=True survived the process boundary in serialized form.
    assert fanned[configs[3].cache_key()]["metrics"]

    # Every run announced a start and a done, and done_count reached total.
    assert sum(1 for e in events if e.kind == "start") == len(configs)
    dones = [e for e in events if e.kind == "done"]
    assert len(dones) == len(configs)
    assert max(e.done_count for e in dones) == len(configs)
    assert all(e.total == len(configs) for e in events)


def test_serial_fallback_progress_and_order():
    configs = _configs()[:2]
    events = []
    run_campaign(configs, jobs=1, progress=events.append)
    assert [e.kind for e in events] == ["start", "done", "start", "done"]
    assert [e.config for e in events[::2]] == configs
    assert all(isinstance(e, Progress) for e in events)


def _heartbeats(tmp_path, jobs, monkeypatch):
    """Run two points with a fast heartbeat; every payload renewed into
    the table is recorded as ``(key, payload)``."""
    beats = []
    renew = parallel._Run.beat

    def spy(self, key, worker, payload):
        beats.append((key, payload))
        renew(self, key, worker, payload)

    monkeypatch.setattr(parallel._Run, "beat", spy)
    configs = _configs()[:2]
    entries = run_campaign(configs, journal=CampaignJournal(tmp_path / "j"),
                           jobs=jobs, heartbeat_interval=0.01)
    return configs, beats, entries


@pytest.mark.parametrize("jobs", [1, 2])
def test_heartbeats_stream_from_both_paths(tmp_path, monkeypatch, jobs):
    """The in-process path renews with the same heartbeat shape as the
    pool path, so ``repro watch`` behaves identically at jobs=1."""
    configs, beats, _ = _heartbeats(tmp_path, jobs, monkeypatch)
    assert beats, "no heartbeats arrived"
    assert {k for k, _ in beats} <= {c.cache_key() for c in configs}
    for _, payload in beats:
        assert {"unix", "phase", "cycles", "retired", "instructions",
                "cycles_per_sec", "guard", "halted"} <= payload.keys()
        assert payload["instructions"] == N
        assert 0 < payload["retired"] <= N


@pytest.mark.parametrize("jobs", [1, 2])
def test_heartbeats_do_not_perturb_results(tmp_path, monkeypatch, jobs):
    """Telemetry is out-of-band: entries with heartbeats streaming every
    10 ms are bit-identical to a run with the default cadence."""
    configs, _, with_hb = _heartbeats(tmp_path, jobs, monkeypatch)
    quiet = run_campaign(configs, jobs=jobs)
    assert _fingerprints(with_hb) == _fingerprints(quiet)


def test_empty_and_single_config():
    assert run_campaign([], jobs=8) == {}
    config = RunConfig(workload="astar", max_instructions=N)
    only = run_campaign([config], jobs=8)
    assert only[config.cache_key()]["retired"] >= N


def test_timeout_then_retry_succeeds(tmp_path, monkeypatch):
    """First attempt hangs past the timeout; the retry completes.

    The fake ``simulate`` is installed in the parent and inherited by the
    forked worker; a marker file distinguishes first from second attempt.
    """
    _require_fork()

    def flaky(config, **kwargs):
        marker = tmp_path / f"{config.workload}-{config.engine}"
        if not marker.exists():
            marker.write_text("first attempt hangs")
            time.sleep(60)
        return simulate(config, **kwargs)

    monkeypatch.setattr(parallel, "simulate", flaky)
    # Two configs: a single config would run in-process (jobs is capped
    # at the point count), which has no timeouts.
    configs = [RunConfig(workload="astar", max_instructions=N),
               RunConfig(workload="perlbench", max_instructions=N)]
    events = []
    start = time.time()
    entries = run_campaign(configs, jobs=2, timeout=1.0, retries=1,
                           progress=events.append)
    assert time.time() - start < 40  # terminated, not slept out
    assert all(e["retired"] >= N for e in entries.values())
    kinds = [e.kind for e in events]
    assert kinds.count("retry") == 2 and kinds.count("done") == 2


def test_attempts_and_last_error_surfaced(tmp_path, monkeypatch):
    """The retried point's shard carries its provenance; the clean
    point's stays pristine."""
    _require_fork()

    def flaky(config, **kwargs):
        marker = tmp_path / config.workload
        if config.workload == "astar" and not marker.exists():
            marker.write_text("x")
            raise RuntimeError("transient fault")
        return simulate(config, **kwargs)

    monkeypatch.setattr(parallel, "simulate", flaky)
    configs = [RunConfig(workload="astar", max_instructions=N),
               RunConfig(workload="perlbench", max_instructions=N)]
    journal = CampaignJournal(tmp_path / "camp")
    run_campaign(configs, journal=journal, jobs=2, retries=1)
    retried, clean = (journal.read_point(c.cache_key()) for c in configs)
    assert retried["attempts_taken"] == 2
    assert "transient fault" in retried["last_error"]
    assert retried["requeued"] == "retry" and retried["generation"] == 1
    assert retried["failed_workers"] == [retried["failed_by"]]
    assert clean["attempts_taken"] == 1 and "last_error" not in clean


def test_serial_results_default_provenance(tmp_path):
    config = RunConfig(workload="astar", max_instructions=N)
    journal = CampaignJournal(tmp_path / "camp")
    run_campaign([config], journal=journal, jobs=1)
    shard = journal.read_point(config.cache_key())
    assert shard["attempts_taken"] == 1 and "last_error" not in shard
    assert shard["completed_by"] == "local-1"


def test_all_attempts_fail_raises(tmp_path, monkeypatch):
    _require_fork()

    def boom(config, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(parallel, "simulate", boom)
    configs = [RunConfig(workload="astar", max_instructions=N),
               RunConfig(workload="perlbench", max_instructions=N)]
    journal = CampaignJournal(tmp_path / "camp")
    events = []
    with pytest.raises(SimulationFailed) as exc:
        run_campaign(configs, journal=journal, jobs=2, retries=1,
                     progress=events.append)
    failures = exc.value.failures
    assert [i for i, _, _ in failures] == [0, 1]
    assert all("injected failure" in err for _, _, err in failures)
    # Each config: start, retry, failed.
    assert sum(1 for e in events if e.kind == "failed") == 2
    assert sum(1 for e in events if e.kind == "retry") == 2
    for config in configs:
        shard = journal.read_point(config.cache_key())
        assert shard["status"] == "failed" and shard["attempts"] == 2
        assert "injected failure" in shard["error"]


def test_each_completion_is_journaled_at_once(tmp_path):
    """A point's shard is ``done`` before its progress event fires —
    durable state never waits for the end of the sweep."""
    configs = _configs()[:3]
    journal = CampaignJournal(tmp_path / "camp")
    seen = []

    def check(p):
        if p.kind == "done":
            shard = journal.read_point(p.config.cache_key())
            seen.append(shard["status"])
            assert shard["entry"]["cycles"] > 0

    run_campaign(configs, journal=journal, jobs=2, progress=check)
    assert seen == ["done"] * 3


def test_serial_interrupt_raises_and_keeps_done(tmp_path):
    import os
    import signal

    from repro.harness import SweepInterrupted

    def kick(p):
        # Deliver a real SIGINT after the first run completes; the guard
        # handler converts it to a flag, and the serial loop raises
        # SweepInterrupted before claiming the next point.
        if p.kind == "done" and p.done_count == 1:
            os.kill(os.getpid(), signal.SIGINT)

    configs = _configs()[:3]
    journal = CampaignJournal(tmp_path / "camp")
    with pytest.raises(SweepInterrupted) as exc:
        run_campaign(configs, journal=journal, jobs=1, progress=kick)
    assert exc.value.done == 1 and exc.value.total == 3
    # The completed run was flushed before raising; the rest are pending,
    # and the manifest records the interruption.
    statuses = [journal.read_point(c.cache_key())["status"] for c in configs]
    assert statuses == ["done", "pending", "pending"]
    [record] = journal.load_manifest()["interruptions"]
    assert (record["done"], record["total"]) == (1, 3)
