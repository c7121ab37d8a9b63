"""simulate_many: determinism, ordering, progress, timeout and retry."""

import dataclasses
import time

import pytest

import repro.harness.parallel as parallel
from repro.harness import Progress, SimulationFailed, simulate_many
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


def test_parallel_matches_serial_bit_identical():
    configs = _configs()
    events = []
    serial = simulate_many(configs, jobs=1)
    fanned = simulate_many(configs, jobs=4, progress=events.append)

    for cfg, s, p in zip(configs, serial, fanned):
        # Results come back in input order ...
        assert p.config == cfg
        # ... with bit-identical stats (full dataclass equality).
        assert p.stats == s.stats, cfg
        # Workers drop the unpicklable hub; its data is already folded
        # into stats.metrics / stats.epochs.
        assert p.obs is None
    assert fanned[3].stats.metrics  # observe=True survived serialization

    # Every run announced a start and a done, and done_count reached total.
    assert sum(1 for e in events if e.kind == "start") == len(configs)
    dones = [e for e in events if e.kind == "done"]
    assert len(dones) == len(configs)
    assert max(e.done_count for e in dones) == len(configs)
    assert all(e.total == len(configs) for e in events)


def test_serial_fallback_progress_and_order():
    configs = _configs()[:2]
    events = []
    results = simulate_many(configs, jobs=1, progress=events.append)
    assert [r.config for r in results] == configs
    assert [e.kind for e in events] == ["start", "done", "start", "done"]
    # The serial path keeps the hub (useful in-process).
    assert all(isinstance(e, Progress) for e in events)


def _collect_heartbeats(jobs):
    configs = _configs()[:2]
    beats = []
    results = simulate_many(configs, jobs=jobs,
                            heartbeat=lambda i, p: beats.append((i, p)),
                            heartbeat_interval=0.01)
    return configs, beats, results


@pytest.mark.parametrize("jobs", [1, 2])
def test_heartbeats_stream_from_both_paths(jobs):
    """Satellite: the serial fallback must emit the same heartbeat shape
    as the pool path, so live.json/watch behave identically at jobs=1."""
    configs, beats, _ = _collect_heartbeats(jobs)
    assert beats, "no heartbeats arrived"
    indices = {i for i, _ in beats}
    assert indices <= set(range(len(configs)))
    for _, payload in beats:
        assert {"unix", "phase", "cycles", "retired", "instructions",
                "cycles_per_sec", "guard", "halted"} <= payload.keys()
        assert payload["instructions"] == N
        assert 0 < payload["retired"] <= N


@pytest.mark.parametrize("jobs", [1, 2])
def test_heartbeats_do_not_perturb_results(jobs):
    """Telemetry is out-of-band: stats with heartbeats on are bit-
    identical to a silent run (the acceptance bit-identity property)."""
    configs, _, with_hb = _collect_heartbeats(jobs)
    silent = simulate_many(configs, jobs=jobs)
    for a, b in zip(with_hb, silent):
        assert a.stats == b.stats


def test_empty_and_single_config():
    assert simulate_many([], jobs=8) == []
    [only] = simulate_many(
        [RunConfig(workload="astar", max_instructions=N)], jobs=8)
    assert only.stats.retired >= N


def test_timeout_then_retry_succeeds(tmp_path, monkeypatch):
    """First attempt hangs past the timeout; the retry completes.

    The fake ``simulate`` is installed in the parent and inherited by the
    forked worker; a marker file distinguishes first from second attempt.
    """
    if parallel.mp.get_start_method() != "fork":
        pytest.skip("injection requires fork start method")

    def flaky(config):
        marker = tmp_path / f"{config.workload}-{config.engine}"
        if not marker.exists():
            marker.write_text("first attempt hangs")
            time.sleep(60)
        return simulate(config)

    monkeypatch.setattr(parallel, "simulate", flaky)
    # Two configs: a single config would short-circuit into the serial
    # fallback (jobs = min(jobs, len(configs))), which has no timeouts.
    configs = [RunConfig(workload="astar", max_instructions=N),
               RunConfig(workload="perlbench", max_instructions=N)]
    events = []
    start = time.time()
    results = simulate_many(configs, jobs=2, timeout=1.0, retries=1,
                            progress=events.append, poll_interval=0.05)
    assert time.time() - start < 40  # terminated, not slept out
    assert all(r.stats.retired >= N for r in results)
    kinds = [e.kind for e in events]
    assert kinds.count("retry") == 2 and kinds.count("done") == 2


def test_retry_delay_deterministic_backoff():
    # Bit-identical across calls: a retry schedule replays exactly.
    assert parallel.retry_delay(3, 1, 0.5) == parallel.retry_delay(3, 1, 0.5)
    # Jittered per index so same-attempt retries don't stampede together.
    assert parallel.retry_delay(3, 1, 0.5) != parallel.retry_delay(4, 1, 0.5)
    # Exponential envelope: attempt N lands in [b*2^(N-1), b*2^N).
    assert 0.5 <= parallel.retry_delay(0, 1, 0.5) < 1.0
    assert 1.0 <= parallel.retry_delay(0, 2, 0.5) < 2.0
    # Disabled: first attempts and zero backoff never wait.
    assert parallel.retry_delay(0, 0, 0.5) == 0.0
    assert parallel.retry_delay(0, 3, 0.0) == 0.0


def test_attempts_and_last_error_surfaced(tmp_path, monkeypatch):
    if parallel.mp.get_start_method() != "fork":
        pytest.skip("injection requires fork start method")

    def flaky(config):
        marker = tmp_path / config.workload
        if config.workload == "astar" and not marker.exists():
            marker.write_text("x")
            raise RuntimeError("transient fault")
        return simulate(config)

    monkeypatch.setattr(parallel, "simulate", flaky)
    configs = [RunConfig(workload="astar", max_instructions=N),
               RunConfig(workload="perlbench", max_instructions=N)]
    results = simulate_many(configs, jobs=2, retries=1, backoff=0.05)
    # The retried run carries its provenance; the clean run stays pristine.
    assert results[0].attempts == 2
    assert "transient fault" in results[0].last_error
    assert results[1].attempts == 1 and results[1].last_error is None


def test_serial_results_default_provenance():
    [r] = simulate_many([RunConfig(workload="astar", max_instructions=N)],
                        jobs=1)
    assert r.attempts == 1 and r.last_error is None


def test_all_attempts_fail_raises(monkeypatch):
    if parallel.mp.get_start_method() != "fork":
        pytest.skip("injection requires fork start method")

    def boom(config):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(parallel, "simulate", boom)
    configs = [RunConfig(workload="astar", max_instructions=N),
               RunConfig(workload="perlbench", max_instructions=N)]
    events = []
    with pytest.raises(SimulationFailed) as exc:
        simulate_many(configs, jobs=2, retries=1, progress=events.append)
    failures = exc.value.failures
    assert [i for i, _, _ in failures] == [0, 1]
    assert all("injected failure" in err for _, _, err in failures)
    # Each config: start, retry, failed.
    assert sum(1 for e in events if e.kind == "failed") == 2
    assert sum(1 for e in events if e.kind == "retry") == 2


def test_retry_delay_capped():
    # The exponential envelope is clamped AFTER jitter: a deep attempt
    # can never schedule past max_delay, and the cap itself is exact.
    assert parallel.retry_delay(0, 12, 0.5) == 30.0
    assert parallel.retry_delay(7, 12, 0.5, max_delay=2.5) == 2.5
    # Determinism survives the cap (regression: the schedule must replay).
    assert (parallel.retry_delay(3, 9, 0.5, max_delay=4.0)
            == parallel.retry_delay(3, 9, 0.5, max_delay=4.0))
    # Below the cap the jittered value passes through untouched.
    assert parallel.retry_delay(0, 1, 0.5, max_delay=30.0) < 1.0


def test_on_result_fires_per_completion():
    configs = _configs()[:3]
    seen = []
    results = simulate_many(configs, jobs=2,
                            on_result=lambda i, r: seen.append((i, r)))
    # Every run reported exactly once, with the index of its input config.
    assert sorted(i for i, _ in seen) == [0, 1, 2]
    for i, r in seen:
        assert r.config == configs[i]
        assert r.stats == results[i].stats


def test_serial_interrupt_raises_and_keeps_done(monkeypatch):
    import os
    import signal

    from repro.harness import SweepInterrupted

    flushed = []

    def kick(p):
        # Deliver a real SIGINT after the first run completes; the guard
        # handler converts it to a flag, and the serial loop raises
        # SweepInterrupted before dispatching the next point.
        if p.kind == "done" and p.done_count == 1:
            os.kill(os.getpid(), signal.SIGINT)

    configs = _configs()[:3]
    with pytest.raises(SweepInterrupted) as exc:
        simulate_many(configs, jobs=1, progress=kick,
                      on_result=lambda i, r: flushed.append(i))
    assert exc.value.done == 1 and exc.value.total == 3
    assert flushed == [0]  # the completed run was flushed before raising
