"""Live campaign telemetry: heartbeat payloads and the watch view.

The load-bearing properties: stalled-worker detection happens at *read*
time from stored timestamps (a SIGKILLed worker cannot announce its own
death), heartbeat payloads only read core state, and ``repro watch``
stops once every point is finished.
"""

import json
import time

from repro.cli import main
from repro.core import Core
from repro.obs.live import (HeartbeatTicker, journal_view, live_view,
                            read_campaign, render_watch)
from repro.workloads import build_workload


def _beat(unix, retired=500, instructions=1000, cps=5000.0):
    return {"unix": unix, "phase": "run", "cycles": retired * 2,
            "retired": retired, "instructions": instructions,
            "cycles_per_sec": cps, "retired_per_sec": cps / 2,
            "guard": "off", "halted": False}


def _point(workload, engine, status="pending", **fields):
    return {"workload": workload, "engine": engine, "status": status,
            "attempts": 1 if status != "pending" else 0, **fields}


def _doc(**points):
    """A :func:`campaign_view`-shaped document over ``points``."""
    counts = {}
    for p in points.values():
        counts[p["status"]] = counts.get(p["status"], 0) + 1
    return {"total": len(points), "counts": counts, "points": points}


def _two(k1=None, k2=None):
    return _doc(k1=k1 or _point("astar", "phelps"),
                k2=k2 or _point("sssp", "baseline"))


class TestHeartbeatTicker:
    def test_payload_reads_core_state(self):
        core = Core(build_workload("astar"))
        core.run(max_instructions=2000)
        ticker = HeartbeatTicker(total_instructions=2000)
        p = ticker.payload(core)
        assert p["cycles"] == core.cycle
        assert p["retired"] == core.main.retired
        assert p["instructions"] == 2000
        assert p["guard"] == "off"
        # First beat has no previous sample to derive a rate from.
        assert p["cycles_per_sec"] is None

    def test_second_payload_derives_rate(self):
        core = Core(build_workload("astar"))
        core.run(max_instructions=1000)
        ticker = HeartbeatTicker()
        ticker.payload(core)
        time.sleep(0.02)
        core.run(max_instructions=2000)
        p = ticker.payload(core)
        assert p["cycles_per_sec"] is not None and p["cycles_per_sec"] > 0


class TestLiveView:
    def test_fresh_heartbeat_not_stalled(self):
        now = time.time()
        doc = _two(k1=_point("astar", "phelps", "running", hb=_beat(now)))
        p = live_view(doc, now=now + 0.5)["points"]["k1"]
        assert not p["stalled"]
        assert 0.4 < p["heartbeat_age"] < 0.6
        assert p["progress"] == 0.5

    def test_silent_running_point_goes_stalled(self):
        """A killed worker is flagged the moment its heartbeat age crosses
        the threshold — derived at read time, no writer involved."""
        now = time.time()
        doc = _two(k1=_point("astar", "phelps", "running", hb=_beat(now)))
        # Default threshold is 2 x heartbeat_interval (interval=1.0).
        assert not live_view(doc, now=now + 1.5)["points"]["k1"]["stalled"]
        v = live_view(doc, now=now + 2.5)
        assert v["points"]["k1"]["stalled"]
        assert v["stalled"] == 1

    def test_stalled_before_first_heartbeat_uses_start_time(self):
        # The claim stamps lease_renewed_unix; no beat ever arrives.
        start = time.time()
        doc = _two(k1=_point("astar", "phelps", "running",
                             lease_renewed_unix=start))
        v = live_view(doc, now=start + 3.0)
        assert v["points"]["k1"]["stalled"]

    def test_done_points_never_stall(self):
        doc = _two(k1=_point("astar", "phelps", "done",
                             hb=_beat(time.time()), wall_seconds=1.0))
        v = live_view(doc, now=time.time() + 100)
        assert not v["points"]["k1"]["stalled"]

    def test_eta_scales_with_remaining_work(self):
        # k2 pending: one done point at 10s -> ETA ~10s for the one left.
        done = _point("astar", "phelps", "done", wall_seconds=10.0)
        assert live_view(_two(k1=done))["eta_seconds"] == 10.0
        both = _two(k1=done, k2=_point("sssp", "baseline", "done",
                                       wall_seconds=10.0))
        assert live_view(both)["eta_seconds"] is None


class TestRenderWatch:
    def test_frame_shows_status_and_stall_flag(self):
        now = time.time()
        doc = _two(k1=_point("astar", "phelps", "running", hb=_beat(now)),
                   k2=_point("sssp", "baseline", "done", wall_seconds=2.0))
        text = render_watch(live_view(doc, now=now + 5.0))
        assert "astar/phelps" in text
        assert "STALLED" in text
        assert "1/2 finished" in text

    def test_limit_truncates(self):
        doc = _doc(**{f"k{i}": _point("astar", "baseline")
                      for i in range(10)})
        text = render_watch(live_view(doc), limit=3)
        assert "... 7 more" in text


class TestWatchExit:
    def test_watch_returns_once_a_poisoned_campaign_is_finished(
            self, tmp_path, monkeypatch, capsys):
        """One done and one poisoned point is a finished campaign: the
        header says 2/2 and ``watch`` exits 0 instead of polling on.
        A regression raises from the patched sleep instead of hanging."""
        root = tmp_path / "camp"
        root.mkdir()
        (root / "campaign.json").write_text(json.dumps({
            "schema": 1,
            "points": [{"key": "a", "workload": "astar", "engine": "phelps"},
                       {"key": "b", "workload": "sssp",
                        "engine": "baseline"}]}))
        (root / "a.json").write_text(json.dumps(
            {"key": "a", "status": "done", "attempts": 1,
             "entry": {"wall_seconds": 1.0}}))
        (root / "b.json").write_text(json.dumps(
            {"key": "b", "status": "poisoned", "attempts": 3,
             "error": "lease expired under 3 distinct workers"}))
        polls = []

        def sleep(seconds):
            polls.append(seconds)
            if len(polls) > 20:
                raise AssertionError("watch kept polling a finished campaign")

        monkeypatch.setattr(time, "sleep", sleep)
        assert main(["watch", str(root), "--interval", "0"]) == 0
        assert polls == []
        assert "campaign: 2/2 finished" in capsys.readouterr().out


class TestReadCampaign:
    def _journal(self, tmp_path):
        root = tmp_path / "camp"
        root.mkdir()
        (root / "campaign.json").write_text(json.dumps({
            "schema": 1,
            "points": [{"key": "a", "workload": "astar", "engine": "phelps"},
                       {"key": "b", "workload": "sssp", "engine": "baseline"}],
        }))
        (root / "a.json").write_text(json.dumps(
            {"key": "a", "status": "done", "attempts": 1,
             "entry": {"wall_seconds": 3.0}}))
        # b has no shard: counts as pending.
        return root

    def test_reads_manifest_and_shards(self, tmp_path):
        camp = read_campaign(self._journal(tmp_path))
        assert camp["counts"] == {"done": 1, "pending": 1}
        assert camp["points"]["a"]["wall_seconds"] == 3.0

    def test_never_quarantines_corrupt_shards(self, tmp_path):
        """Observers must not mutate the store they observe: a torn shard
        reads as pending and stays exactly where it is."""
        root = self._journal(tmp_path)
        (root / "b.json").write_text("{ torn")
        camp = read_campaign(root)
        assert camp["points"]["b"]["status"] == "pending"
        assert (root / "b.json").exists()
        assert not list(root.glob("*.corrupt"))

    def test_journal_view_renders_without_live_json(self, tmp_path):
        view = journal_view(self._journal(tmp_path))
        assert view["counts"]["done"] == 1
        assert view["eta_seconds"] == 3.0
        assert "astar/phelps" in render_watch(view)
        assert journal_view(tmp_path / "nope") is None
