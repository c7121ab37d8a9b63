"""The HTTP telemetry endpoint: routes, formats, journal fidelity.

Servers bind port 0 (ephemeral) so parallel test runs never collide.
"""

import json
import os
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.harness import CampaignJournal
from repro.obs.live import LiveStatus
from repro.obs.metrics import MetricsRegistry
from repro.obs.serve import TelemetryServer


@pytest.fixture
def campaign(tmp_path):
    root = tmp_path / "camp"
    root.mkdir()
    (root / "campaign.json").write_text(json.dumps({
        "schema": 1,
        "points": [{"key": "a", "workload": "astar", "engine": "phelps"},
                   {"key": "b", "workload": "sssp", "engine": "baseline"}],
    }))
    (root / "a.json").write_text(json.dumps(
        {"key": "a", "status": "done", "attempts": 1,
         "entry": {"wall_seconds": 1.0}}))
    (root / "b.json").write_text(json.dumps(
        {"key": "b", "status": "running", "attempts": 1}))
    ls = LiveStatus(root / "live.json", interval=0.5)
    ls.point("a", "astar", "phelps")
    ls.point("b", "sssp", "baseline")
    ls.mark("a", "done", wall_seconds=1.0)
    ls.mark("b", "running")
    ls.beat("b", {"unix": time.time(), "phase": "run", "cycles": 100,
                  "retired": 50, "instructions": 100,
                  "cycles_per_sec": 1000.0, "retired_per_sec": 500.0,
                  "guard": "off", "halted": False})
    ls.write(force=True)
    return root


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.read().decode()


def test_metrics_exposition(campaign):
    reg = MetricsRegistry()
    reg.counter("core.cycles").inc(9)
    with TelemetryServer(campaign, registry=reg) as srv:
        text = _get(srv.url + "/metrics")
    assert "repro_core_cycles 9" in text
    assert 'repro_campaign_points{status="done"} 1' in text
    assert 'repro_campaign_points{status="running"} 1' in text
    assert "repro_campaign_heartbeat_age_max" in text


def test_campaign_route_matches_journal(campaign):
    with TelemetryServer(campaign) as srv:
        doc = json.loads(_get(srv.url + "/campaign"))
    assert doc["counts"] == {"done": 1, "running": 1}
    assert doc["points"]["a"]["status"] == "done"
    assert doc["points"]["b"]["status"] == "running"


def test_live_route_derives_ages(campaign):
    with TelemetryServer(campaign) as srv:
        doc = json.loads(_get(srv.url + "/live"))
    assert doc["points"]["b"]["heartbeat_age"] is not None
    assert doc["points"]["b"]["stalled"] is False


def test_stream_emits_sse_frames(campaign):
    with TelemetryServer(campaign, interval=0.05) as srv:
        with urllib.request.urlopen(srv.url + "/stream", timeout=5) as resp:
            assert resp.headers["Content-Type"] == "text/event-stream"
            line = resp.readline().decode()
    assert line.startswith("data: ")
    frame = json.loads(line[len("data: "):])
    assert frame["points"]["b"]["status"] == "running"


def test_unknown_route_404s(campaign):
    with TelemetryServer(campaign) as srv:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(srv.url + "/nope")
        assert err.value.code == 404


def test_missing_campaign_404s(tmp_path):
    with TelemetryServer(tmp_path / "nothing") as srv:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(srv.url + "/campaign")
        assert err.value.code == 404
        # /metrics still serves (empty registry, no campaign gauges).
        assert _get(srv.url + "/metrics").endswith("\n")


def test_busy_port_degrades_to_ephemeral(campaign, capsys):
    """A taken port must not kill the sweep the server rides along with:
    the server falls back to an ephemeral port and says so."""
    with TelemetryServer(campaign) as first:
        second = TelemetryServer(campaign, port=first.port)
        try:
            second.start()
            assert second.port != first.port
            assert json.loads(_get(second.url + "/campaign"))["total"] == 2
        finally:
            second.stop()
    err = capsys.readouterr().err
    assert f"cannot bind 127.0.0.1:{first.port}" in err
    assert "ephemeral port" in err


def test_live_views_are_marked_no_store(campaign):
    with TelemetryServer(campaign) as srv:
        for path in ("/metrics", "/campaign", "/live"):
            with urllib.request.urlopen(srv.url + path, timeout=5) as resp:
                assert resp.headers["Cache-Control"] == "no-store", path


REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _spawn(*args):
    """``python -m repro ARGS`` with unbuffered stdout, and the URL of
    the telemetry endpoint it announces on its first lines."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"),
               PYTHONUNBUFFERED="1")
    proc = subprocess.Popen([sys.executable, "-m", "repro", *args],
                            cwd=REPO, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    for line in proc.stdout:
        found = re.search(r"(http://\S+)", line)
        if found:
            return proc, found.group(1)
    raise AssertionError(f"{args[0]} never announced its endpoint")


def test_served_sweep_end_to_end(tmp_path, capsys):
    """A 2x2 ``sweep --serve`` scraped while workers are hot: valid
    exposition whose point gauges sum to the point count, fresh
    heartbeats, a /campaign view that ends equal to the journal — also
    through a standalone ``repro serve`` — and a ``watch`` frame of the
    finished campaign."""
    camp = tmp_path / "livecamp"
    sweep, url = _spawn("sweep", "-w", "astar", "sssp", "-e", "baseline",
                        "phelps", "-n", "20000", "--jobs", "2",
                        "--manifest", str(camp), "--serve", "0",
                        "--heartbeat-interval", "0.5")
    try:
        deadline = time.monotonic() + 120
        while True:   # until a running point has a heartbeat in /live
            assert time.monotonic() < deadline, "no heartbeat seen"
            time.sleep(0.05)
            try:
                live = json.loads(_get(url + "/live"))
            except urllib.error.HTTPError:   # no live.json yet
                continue
            running = {k: p for k, p in live["points"].items()
                       if p["status"] == "running"}
            if running and all(p.get("hb") for p in running.values()):
                break
        metrics = _get(url + "/metrics")
        campaign = json.loads(_get(url + "/campaign"))
        # Mid-run heartbeats are fresh: within the 2x-interval (1.0 s)
        # stall threshold.
        assert live["stalled"] == 0, live
        for key, point in running.items():
            assert point["heartbeat_age"] < 1.0, (key, point)
        samples = {}
        for line in metrics.splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                assert name[0].isalpha() or name[0] == "_", line
                samples[name] = float(value)
        gauges = [n for n in samples if n.startswith("repro_campaign_points")]
        assert sum(samples[n] for n in gauges) == 4
        assert {p["status"] for p in campaign["points"].values()} \
            <= {"pending", "running", "done"}
        assert sweep.wait(timeout=300) == 0
    finally:
        if sweep.poll() is None:
            sweep.kill()
        sweep.stdout.close()

    server, served = _spawn("serve", str(camp), "--port", "0")
    try:
        final = json.loads(_get(served + "/campaign"))
    finally:
        server.terminate()
        server.wait(timeout=30)
        server.stdout.close()
    assert {k: p["status"] for k, p in final["points"].items()} \
        == CampaignJournal(camp).statuses()
    assert final["points"].keys() == campaign["points"].keys()

    capsys.readouterr()
    assert main(["watch", str(camp), "--once"]) == 0
    frame = capsys.readouterr().out
    assert "done" in frame and "4/4" in frame
