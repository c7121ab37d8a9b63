"""The campaign telemetry served over HTTP: routes, formats, journal
fidelity.

The campaign daemon is the one campaign HTTP handler, so these tests
scrape it: a campaign is submitted with no worker pool, and the tests
drive its points through the lease endpoints a remote worker uses.
The daemon binds port 0 (ephemeral) so parallel test runs never collide.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.harness.campaign import CampaignJournal
from repro.obs.live import live_view, read_campaign
from repro.service.daemon import CampaignService, ServiceConfig
from repro.service.worker import WorkerOptions, work_service

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

SPEC = {"workloads": ["astar", "sssp"], "engines": ["baseline", "phelps"],
        "instructions": 1500}


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.read().decode()


def _post(url, doc):
    req = urllib.request.Request(
        url, data=json.dumps(doc).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read().decode())


def _wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.05)


def _service(tmp_path):
    return CampaignService(ServiceConfig(
        root=str(tmp_path / "svc"), port=0, workers=0, lease_seconds=30.0,
        reap_interval=0.3, stream_interval=0.05, heartbeat_interval=0.5,
        cache_dir=None, log=False))


def _activate(svc, spec=SPEC):
    cid = _post(f"{svc.url}/campaigns", spec)["id"]
    _wait_for(lambda: svc.state.get(cid).status == "active", 30,
              "activation")
    return cid


@pytest.fixture
def served(tmp_path):
    """A daemon and a 2x2 campaign in it with one point claimed by
    worker ``w1`` and one heartbeat in, three points still pending:
    ``(service, campaign id, claimed key)``."""
    with _service(tmp_path) as svc:
        cid = _activate(svc)
        claim = _post(f"{svc.url}/claim", {"worker": "w1"})
        assert claim["campaign"] == cid and claim["key"]
        _post(f"{svc.url}/renew", {
            "campaign": cid, "worker": "w1", "key": claim["key"],
            "hb": {"unix": time.time(), "phase": "run", "cycles": 100,
                   "retired": 50, "instructions": 1500,
                   "cycles_per_sec": 1000.0, "retired_per_sec": 500.0,
                   "guard": "off", "halted": False}})
        yield svc, cid, claim["key"]


def test_metrics_exposition(served):
    svc, cid, _ = served
    text = _get(svc.url + "/metrics")
    assert "repro_service_up 1" in text
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            assert name[0].isalpha() or name[0] == "_", line
            samples[name] = float(value)
    points = {n: v for n, v in samples.items()
              if n.startswith("repro_service_campaign_points{")
              and f'campaign="{cid}"' in n}
    assert sum(points.values()) == 4
    by_status = {n.split('status="')[1].split('"')[0]: v
                 for n, v in points.items()}
    assert by_status["pending"] == 3 and by_status["running"] == 1


def test_campaign_route_matches_journal(served):
    svc, cid, key = served
    doc = json.loads(_get(f"{svc.url}/campaigns/{cid}"))
    assert doc["counts"] == {"pending": 3, "running": 1}
    assert doc["points"][key]["status"] == "running"
    assert doc["points"][key]["worker"] == "w1"
    journal = read_campaign(svc.state.get(cid).dir)
    assert {k: p["status"] for k, p in doc["points"].items()} \
        == {k: p["status"] for k, p in journal["points"].items()}


def test_live_route_derives_ages(served):
    """The view ``watch --connect`` derives from the campaign route:
    the heartbeat just sent is fresh, so the point is not stalled."""
    svc, cid, key = served
    view = live_view(json.loads(_get(f"{svc.url}/campaigns/{cid}")))
    point = view["points"][key]
    assert point["heartbeat_age"] is not None
    assert point["heartbeat_age"] < view["stall_after"]
    assert point["stalled"] is False
    assert point["progress"] == pytest.approx(50 / 1500)
    assert view["stalled"] == 0


def test_stream_emits_sse_frames(served):
    svc, cid, _ = served
    with urllib.request.urlopen(f"{svc.url}/campaigns/{cid}/stream",
                                timeout=10) as resp:
        assert resp.headers["Content-Type"] == "text/event-stream"
        line = resp.readline().decode()
    assert line.startswith("data: ")
    frame = json.loads(line[len("data: "):])
    assert frame["id"] == cid
    assert frame["status"] == "active"
    assert frame["counts"]["running"] == 1


def test_unknown_route_404s(served):
    svc, _, _ = served
    for path in ("/nope", "/live", "/campaign"):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(svc.url + path)
        assert err.value.code == 404, path


def test_missing_campaign_404s(tmp_path):
    with _service(tmp_path) as svc:
        for path in ("/campaigns/c9999", "/campaigns/c9999/stream",
                     "/campaigns/c9999/results"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(svc.url + path)
            assert err.value.code == 404, path
        # /metrics still serves (no campaigns, no campaign gauges).
        text = _get(svc.url + "/metrics")
        assert text.endswith("\n")
        assert "repro_service_campaign_points" not in text


def test_live_views_are_marked_no_store(served):
    svc, cid, _ = served
    for path in ("/metrics", f"/campaigns/{cid}",
                 f"/campaigns/{cid}/results", f"/campaigns/{cid}/stream"):
        with urllib.request.urlopen(svc.url + path, timeout=10) as resp:
            assert resp.headers["Cache-Control"] == "no-store", path


def test_served_sweep_end_to_end(tmp_path, capsys):
    """A 2x2 campaign scraped while a worker is hot: the point gauges
    sum to the point count, the final ``/campaigns/<id>`` view equals
    the journal, and ``watch --connect`` frames the finished campaign.
    (Mid-run heartbeats of a local sweep are checked through
    ``repro watch DIR`` in the campaign tests.)"""
    with _service(tmp_path) as svc:
        cid = _activate(svc)
        worker = threading.Thread(target=work_service, args=(
            svc.url, WorkerOptions(worker_id="w1", max_points=4,
                                   poll_interval=0.05,
                                   heartbeat_interval=0.2, log=False)))
        worker.start()
        try:
            metrics = _get(f"{svc.url}/metrics")
            gauges = [float(line.rsplit(" ", 1)[1])
                      for line in metrics.splitlines()
                      if line.startswith("repro_service_campaign_points{")
                      and f'campaign="{cid}"' in line]
            assert sum(gauges) == 4
            _wait_for(lambda: svc.state.get(cid).status == "done", 120,
                      "campaign to finish")
        finally:
            worker.join(timeout=120)
        url = f"{svc.url}/campaigns/{cid}"
        final = json.loads(_get(url))
        journal = CampaignJournal(svc.state.get(cid).dir)
        statuses = {k: p["status"]
                    for k, p in read_campaign(journal.root)["points"].items()}
        assert {k: p["status"] for k, p in final["points"].items()} \
            == statuses == dict.fromkeys(statuses, "done")
        capsys.readouterr()
        assert main(["watch", "--connect", url, "--once"]) == 0
    frame = capsys.readouterr().out
    assert "campaign: 4/4 finished" in frame
    assert "astar/phelps" in frame
