"""Chaos-proxy unit tests: seeded determinism plus one test per fault.

The backend is a stub HTTP server that counts requests — which is also
how duplicate delivery is proven to actually deliver twice.
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from tests.service.chaosproxy import FAULTS, ChaosProxy, FaultPlan


class _CountingHandler(BaseHTTPRequestHandler):
    def log_message(self, fmt, *args):
        pass

    def _reply(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        with self.server.lock:
            self.server.hits += 1
            hits = self.server.hits
        payload = json.dumps({"ok": True, "hit": hits,
                              "tag": self.server.tag}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = _reply
    do_POST = _reply


def make_backend(tag="a"):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
    server.hits = 0
    server.tag = tag
    server.lock = threading.Lock()
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


@pytest.fixture
def backend():
    server = make_backend()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def through(proxy, path="/x", timeout=10.0):
    with urllib.request.urlopen(proxy.url + path, timeout=timeout) as resp:
        return json.loads(resp.read())


class TestFaultPlan:
    def test_same_seed_same_draw_sequence(self):
        a = FaultPlan(seed=7, drop_rate=0.3, error_rate=0.3,
                      truncate_rate=0.3, duplicate_rate=0.3,
                      latency_rate=0.3)
        b = FaultPlan(seed=7, drop_rate=0.3, error_rate=0.3,
                      truncate_rate=0.3, duplicate_rate=0.3,
                      latency_rate=0.3)
        assert [a.draw() for _ in range(50)] == \
            [b.draw() for _ in range(50)]

    def test_draw_covers_every_fault_kind(self):
        plan = FaultPlan(seed=1)
        assert set(plan.draw()) == set(FAULTS)

    def test_zero_rates_inject_nothing(self):
        plan = FaultPlan(seed=3)
        assert all(not fired for fired in plan.draw().values())


class TestFaults:
    def test_clean_forwarding(self, backend):
        with ChaosProxy("127.0.0.1", backend.server_address[1]) as proxy:
            assert through(proxy)["ok"] is True
            counters = proxy.counters()
        assert counters["connections"] == 1
        assert counters["forwarded"] == 1
        assert sum(counters["injected"].values()) == 0

    def test_error_injection_returns_500(self, backend):
        plan = FaultPlan(seed=0, error_rate=1.0)
        with ChaosProxy("127.0.0.1", backend.server_address[1],
                        plan=plan) as proxy:
            with pytest.raises(urllib.error.HTTPError) as info:
                through(proxy)
            assert info.value.code == 500
            assert b"chaos" in info.value.read()
            assert proxy.counters()["injected"]["error"] == 1
        assert backend.hits == 0   # never forwarded

    def test_drop_closes_the_connection(self, backend):
        plan = FaultPlan(seed=0, drop_rate=1.0)
        with ChaosProxy("127.0.0.1", backend.server_address[1],
                        plan=plan) as proxy:
            with pytest.raises((urllib.error.URLError, OSError,
                                http.client.HTTPException)):
                through(proxy, timeout=5.0)
            assert proxy.counters()["injected"]["drop"] == 1
        assert backend.hits == 0

    def test_truncate_breaks_the_body(self, backend):
        plan = FaultPlan(seed=0, truncate_rate=1.0)
        with ChaosProxy("127.0.0.1", backend.server_address[1],
                        plan=plan) as proxy:
            with pytest.raises((urllib.error.URLError, OSError,
                                http.client.HTTPException,
                                json.JSONDecodeError)):
                through(proxy, timeout=5.0)
            assert proxy.counters()["injected"]["truncate"] == 1
        assert backend.hits == 1   # the request did reach the daemon

    def test_duplicate_delivers_twice(self, backend):
        plan = FaultPlan(seed=0, duplicate_rate=1.0)
        with ChaosProxy("127.0.0.1", backend.server_address[1],
                        plan=plan) as proxy:
            doc = through(proxy)
            assert doc["ok"] is True
            assert doc["hit"] == 2       # the response is the second copy
            assert proxy.counters()["injected"]["duplicate"] == 1
        assert backend.hits == 2

    def test_latency_delays_but_forwards(self, backend):
        plan = FaultPlan(seed=0, latency_rate=1.0, latency_seconds=0.05)
        with ChaosProxy("127.0.0.1", backend.server_address[1],
                        plan=plan) as proxy:
            assert through(proxy)["ok"] is True
            assert proxy.counters()["injected"]["latency"] == 1


class TestRetarget:
    def test_retarget_switches_backends(self, backend):
        other = make_backend(tag="b")
        try:
            with ChaosProxy("127.0.0.1",
                            backend.server_address[1]) as proxy:
                assert through(proxy)["tag"] == "a"
                proxy.retarget("127.0.0.1", other.server_address[1])
                assert through(proxy)["tag"] == "b"
        finally:
            other.shutdown()
            other.server_close()

    def test_dead_backend_resets_the_client(self, backend):
        port = backend.server_address[1]
        with ChaosProxy("127.0.0.1", port) as proxy:
            backend.shutdown()
            backend.server_close()
            with pytest.raises((urllib.error.URLError, OSError,
                                http.client.HTTPException)):
                through(proxy, timeout=5.0)


class TestLifecycle:
    def test_stop_returns_promptly_and_reaps_the_accept_thread(self,
                                                               backend):
        proxy = ChaosProxy("127.0.0.1", backend.server_address[1]).start()
        assert through(proxy)["ok"] is True
        t0 = time.monotonic()
        proxy.stop()
        assert time.monotonic() - t0 < 1.0
        assert not proxy._accept_thread.is_alive()
