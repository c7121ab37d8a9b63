"""Resilient client unit tests: retry classification, 429 hints,
breaker state machine, deterministic backoff, protocol headers.

Most tests script ``_attempt`` directly so failure sequences are exact
and instant; a couple run against a real stub HTTP server to check what
actually goes over the wire (headers, idempotency keys).
"""

import json
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.harness.parallel import retry_delay
from repro.service.httpclient import (BREAKER_CLOSED, BREAKER_HALF_OPEN,
                                      BREAKER_OPEN, CircuitOpen,
                                      HttpStatusError, NotFound,
                                      ServiceClient, TransportError)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def scripted_client(script, **kwargs):
    """A client whose ``_attempt`` pops scripted outcomes.

    Script items: a dict (success body), an exception instance (raised),
    or an int status (raised as HttpStatusError; 404 -> NotFound).
    """
    sleeps = []
    clock = FakeClock()
    kwargs.setdefault("retries", 4)
    kwargs.setdefault("backoff", 0.25)
    client = ServiceClient("http://stub", worker_id="t1",
                           sleep=sleeps.append, clock=clock, **kwargs)
    remaining = list(script)

    def attempt(method, url, doc, attempt_no, idem):
        outcome = remaining.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        if isinstance(outcome, int):
            if outcome == 404:
                raise NotFound(404, url)
            raise HttpStatusError(outcome, url)
        return outcome

    client._attempt = attempt
    return client, sleeps, clock


class TestRetryClassification:
    def test_5xx_retried_until_success(self):
        client, sleeps, _ = scripted_client([500, 502, {"ok": 1}])
        assert client.get("/x") == {"ok": 1}
        assert client.stats.attempts == 3
        assert client.stats.retries == 2
        assert client.stats.by_status == {500: 1, 502: 1, 200: 1}
        assert len(sleeps) == 2

    def test_transport_errors_retried(self):
        client, _, _ = scripted_client(
            [ConnectionRefusedError("no daemon"),
             urllib.error.URLError("reset"), {"ok": 1}])
        assert client.get("/x") == {"ok": 1}
        assert client.stats.retries == 2

    def test_truncated_body_is_a_transport_error(self):
        client, _, _ = scripted_client(
            [json.JSONDecodeError("truncated", "", 0), {"ok": 1}])
        assert client.get("/x") == {"ok": 1}
        assert client.stats.retries == 1

    def test_exhausted_retries_raise_transport_error(self):
        client, _, _ = scripted_client(
            [ConnectionRefusedError("x")] * 3, retries=2)
        with pytest.raises(TransportError) as info:
            client.get("/x")
        assert info.value.attempts == 3
        assert client.stats.failures == 1

    def test_404_raises_notfound_without_retry(self):
        client, sleeps, _ = scripted_client([404, {"never": 1}])
        with pytest.raises(NotFound):
            client.get("/campaigns/c9")
        assert client.stats.attempts == 1
        assert sleeps == []

    def test_other_4xx_never_retried(self):
        client, _, _ = scripted_client([400, {"never": 1}])
        with pytest.raises(HttpStatusError) as info:
            client.post("/claim", {})
        assert info.value.status == 400
        assert client.stats.attempts == 1

    def test_429_sleeps_the_retry_after_hint(self):
        hint = HttpStatusError(429, "http://stub/x", retry_after=2.5)
        client, sleeps, _ = scripted_client([hint, {"ok": 1}])
        assert client.get("/x") == {"ok": 1}
        assert sleeps == [2.5]
        assert client.stats.status_429 == 1
        # A 429 is a healthy server: it must not trip the breaker.
        assert client.breaker_state() == BREAKER_CLOSED

    def test_429_hint_is_capped(self):
        hint = HttpStatusError(429, "http://stub/x", retry_after=3600.0)
        client, sleeps, _ = scripted_client([hint, {"ok": 1}])
        client.get("/x")
        assert sleeps[0] <= 30.0


class TestBackoffDeterminism:
    def test_same_failure_sequence_sleeps_identically(self):
        runs = []
        for _ in range(2):
            client, sleeps, _ = scripted_client([500, 500, 500, {"ok": 1}])
            client.get("/x")
            runs.append(tuple(sleeps))
        assert runs[0] == runs[1]
        # And the delays are exactly the retry_delay convention for the
        # first request (seq=1).
        expected = tuple(retry_delay(1, attempt, 0.25, 4.0)
                         for attempt in (1, 2, 3))
        assert runs[0] == expected

    def test_later_requests_decorrelate(self):
        client, sleeps, _ = scripted_client(
            [500, {"ok": 1}, 500, {"ok": 1}])
        client.get("/x")
        client.get("/x")
        assert sleeps[0] != sleeps[1]  # seq 1 vs seq 2 jitter


class TestCircuitBreaker:
    def make_failing(self, failures, threshold=3, reset=5.0):
        return scripted_client(
            [ConnectionRefusedError("down")] * failures + [{"ok": 1}] * 4,
            retries=0, breaker_threshold=threshold,
            breaker_reset_seconds=reset)

    def test_opens_after_threshold_and_fails_fast(self):
        client, _, clock = self.make_failing(3)
        for _ in range(3):
            with pytest.raises(TransportError):
                client.get("/x")
        assert client.breaker_state() == BREAKER_OPEN
        assert client.stats.breaker_opens == 1
        with pytest.raises(CircuitOpen) as info:
            client.get("/x")
        assert 0.0 < info.value.retry_in <= 5.0
        assert client.stats.breaker_fast_fails == 1

    def test_half_open_probe_success_closes(self):
        client, _, clock = self.make_failing(3)
        for _ in range(3):
            with pytest.raises(TransportError):
                client.get("/x")
        clock.advance(5.1)
        assert client.breaker_state() == BREAKER_HALF_OPEN
        assert client.get("/x") == {"ok": 1}   # the probe
        assert client.breaker_state() == BREAKER_CLOSED
        assert client.get("/x") == {"ok": 1}

    def test_half_open_probe_failure_reopens(self):
        client, _, clock = self.make_failing(4)
        for _ in range(3):
            with pytest.raises(TransportError):
                client.get("/x")
        clock.advance(5.1)
        with pytest.raises(TransportError):
            client.get("/x")   # probe fails -> reopen
        assert client.breaker_state() == BREAKER_OPEN
        assert client.stats.breaker_opens == 2
        clock.advance(5.1)
        assert client.get("/x") == {"ok": 1}
        assert client.breaker_state() == BREAKER_CLOSED

    def test_5xx_counts_toward_the_breaker(self):
        client, _, _ = scripted_client([500, 500, {"ok": 1}], retries=0,
                                       breaker_threshold=2)
        for _ in range(2):
            with pytest.raises(TransportError):
                client.get("/x")
        assert client.breaker_state() == BREAKER_OPEN


class _RecordingHandler(BaseHTTPRequestHandler):
    def log_message(self, fmt, *args):
        pass

    def _reply(self):
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b"{}"
        self.server.seen.append(
            {"path": self.path, "headers": dict(self.headers),
             "body": json.loads(body or b"{}")})
        payload = json.dumps({"ok": True}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = _reply
    do_POST = _reply


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _RecordingHandler)
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


class TestOnTheWire:
    def test_protocol_headers_and_idempotency_key(self, stub_server):
        url = f"http://127.0.0.1:{stub_server.server_address[1]}"
        client = ServiceClient(url, worker_id="w42", retries=0)
        client.request("POST", "/complete", {"key": "k"},
                       idempotency_key="w42:c1:k:g0")
        seen = stub_server.seen[0]
        assert seen["headers"]["X-Repro-Worker"] == "w42"
        assert seen["headers"]["X-Repro-Attempt"] == "1"
        assert seen["headers"]["Idempotency-Key"] == "w42:c1:k:g0"
        assert seen["body"] == {"key": "k"}

    def test_connection_refused_is_a_transport_error(self, stub_server):
        port = stub_server.server_address[1]
        stub_server.shutdown()
        stub_server.server_close()
        client = ServiceClient(f"http://127.0.0.1:{port}", retries=1,
                               backoff=0.01, timeout=1.0)
        with pytest.raises(TransportError):
            client.get("/x")
        assert client.stats.attempts == 2
