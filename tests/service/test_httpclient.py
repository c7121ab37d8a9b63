"""Retrying client unit tests: retry classification, 429 hints,
deterministic backoff, no fail-fast state, protocol headers.

Most tests script ``_attempt`` directly so failure sequences are exact
and instant (attempt numbers and sleeps are recorded); a couple run
against a real stub HTTP server to check what actually goes over the
wire (headers, idempotency keys).
"""

import json
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.service.httpclient import (BACKOFF, MAX_DELAY, RETRIES,
                                      HttpStatusError, ServiceClient,
                                      TransportError, backoff_delay)


def scripted_client(script):
    """A client whose ``_attempt`` pops scripted outcomes.

    Script items: a dict (success body), an exception instance (raised),
    or an int status (raised as HttpStatusError).  Returns the client,
    the attempt numbers it made, and the delays it slept.
    """
    attempts = []
    sleeps = []
    client = ServiceClient("http://stub", worker_id="t1")
    client._sleep = sleeps.append
    remaining = list(script)

    def attempt(method, url, doc, attempt_no, idem):
        attempts.append(attempt_no)
        outcome = remaining.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        if isinstance(outcome, int):
            raise HttpStatusError(outcome, url)
        return outcome

    client._attempt = attempt
    return client, attempts, sleeps


class TestRetryClassification:
    def test_5xx_retried_until_success(self):
        client, attempts, sleeps = scripted_client([500, 502, {"ok": 1}])
        assert client.get("/x") == {"ok": 1}
        assert attempts == [1, 2, 3]
        assert len(sleeps) == 2

    def test_transport_errors_retried(self):
        client, attempts, _ = scripted_client(
            [ConnectionRefusedError("no daemon"),
             urllib.error.URLError("reset"), {"ok": 1}])
        assert client.get("/x") == {"ok": 1}
        assert attempts == [1, 2, 3]

    def test_truncated_body_is_a_transport_error(self):
        client, attempts, _ = scripted_client(
            [json.JSONDecodeError("truncated", "", 0), {"ok": 1}])
        assert client.get("/x") == {"ok": 1}
        assert attempts == [1, 2]

    def test_exhausted_retries_raise_transport_error(self):
        client, attempts, sleeps = scripted_client(
            [ConnectionRefusedError("x")] * (RETRIES + 1))
        with pytest.raises(TransportError) as info:
            client.get("/x")
        assert info.value.attempts == RETRIES + 1
        assert attempts == list(range(1, RETRIES + 2))
        # No sleep after the last attempt: the failure is reported at once.
        assert len(sleeps) == RETRIES

    def test_404_raises_notfound_without_retry(self):
        client, attempts, sleeps = scripted_client([404, {"never": 1}])
        with pytest.raises(HttpStatusError) as info:
            client.get("/campaigns/c9")
        assert info.value.status == 404
        assert attempts == [1]
        assert sleeps == []

    def test_other_4xx_never_retried(self):
        client, attempts, _ = scripted_client([400, {"never": 1}])
        with pytest.raises(HttpStatusError) as info:
            client.post("/claim", {})
        assert info.value.status == 400
        assert attempts == [1]

    def test_429_sleeps_the_retry_after_hint(self):
        hint = HttpStatusError(429, "http://stub/x", retry_after=2.5)
        client, attempts, sleeps = scripted_client([hint, {"ok": 1}])
        assert client.get("/x") == {"ok": 1}
        assert attempts == [1, 2]
        assert sleeps == [2.5]

    def test_429_hint_is_capped(self):
        hint = HttpStatusError(429, "http://stub/x", retry_after=3600.0)
        client, _, sleeps = scripted_client([hint, {"ok": 1}])
        client.get("/x")
        assert sleeps[0] <= 30.0

    def test_429_without_a_hint_backs_off(self):
        client, _, sleeps = scripted_client([429, {"ok": 1}])
        client.get("/x")
        assert sleeps == [backoff_delay(1, 1, BACKOFF, MAX_DELAY)]


class TestNoFailFast:
    def test_consecutive_failures_never_stop_the_next_request(self):
        """Ten transport failures in a row, and the next request is
        still sent over the wire, not refused locally."""
        per_request = RETRIES + 1
        requests = -(-10 // per_request)      # enough to fail ten times
        client, attempts, _ = scripted_client(
            [ConnectionRefusedError("down")] * (requests * per_request)
            + [{"ok": 1}])
        for _ in range(requests):
            with pytest.raises(TransportError):
                client.get("/x")
        assert len(attempts) >= 10
        sent = len(attempts)
        assert client.get("/x") == {"ok": 1}
        assert len(attempts) == sent + 1


class TestBackoffDeterminism:
    def test_same_failure_sequence_sleeps_identically(self):
        runs = []
        for _ in range(2):
            client, _, sleeps = scripted_client([500, 500, 500, {"ok": 1}])
            client.get("/x")
            runs.append(tuple(sleeps))
        assert runs[0] == runs[1]
        # And the delays are exactly the backoff_delay convention for the
        # first request (seq=1).
        expected = tuple(backoff_delay(1, attempt, BACKOFF, MAX_DELAY)
                         for attempt in (1, 2, 3))
        assert runs[0] == expected

    def test_backoff_delay_is_deterministic_and_exponential(self):
        # Bit-identical across calls: a retry schedule replays exactly.
        assert backoff_delay(3, 1, 0.5) == backoff_delay(3, 1, 0.5)
        # Jittered per request so same-attempt retries don't stampede.
        assert backoff_delay(3, 1, 0.5) != backoff_delay(4, 1, 0.5)
        # Exponential envelope: attempt N lands in [b*2^(N-1), b*2^N).
        assert 0.5 <= backoff_delay(0, 1, 0.5) < 1.0
        assert 1.0 <= backoff_delay(0, 2, 0.5) < 2.0
        # Disabled: first attempts and zero backoff never wait.
        assert backoff_delay(0, 0, 0.5) == 0.0
        assert backoff_delay(0, 3, 0.0) == 0.0

    def test_backoff_delay_capped(self):
        # The exponential envelope is clamped AFTER jitter: a deep attempt
        # can never schedule past max_delay, and the cap itself is exact.
        assert backoff_delay(0, 12, 0.5) == 30.0
        assert backoff_delay(7, 12, 0.5, max_delay=2.5) == 2.5
        # Determinism survives the cap (regression: the schedule must
        # replay).
        assert (backoff_delay(3, 9, 0.5, max_delay=4.0)
                == backoff_delay(3, 9, 0.5, max_delay=4.0))
        # Below the cap the jittered value passes through untouched.
        assert backoff_delay(0, 1, 0.5, max_delay=30.0) < 1.0

    def test_later_requests_decorrelate(self):
        client, _, sleeps = scripted_client(
            [500, {"ok": 1}, 500, {"ok": 1}])
        client.get("/x")
        client.get("/x")
        assert sleeps[0] != sleeps[1]  # seq 1 vs seq 2 jitter


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
        client = ServiceClient(url, worker_id="w42")
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
        client = ServiceClient(f"http://127.0.0.1:{port}")
        sleeps = []
        client._sleep = sleeps.append
        with pytest.raises(TransportError) as info:
            client.get("/x")
        assert info.value.attempts == RETRIES + 1
        assert len(sleeps) == RETRIES
