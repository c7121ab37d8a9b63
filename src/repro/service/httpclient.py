"""Retrying HTTP/JSON client for the worker<->daemon protocol.

``urllib`` alone treats the network as either perfect or fatal; a fleet
of remote workers needs the middle ground.  :class:`ServiceClient` gives
every request one retry policy:

* **a per-request timeout** (:data:`TIMEOUT`) — a wedged daemon costs
  one timeout, not a hung worker;
* **bounded retries with deterministic backoff** — up to
  :data:`RETRIES` retries, delays from :func:`backoff_delay`
  (exponential from :data:`BACKOFF`, capped at :data:`MAX_DELAY`, scaled
  by jitter seeded from the request sequence number), so two reruns of
  the same worker sleep identically: retry storms decorrelate without
  sacrificing reproducibility;
* **status-aware error handling** — ``429`` sleeps the server's
  ``Retry-After`` hint (capped), other 4xx raise
  :class:`HttpStatusError` without retry (the request or the resource is
  wrong, not the network), and 5xx / connection-refused / timeouts /
  truncated bodies are retried and end in :class:`TransportError`;
* **repeat-safe retries** — retrying a publish whose first response
  was dropped is safe because the daemon's point table answers a repeat
  from the shard instead of re-applying it.  (``request`` still accepts
  an ``idempotency_key`` and sends it as a header; the daemon ignores
  it.)

There is no circuit breaker: every request gets the same budget, and a
worker facing a dead daemon keeps polling at its own pace (see
:func:`repro.service.worker.work_service`).

Every request carries ``X-Repro-Worker`` and ``X-Repro-Attempt`` (1 on
the first try) headers, which is how the daemon's ``repro_service_http_*``
metrics see client-side retries without a separate push channel.
"""

import http.client
import json
import random
import time
import urllib.error
import urllib.request
from typing import Dict, Optional

__all__ = ["ServiceClient", "backoff_delay", "HttpStatusError",
           "TransportError", "TIMEOUT", "RETRIES", "BACKOFF", "MAX_DELAY"]

TIMEOUT = 10.0       # seconds one attempt may take
RETRIES = 4          # attempts beyond the first
BACKOFF = 0.02       # first retry's base delay, doubled per attempt
MAX_DELAY = 0.25     # ceiling on one backoff delay

# Ceiling on how long a 429 Retry-After hint is honoured: a confused (or
# hostile) server must not be able to park a worker for an hour.
_MAX_RETRY_AFTER = 30.0


def backoff_delay(seq: int, attempt: int, backoff: float,
                  max_delay: float = 30.0) -> float:
    """Exponential backoff with deterministic jitter, in seconds.

    ``backoff * 2**(attempt-1)`` scaled by a jitter factor in [1, 2) drawn
    from a generator seeded by (seq, attempt) — retries spread out, but
    identically on every host and every rerun.  The result is capped at
    ``max_delay`` (applied after jitter, so determinism is trivially
    preserved): unbounded doubling would sleep for minutes by attempt 10.
    """
    if attempt <= 0 or backoff <= 0:
        return 0.0
    jitter = random.Random((seq + 1) * 1_000_003 + attempt).random()
    return min(backoff * (2 ** (attempt - 1)) * (1.0 + jitter), max_delay)


class HttpStatusError(RuntimeError):
    """The daemon answered with a non-2xx status (carried on ``status``)."""

    def __init__(self, status: int, url: str, body: str = "",
                 retry_after: Optional[float] = None):
        self.status = status
        self.url = url
        self.body = body
        self.retry_after = retry_after
        super().__init__(f"HTTP {status} from {url}")

    def json(self) -> Optional[Dict]:
        try:
            doc = json.loads(self.body)
        except (json.JSONDecodeError, TypeError):
            return None
        return doc if isinstance(doc, dict) else None


class TransportError(RuntimeError):
    """The network failed on every allowed attempt (connection refused,
    timeout, reset, truncated body, 5xx, or a 429 that never cleared)."""

    def __init__(self, url: str, attempts: int, last: BaseException):
        self.url = url
        self.attempts = attempts
        self.last = last
        super().__init__(f"{url} unreachable after {attempts} attempt(s): "
                         f"{type(last).__name__}: {last}")


class ServiceClient:
    """One daemon endpoint, every request wrapped in the retry policy.

    The deterministic-jitter sequence number only orders delays, so the
    worker's loop and its heartbeat hook may share one client.
    """

    def __init__(self, base_url: str, worker_id: str = ""):
        self.base_url = base_url.rstrip("/")
        self.worker_id = worker_id
        self._sleep = time.sleep
        self._seq = 0                 # deterministic-jitter request index

    def get(self, path: str) -> Dict:
        return self.request("GET", path)

    def post(self, path: str, doc: Optional[Dict] = None) -> Dict:
        return self.request("POST", path, doc=doc)

    def request(self, method: str, path: str, doc: Optional[Dict] = None,
                idempotency_key: Optional[str] = None) -> Dict:
        """One logical request; returns the parsed JSON body.

        Raises :class:`HttpStatusError` for an authoritative 4xx answer
        and :class:`TransportError` when every attempt failed.
        """
        url = self.base_url + path
        self._seq += 1
        seq = self._seq
        for attempt in range(1, RETRIES + 2):
            try:
                return self._attempt(method, url, doc, attempt,
                                     idempotency_key)
            except HttpStatusError as exc:
                if exc.status < 500 and exc.status != 429:
                    raise
                last: BaseException = exc
            except (urllib.error.URLError, OSError, EOFError,
                    http.client.HTTPException,
                    json.JSONDecodeError) as exc:
                # Connection refused/reset, timeout, truncated body
                # (http.client.IncompleteRead) or garbled body: the wire
                # failed, not the protocol.
                last = exc
            if attempt > RETRIES:
                break
            delay = backoff_delay(seq, attempt, BACKOFF, MAX_DELAY)
            if (isinstance(last, HttpStatusError) and last.status == 429
                    and last.retry_after is not None):
                # The server is alive and telling us to slow down.
                delay = min(last.retry_after, _MAX_RETRY_AFTER)
            self._sleep(delay)
        raise TransportError(url, attempt, last) from last

    def _attempt(self, method: str, url: str, doc: Optional[Dict],
                 attempt: int, idempotency_key: Optional[str]) -> Dict:
        headers = {
            "Content-Type": "application/json",
            "X-Repro-Worker": self.worker_id or "?",
            "X-Repro-Attempt": str(attempt),
        }
        if idempotency_key:
            headers["Idempotency-Key"] = idempotency_key
        data = None
        if method != "GET":
            data = json.dumps(doc or {}).encode()
        req = urllib.request.Request(url, data=data, method=method,
                                     headers=headers)
        try:
            with urllib.request.urlopen(req, timeout=TIMEOUT) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            try:
                body = exc.read().decode(errors="replace")
            except OSError:
                body = ""
            raise HttpStatusError(
                exc.code, url, body,
                retry_after=_parse_retry_after(exc.headers.get("Retry-After"))
            ) from exc
        # A truncated body parses as a JSON error -> retried upstream.
        parsed = json.loads(raw.decode())
        if not isinstance(parsed, dict):
            raise json.JSONDecodeError("expected a JSON object", "", 0)
        return parsed


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    if not value:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None
