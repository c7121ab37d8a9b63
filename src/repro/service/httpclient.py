"""Resilient HTTP/JSON client for the worker<->daemon protocol.

``urllib`` alone treats the network as either perfect or fatal; a fleet
of remote workers needs the middle ground.  :class:`ServiceClient` wraps
every request with:

* **per-request timeouts** — a wedged daemon costs one timeout, not a
  hung worker;
* **bounded retries with deterministic backoff** — delays come from
  :func:`backoff_delay` (exponential backoff scaled by jitter seeded
  from the request sequence number), so two reruns of
  the same worker sleep identically: retry storms decorrelate without
  sacrificing reproducibility;
* **status-aware error handling** — ``429`` sleeps the server's
  ``Retry-After`` hint, ``404`` raises :class:`NotFound` immediately
  (the resource is authoritatively gone; retrying is noise), other 4xx
  raise :class:`HttpStatusError` without retry (the request is wrong,
  not the network), and 5xx / connection-refused / timeouts / truncated
  bodies are retried;
* **a circuit breaker** — after ``breaker_threshold`` consecutive
  transport failures the breaker *opens* and requests fail fast with
  :class:`CircuitOpen` for ``breaker_reset_seconds``; then one probe is
  allowed through (*half-open*) and a success closes the breaker.  A
  dead daemon therefore degrades a worker to a slow reconnect loop
  instead of an exit;
* **repeat-safe retries** — retrying a publish whose first response
  was dropped is safe because the daemon's point table answers a repeat
  from the shard instead of re-applying it.  (``request`` still accepts
  an ``idempotency_key`` and sends it as a header; the daemon ignores
  it.)

Every request also carries ``X-Repro-Worker``, ``X-Repro-Attempt`` (1 on
the first try) and ``X-Repro-Breaker-Opens`` headers, which is how the
daemon's ``repro_service_http_*`` metrics see client-side retries and
breaker trips without a separate push channel.
"""

import http.client
import json
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

__all__ = ["ServiceClient", "backoff_delay", "ClientStats", "HttpStatusError", "NotFound",
           "TransportError", "CircuitOpen", "BREAKER_CLOSED", "BREAKER_OPEN",
           "BREAKER_HALF_OPEN"]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

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


class NotFound(HttpStatusError):
    """404: the campaign (or route) is authoritatively gone."""


class TransportError(RuntimeError):
    """The network failed on every allowed attempt (connection refused,
    timeout, reset, truncated body)."""

    def __init__(self, url: str, attempts: int, last: BaseException):
        self.url = url
        self.attempts = attempts
        self.last = last
        super().__init__(f"{url} unreachable after {attempts} attempt(s): "
                         f"{type(last).__name__}: {last}")


class CircuitOpen(RuntimeError):
    """The breaker is open: the daemon looked dead recently; fail fast."""

    def __init__(self, base_url: str, retry_in: float):
        self.base_url = base_url
        self.retry_in = max(0.0, retry_in)
        super().__init__(f"circuit open for {base_url}; "
                         f"retry in {self.retry_in:.1f}s")


@dataclass
class ClientStats:
    """Counters one client accumulated (folded into worker reports)."""

    requests: int = 0        # logical requests (not attempts)
    attempts: int = 0
    retries: int = 0         # attempts beyond the first
    failures: int = 0        # requests that exhausted every attempt
    status_429: int = 0
    breaker_opens: int = 0
    breaker_fast_fails: int = 0
    slept_seconds: float = 0.0
    by_status: Dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        doc = dict(self.__dict__)
        doc["by_status"] = {str(k): v for k, v in self.by_status.items()}
        doc["slept_seconds"] = round(self.slept_seconds, 3)
        return doc


class ServiceClient:
    """One daemon endpoint, wrapped in retries + a circuit breaker.

    Thread-compatible for the worker's use (one loop thread plus the
    heartbeat hook running in the same thread); the breaker state is
    plain attributes guarded by the GIL, and the deterministic-jitter
    sequence number only orders delays, so benign races cost nothing.
    """

    def __init__(self, base_url: str,
                 worker_id: str = "",
                 timeout: float = 10.0,
                 retries: int = 4,
                 backoff: float = 0.25,
                 max_delay: float = 4.0,
                 breaker_threshold: int = 5,
                 breaker_reset_seconds: float = 5.0,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic):
        self.base_url = base_url.rstrip("/")
        self.worker_id = worker_id
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.max_delay = max_delay
        self.breaker_threshold = max(1, breaker_threshold)
        self.breaker_reset_seconds = breaker_reset_seconds
        self.stats = ClientStats()
        self._sleep = sleep
        self._clock = clock
        self._seq = 0                 # deterministic-jitter request index
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None

    # ----------------------------------------------------------- breaker
    def breaker_state(self) -> str:
        if self._opened_at is None:
            return BREAKER_CLOSED
        if self._clock() - self._opened_at >= self.breaker_reset_seconds:
            return BREAKER_HALF_OPEN
        return BREAKER_OPEN

    def breaker_retry_in(self) -> float:
        if self._opened_at is None:
            return 0.0
        return max(0.0, self.breaker_reset_seconds
                   - (self._clock() - self._opened_at))

    def _record_transport_failure(self) -> None:
        self._consecutive_failures += 1
        if (self._consecutive_failures >= self.breaker_threshold
                and self._opened_at is None):
            self._opened_at = self._clock()
            self.stats.breaker_opens += 1

    def _record_success(self) -> None:
        self._consecutive_failures = 0
        self._opened_at = None

    def _reopen(self) -> None:
        """A half-open probe failed: open again for a fresh reset window."""
        self._opened_at = self._clock()
        self.stats.breaker_opens += 1

    # ---------------------------------------------------------- requests
    def get(self, path: str) -> Dict:
        return self.request("GET", path)

    def post(self, path: str, doc: Optional[Dict] = None) -> Dict:
        return self.request("POST", path, doc=doc)

    def request(self, method: str, path: str, doc: Optional[Dict] = None,
                idempotency_key: Optional[str] = None) -> Dict:
        """One logical request; returns the parsed JSON body.

        Raises :class:`NotFound` / :class:`HttpStatusError` for
        authoritative server answers, :class:`TransportError` when every
        attempt failed on the wire, :class:`CircuitOpen` without touching
        the network while the breaker is open.
        """
        state = self.breaker_state()
        if state == BREAKER_OPEN:
            self.stats.breaker_fast_fails += 1
            raise CircuitOpen(self.base_url, self.breaker_retry_in())
        half_open_probe = state == BREAKER_HALF_OPEN

        url = self.base_url + path
        self.stats.requests += 1
        self._seq += 1
        seq = self._seq
        # A half-open probe gets exactly one attempt: its job is to test
        # the daemon, not to grind through a retry budget.
        budget = 1 if half_open_probe else self.retries + 1
        last_exc: BaseException = RuntimeError("no attempt made")
        attempt = 0
        while attempt < budget:
            attempt += 1
            self.stats.attempts += 1
            if attempt > 1:
                self.stats.retries += 1
            try:
                body = self._attempt(method, url, doc, attempt,
                                     idempotency_key)
            except HttpStatusError as exc:
                self.stats.by_status[exc.status] = \
                    self.stats.by_status.get(exc.status, 0) + 1
                if exc.status == 429:
                    # The server is alive and telling us to slow down.
                    self._record_success()
                    self.stats.status_429 += 1
                    hint = min(exc.retry_after
                               if exc.retry_after is not None else
                               backoff_delay(seq, attempt, self.backoff,
                                           self.max_delay),
                               _MAX_RETRY_AFTER)
                    last_exc = exc
                    if attempt < budget:
                        self._do_sleep(hint)
                        continue
                    raise TransportError(url, attempt, exc) from exc
                if exc.status >= 500:
                    last_exc = exc
                    if half_open_probe:
                        self._reopen()
                        raise TransportError(url, attempt, exc) from exc
                    self._record_transport_failure()
                    if (attempt < budget
                            and self.breaker_state() != BREAKER_OPEN):
                        self._do_sleep(backoff_delay(seq, attempt,
                                                   self.backoff,
                                                   self.max_delay))
                        continue
                    self.stats.failures += 1
                    raise TransportError(url, attempt, exc) from exc
                # Authoritative 4xx: the daemon is healthy, the request
                # (or the resource) is not. Never retried.
                self._record_success()
                raise
            except (urllib.error.URLError, OSError, EOFError,
                    http.client.HTTPException,
                    json.JSONDecodeError) as exc:
                # Connection refused/reset, timeout, truncated body
                # (http.client.IncompleteRead) or garbled body: the wire
                # failed, not the protocol.
                last_exc = exc
                if half_open_probe:
                    self._reopen()
                    raise TransportError(url, attempt, exc) from exc
                self._record_transport_failure()
                if (attempt < budget
                        and self.breaker_state() != BREAKER_OPEN):
                    self._do_sleep(backoff_delay(seq, attempt, self.backoff,
                                               self.max_delay))
                    continue
                self.stats.failures += 1
                raise TransportError(url, attempt, exc) from exc
            else:
                self._record_success()
                self.stats.by_status[200] = \
                    self.stats.by_status.get(200, 0) + 1
                return body
        self.stats.failures += 1
        raise TransportError(url, attempt, last_exc)

    # ----------------------------------------------------------- plumbing
    def _attempt(self, method: str, url: str, doc: Optional[Dict],
                 attempt: int, idempotency_key: Optional[str]) -> Dict:
        headers = {
            "Content-Type": "application/json",
            "X-Repro-Worker": self.worker_id or "?",
            "X-Repro-Attempt": str(attempt),
            "X-Repro-Breaker-Opens": str(self.stats.breaker_opens),
        }
        if idempotency_key:
            headers["Idempotency-Key"] = idempotency_key
        data = None
        if method != "GET":
            data = json.dumps(doc or {}).encode()
        req = urllib.request.Request(url, data=data, method=method,
                                     headers=headers)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            try:
                body = exc.read().decode(errors="replace")
            except OSError:
                body = ""
            retry_after = _parse_retry_after(exc.headers.get("Retry-After"))
            if exc.code == 404:
                raise NotFound(404, url, body) from exc
            raise HttpStatusError(exc.code, url, body,
                                  retry_after=retry_after) from exc
        # A truncated body parses as a JSON error -> retried upstream.
        parsed = json.loads(raw.decode())
        if not isinstance(parsed, dict):
            raise json.JSONDecodeError("expected a JSON object", "", 0)
        return parsed

    def _do_sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        self.stats.slept_seconds += seconds
        self._sleep(seconds)


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    if not value:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None
