"""In-process network-chaos proxy for the worker<->daemon protocol.

A tiny TCP proxy that sits between workers and the campaign daemon and
injects the failures a real network provides for free, from a *seeded*
fault plan so every chaos run is reproducible:

* **latency** — a drawn delay before the request is forwarded;
* **drop** — the client connection is closed before anything is
  forwarded (connection-reset / empty-response territory);
* **error** — an HTTP 500 is synthesized and returned without the
  request ever reaching the daemon;
* **truncate** — the request is forwarded but only half of the daemon's
  response bytes come back before the connection closes (the
  dropped-response shape that makes idempotency keys earn their keep);
* **duplicate** — the request is delivered to the daemon *twice* and the
  client sees only the second response — exactly what a retried publish
  looks like daemon-side, so first-done-wins and the idempotency store
  get exercised against real double deliveries;
* **corrupt** — one byte of the daemon's response *body* to a
  ``POST /complete`` is flipped in flight (length-preserving XOR, so
  Content-Length still matches).  The garbled JSON fails to parse
  client-side and is retried under the same idempotency key — wire
  corruption that a checksumless protocol would swallow becomes just
  another retriable failure, distinct from the *silent* worker-side
  corruption (``REPRO_SERVICE_INJECT`` ``corrupt_after_claims``) that
  only the audit subsystem can catch.

The proxy assumes one HTTP request per connection, which is what both
``urllib`` clients and the daemon's HTTP/1.0 responses produce; it reads
one request (headers + ``Content-Length`` body), forwards it, and
streams the response until the daemon closes.  ``retarget()`` repoints
the backend — how the chaos suites restart a daemon on a new port while
workers keep hammering one stable proxy URL.

Also runnable as a process for CI::

    python -m repro.service.chaosproxy --port 8342 \\
        --backend 127.0.0.1:8341 --seed 7 --error-rate 0.15 \\
        --drop-rate 0.10 --truncate-rate 0.10 --duplicate-rate 0.10 \\
        --latency-rate 0.3 --latency-seconds 0.05
"""

import argparse
import random
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["FaultPlan", "ChaosProxy"]

_MAX_HEAD = 64 * 1024
_IO_TIMEOUT = 30.0

# The order faults are drawn per connection. Fixed so a (seed, plan)
# pair names one exact fault sequence regardless of host or run.
# "corrupt" was appended (never insert mid-tuple: existing seeded runs
# must keep replaying the same drop/error/... prefix).
FAULTS = ("drop", "error", "truncate", "duplicate", "latency", "corrupt")


@dataclass
class FaultPlan:
    """Seeded per-connection fault probabilities.

    Each accepted connection draws one uniform variate per fault kind,
    in :data:`FAULTS` order, from a single ``random.Random(seed)``
    stream — the plan is a pure function of (seed, connection index), so
    a failing chaos run replays exactly.
    """

    seed: int = 0
    drop_rate: float = 0.0
    error_rate: float = 0.0
    truncate_rate: float = 0.0
    duplicate_rate: float = 0.0
    latency_rate: float = 0.0
    latency_seconds: float = 0.05
    corrupt_rate: float = 0.0

    def __post_init__(self):
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    def draw(self) -> Dict[str, bool]:
        """The fault set for the next connection (deterministic order)."""
        with self._lock:
            rolls = {name: self._rng.random() for name in FAULTS}
        return {
            "drop": rolls["drop"] < self.drop_rate,
            "error": rolls["error"] < self.error_rate,
            "truncate": rolls["truncate"] < self.truncate_rate,
            "duplicate": rolls["duplicate"] < self.duplicate_rate,
            "latency": rolls["latency"] < self.latency_rate,
            "corrupt": rolls["corrupt"] < self.corrupt_rate,
        }


_ERROR_BODY = b'{"error": "chaos-injected 500"}\n'
_ERROR_RESPONSE = (b"HTTP/1.0 500 Internal Server Error\r\n"
                   b"Content-Type: application/json\r\n"
                   b"Content-Length: " + str(len(_ERROR_BODY)).encode()
                   + b"\r\nConnection: close\r\n\r\n" + _ERROR_BODY)


class ChaosProxy:
    """One listening socket in front of one (retargetable) backend."""

    def __init__(self, backend_host: str, backend_port: int,
                 plan: Optional[FaultPlan] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 log: bool = False):
        self.plan = plan or FaultPlan()
        self.host = host
        self._requested_port = port
        self._backend = (backend_host, int(backend_port))
        self._backend_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._log_enabled = log
        self.connections = 0
        self.injected: Dict[str, int] = {name: 0 for name in FAULTS}
        self.forwarded = 0
        self._counters_lock = threading.Lock()

    # ------------------------------------------------------------ control
    @property
    def port(self) -> int:
        return self._listener.getsockname()[1] if self._listener else 0

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def backend(self) -> Tuple[str, int]:
        with self._backend_lock:
            return self._backend

    def retarget(self, host: str, port: int) -> None:
        """Point at a new backend (daemon restarted on another port)."""
        with self._backend_lock:
            self._backend = (host, int(port))

    def start(self) -> "ChaosProxy":
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self._requested_port))
        self._listener.listen(64)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-chaos-proxy", daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown() does, so the join below returns at once.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def counters(self) -> Dict:
        with self._counters_lock:
            return {"connections": self.connections,
                    "forwarded": self.forwarded,
                    "injected": dict(self.injected)}

    def _log(self, msg: str) -> None:
        if self._log_enabled:
            print(f"chaosproxy: {msg}", file=sys.stderr, flush=True)

    def _count(self, name: str) -> None:
        with self._counters_lock:
            self.injected[name] += 1

    # ------------------------------------------------------- connections
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            with self._counters_lock:
                self.connections += 1
            faults = self.plan.draw()
            threading.Thread(target=self._serve, args=(conn, faults),
                             daemon=True).start()

    def _serve(self, conn: socket.socket, faults: Dict[str, bool]) -> None:
        try:
            conn.settimeout(_IO_TIMEOUT)
            if faults["latency"]:
                self._count("latency")
                time.sleep(self.plan.latency_seconds)
            if faults["drop"]:
                self._count("drop")
                self._log("drop: closing client connection unforwarded")
                return
            request = _read_http_message(conn)
            if request is None:
                return
            if faults["error"]:
                self._count("error")
                self._log("error: synthesizing 500")
                conn.sendall(_ERROR_RESPONSE)
                return
            deliveries = 2 if faults["duplicate"] else 1
            if faults["duplicate"]:
                self._count("duplicate")
                self._log("duplicate: delivering request twice")
            response = b""
            for _ in range(deliveries):
                response = self._exchange(request)
                if response is None:
                    return  # backend unreachable: client sees the reset
            with self._counters_lock:
                self.forwarded += 1
            if faults["truncate"] and len(response) > 1:
                self._count("truncate")
                self._log(f"truncate: sending {len(response) // 2}"
                          f"/{len(response)} bytes")
                conn.sendall(response[:len(response) // 2])
                return
            if faults["corrupt"]:
                corrupted = _corrupt_complete_response(request, response)
                if corrupted is not None:
                    self._count("corrupt")
                    self._log("corrupt: flipping one /complete "
                              "response-body byte")
                    response = corrupted
            conn.sendall(response)
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _exchange(self, request: bytes) -> Optional[bytes]:
        """One full request/response round-trip with the backend."""
        host, port = self.backend()
        try:
            with socket.create_connection((host, port),
                                          timeout=_IO_TIMEOUT) as upstream:
                upstream.sendall(request)
                chunks: List[bytes] = []
                while True:
                    chunk = upstream.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
                return b"".join(chunks)
        except OSError:
            return None


def _corrupt_complete_response(request: bytes,
                               response: bytes) -> Optional[bytes]:
    """Flip one body byte of a ``POST /complete`` response, or None.

    Length-preserving (XOR 0x01 on the first body byte), so the
    Content-Length header stays truthful and the client reads the full
    — garbled — body.  Only ``/complete`` responses are touched: that is
    the exchange whose loss-or-garbling the publish retry loop must
    absorb without double-applying.
    """
    if not request.startswith(b"POST /complete"):
        return None
    head, sep, body = response.partition(b"\r\n\r\n")
    if not sep or not body:
        return None
    flipped = bytes([body[0] ^ 0x01]) + body[1:]
    return head + sep + flipped


def _read_http_message(conn: socket.socket) -> Optional[bytes]:
    """Read one HTTP request (head + Content-Length body) off ``conn``."""
    buf = b""
    while b"\r\n\r\n" not in buf:
        if len(buf) > _MAX_HEAD:
            return None
        try:
            chunk = conn.recv(65536)
        except OSError:
            return None
        if not chunk:
            return buf or None
        buf += chunk
    head, _, rest = buf.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            try:
                length = int(value.strip())
            except ValueError:
                length = 0
    body = rest
    while len(body) < length:
        try:
            chunk = conn.recv(65536)
        except OSError:
            return None
        if not chunk:
            break
        body += chunk
    return head + b"\r\n\r\n" + body


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.chaosproxy",
        description="seeded network-chaos proxy for the campaign service")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (0 = ephemeral, printed)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--backend", required=True, metavar="HOST:PORT",
                        help="daemon address to forward to")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--drop-rate", type=float, default=0.0)
    parser.add_argument("--error-rate", type=float, default=0.0)
    parser.add_argument("--truncate-rate", type=float, default=0.0)
    parser.add_argument("--duplicate-rate", type=float, default=0.0)
    parser.add_argument("--latency-rate", type=float, default=0.0)
    parser.add_argument("--latency-seconds", type=float, default=0.05)
    parser.add_argument("--corrupt-rate", type=float, default=0.0,
                        help="byte-flip rate for /complete response "
                             "bodies")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    backend_host, _, backend_port = args.backend.partition(":")
    plan = FaultPlan(seed=args.seed, drop_rate=args.drop_rate,
                     error_rate=args.error_rate,
                     truncate_rate=args.truncate_rate,
                     duplicate_rate=args.duplicate_rate,
                     latency_rate=args.latency_rate,
                     latency_seconds=args.latency_seconds,
                     corrupt_rate=args.corrupt_rate)
    proxy = ChaosProxy(backend_host, int(backend_port or 80), plan=plan,
                       host=args.host, port=args.port, log=args.verbose)
    proxy.start()
    print(f"chaosproxy: {proxy.url} -> {args.backend} "
          f"(seed={args.seed})", flush=True)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        proxy.stop()
        print(f"chaosproxy: {proxy.counters()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
