"""Local worker processes driving a campaign's point table.

:func:`run_points` is the engine behind
:func:`~repro.harness.campaign.run_campaign`.  It moves points through
the :class:`~repro.harness.lease.PointTable` transitions the campaign
daemon applies for remote workers: a free slot ``claim_next``s a point
and simulates it in a forked worker process; a heartbeat ``renew``s the
lease, folding its payload into the shard (what ``repro watch DIR``
reads); a result ``complete``s the point; a crash or a ``timeout``
``fail``s it, and the reaper (``reap(max_attempts=retries + 1)``)
requeues it or leaves it ``failed``.  So the retry cap, generation
fencing and shard provenance are the daemon's own.  With ``jobs <= 1``
points run in-process with no fork, no timeout and no retry: a
simulation error fails the point and propagates typed.

Workers ship the result *entry* (the in-process observability hub holds
closures and never crosses the process boundary; its data is already
serialized into the entry).  The ``REPRO_INJECT_WORKER`` environment
hook lets the fault harness (:mod:`repro.guard.inject`) kill or hang
selected workers.

Graceful interruption: inside :func:`interrupt_guard`, the first SIGINT
or SIGTERM sets a flag instead of killing the process — the dispatch
loop stops claiming, flushes every completed result, hands in-flight
points back (``release``) and raises :class:`SweepInterrupted` (exit
code 130).  A second SIGINT restores the default handler and
re-delivers the signal, so an impatient operator can still hard-kill.
"""

import contextlib
import json
import multiprocessing as mp
import os
import queue as queue_mod
import signal
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.harness.lease import APPLIED, DEFAULT_LEASE_SECONDS, LeaseLost
from repro.harness.runcache import entry_from_result
from repro.harness.simulator import RunConfig, simulate

__all__ = ["run_points", "Progress", "SimulationFailed", "SweepInterrupted",
           "interrupt_guard", "poll_interrupt"]

# Worker fault-injection hook (see repro.guard.inject.worker_fault_env):
# a JSON spec {"mode": "kill"|"hang", "indices": [...], "max_attempt": N,
# "exit_code": int, "hang_seconds": float} consumed at worker startup.
_FAULT_ENV = "REPRO_INJECT_WORKER"

# How long the dispatch loop waits on the result queue before it checks
# deadlines and dead workers.
_POLL_SECONDS = 0.05


# ----------------------------------------------------------------------
# Graceful interruption (SIGINT/SIGTERM).
# ----------------------------------------------------------------------
class SweepInterrupted(RuntimeError):
    """A sweep stopped on SIGINT/SIGTERM after flushing completed work.

    ``done``/``total`` count fully-flushed runs; everything else was
    either never started or was handed back to ``pending``, so a
    ``--resume`` requeues exactly the unfinished points.
    """

    def __init__(self, done: int = 0, total: int = 0):
        self.done = done
        self.total = total
        super().__init__(f"interrupted after {done}/{total} runs")


class _InterruptState:
    """Shared flag between the signal handler and the dispatch loops."""

    def __init__(self):
        self.interrupted = False


# Stack of active guards: nested ``interrupt_guard`` uses share the
# outermost state, so one Ctrl-C stops every layer and handlers are
# installed exactly once.
_ACTIVE: List[_InterruptState] = []


@contextlib.contextmanager
def interrupt_guard():
    """Convert the first SIGINT/SIGTERM into a cooperative stop flag.

    Yields an :class:`_InterruptState`; loops poll ``state.interrupted``
    (or call :func:`poll_interrupt`) at safe stopping points.  A second
    SIGINT restores the default disposition and re-delivers the signal —
    a true hard kill, not a politeness escalation.  Reentrant: an inner
    guard joins the outer one.  In non-main threads (where ``signal``
    refuses handler installation) the guard degrades to a no-op flag.
    """
    if _ACTIVE:
        yield _ACTIVE[-1]
        return
    state = _InterruptState()

    def _handler(signum, frame):
        if state.interrupted and signum == signal.SIGINT:
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGINT)
            return
        state.interrupted = True

    previous = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, _handler)
    except ValueError:
        # Not the main thread: handlers cannot be installed; the flag
        # still works if someone else sets it.
        pass
    _ACTIVE.append(state)
    try:
        yield state
    finally:
        _ACTIVE.pop()
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, TypeError):
                pass


def poll_interrupt(done: int = 0, total: int = 0) -> None:
    """Raise :class:`SweepInterrupted` if an active guard caught a signal.

    A no-op outside any :func:`interrupt_guard`, so library code can call
    it unconditionally at loop boundaries (sampled-region evaluation)
    without caring who set the guard up.
    """
    if _ACTIVE and _ACTIVE[-1].interrupted:
        raise SweepInterrupted(done, total)


def _maybe_inject_worker_fault(index: int, attempt: int) -> None:
    spec = os.environ.get(_FAULT_ENV)
    if not spec:
        return
    try:
        doc = json.loads(spec)
    except ValueError:
        return
    if index not in doc.get("indices", ()):
        return
    if attempt > int(doc.get("max_attempt", 0)):
        return  # the retry runs clean — that is the recovery under test
    if doc.get("mode") == "kill":
        os._exit(int(doc.get("exit_code", 23)))
    elif doc.get("mode") == "hang":
        time.sleep(float(doc.get("hang_seconds", 3600.0)))


@dataclass
class Progress:
    """One progress-callback notification.

    ``kind`` is ``"start"``, ``"retry"`` (a claim of a point the reaper
    requeued after a failed attempt), ``"done"`` or ``"failed"`` (out of
    attempts); ``done_count``/``total`` count finished points among
    those this run had to simulate.
    """

    kind: str
    config: RunConfig
    done_count: int
    total: int
    wall_seconds: float = 0.0
    error: Optional[str] = None


class SimulationFailed(RuntimeError):
    """A run failed (or timed out) on every attempt."""

    def __init__(self, failures):
        self.failures = failures  # list of (index, config, error)
        lines = [f"  [{i}] {c.workload}/{c.engine}: {err}"
                 for i, c, err in failures]
        super().__init__("simulation run(s) failed:\n" + "\n".join(lines))


def _worker(key: str, index: int, attempt: int, config: RunConfig, out_q,
            heartbeat_interval: float) -> None:
    # Forked inside the parent's interrupt_guard, the child inherits its
    # cooperative handlers: SIGTERM would set a flag instead of killing,
    # so ``proc.terminate()`` (timeouts, interruption cleanup) would hang
    # on join.  Restore the default SIGTERM disposition and ignore SIGINT
    # — a terminal Ctrl-C hits the whole process group, and the *parent*
    # decides whether in-flight workers drain or die.
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread start
        pass
    _maybe_inject_worker_fault(index, attempt - 1)
    # Messages share the one result channel, tagged by kind: "hb" frames
    # stream progress mid-run, the single "res" frame ends the attempt.
    try:
        result = simulate(
            config, heartbeat_interval=heartbeat_interval,
            on_heartbeat=lambda p: out_q.put(("hb", key, attempt, p)))
        out_q.put(("res", key, attempt, entry_from_result(result), None))
    except BaseException as exc:  # ship *any* worker death to the parent
        out_q.put(("res", key, attempt, None, repr(exc)))


@dataclass
class _Slot:
    """One in-flight worker process."""

    proc: object
    worker: str
    attempt: int          # the shard's attempts at claim: tags its frames
    start: float
    deadline: Optional[float]


class _Run:
    """The transitions one :func:`run_points` call makes, plus the
    progress notifications they imply."""

    def __init__(self, table, points, retries, progress, cache,
                 heartbeat_interval):
        self.table = table
        self.points = points
        self.max_attempts = retries + 1
        self.progress = progress
        self.cache = cache
        self.heartbeat_interval = heartbeat_interval
        # Leases only bound how long a silent worker is trusted; live
        # workers renew on every heartbeat.
        self.lease = max(DEFAULT_LEASE_SECONDS, 4 * heartbeat_interval)
        self.total = table.summary()[0].get("pending", 0)
        self.done_count = 0
        self.failures: List[Tuple[int, RunConfig, str]] = []

    def _note(self, kind: str, key: str, **fields) -> None:
        if self.progress is not None:
            self.progress(Progress(kind, self.points[key][1],
                                   self.done_count, self.total, **fields))

    def claim(self, worker: str) -> Optional[Tuple[str, int]]:
        """``(key, attempt)`` of the next pending point, or None."""
        got = self.table.claim_next(worker, self.lease)
        if got is None:
            return None
        key, shard = got
        self._note("retry" if shard.get("requeued") == "retry" else "start",
                   key)
        return key, shard["attempts"]

    def beat(self, key: str, worker: str, payload: Dict) -> None:
        try:
            self.table.renew(key, worker, self.lease, hb=payload)
        except LeaseLost:
            pass    # reaped meanwhile: the frame is stale

    def complete(self, key: str, worker: str, entry: Dict,
                 wall: float) -> None:
        if (self.table.complete(key, worker, entry) == APPLIED
                and self.cache is not None):
            self.cache.put(self.points[key][1], entry)
        self.done_count += 1
        self._note("done", key, wall_seconds=wall)

    def fail(self, key: str, worker: str, error: str, wall: float):
        """Fail the attempt and reap; the reaper's verdicts."""
        self.table.fail(key, worker, error)
        reaped = self.table.reap(max_attempts=self.max_attempts)
        if self.table.read_point(key)["status"] == "failed":
            index, config = self.points[key]
            self.failures.append((index, config, error))
            self.done_count += 1
            self._note("failed", key, wall_seconds=wall, error=error)
        return reaped


def run_points(table, points: Dict[str, Tuple[int, RunConfig]],
               jobs: Optional[int] = None, timeout: Optional[float] = None,
               retries: int = 1, progress=None, cache=None,
               heartbeat_interval: float = 1.0) -> None:
    """Simulate every pending point of ``table`` with local workers.

    ``points`` maps each key to ``(index, RunConfig)``, the index being
    the config's position in the caller's list (fault injection and
    :class:`SimulationFailed` name points by it).  ``jobs=None`` uses
    ``os.cpu_count()``.  Each pool attempt gets ``timeout`` seconds
    (None = unlimited); a point gets ``retries + 1`` attempts in all,
    counting those a journal recorded before a resume.  Raises
    :class:`SimulationFailed` for points out of attempts and
    :class:`SweepInterrupted` on SIGINT/SIGTERM.
    """
    run = _Run(table, points, retries, progress, cache, heartbeat_interval)
    if not run.total:
        return
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = min(jobs, run.total)
    with interrupt_guard() as istate:
        if jobs <= 1:
            _run_serial(run, istate)
        else:
            _run_pool(run, jobs, timeout, istate)
    if run.failures:
        raise SimulationFailed(sorted(run.failures, key=lambda f: f[0]))


def _run_serial(run: _Run, istate) -> None:
    worker = "local-1"
    while not istate.interrupted:
        got = run.claim(worker)
        if got is None:
            return
        key, _ = got
        start = time.time()
        try:
            result = simulate(
                run.points[key][1], heartbeat_interval=run.heartbeat_interval,
                on_heartbeat=lambda p, _k=key: run.beat(_k, worker, p))
        except BaseException as exc:
            run.table.fail(key, worker, repr(exc))
            raise
        run.complete(key, worker, entry_from_result(result),
                     time.time() - start)
    raise SweepInterrupted()


def _run_pool(run: _Run, jobs: int, timeout: Optional[float],
              istate) -> None:
    ctx = mp.get_context()
    out_q = ctx.Queue()
    free = [f"local-{n}" for n in range(jobs, 0, -1)]
    running: Dict[str, _Slot] = {}

    def spawn() -> None:
        while free and not istate.interrupted:
            got = run.claim(free[-1])
            if got is None:
                return
            key, attempt = got
            index, config = run.points[key]
            proc = ctx.Process(target=_worker, daemon=True,
                               args=(key, index, attempt, config, out_q,
                                     run.heartbeat_interval))
            proc.start()
            now = time.time()
            running[key] = _Slot(proc, free.pop(), attempt, now,
                                 now + timeout if timeout else None)

    def retire(key: str) -> _Slot:
        slot = running.pop(key)
        slot.proc.join()
        free.append(slot.worker)
        return slot

    def finish(key: str, entry: Optional[Dict], error: Optional[str]) -> None:
        slot = retire(key)
        wall = time.time() - slot.start
        if entry is not None:
            run.complete(key, slot.worker, entry, wall)
            return
        for other, _, _ in run.fail(key, slot.worker, error, wall):
            if other in running:
                # The reaper requeued a live process's point (its lease
                # lapsed without a heartbeat): it is wedged.
                running[other].proc.terminate()
                retire(other)

    def dispatch(msg) -> None:
        """Route one tagged frame; frames from attempts already retired
        (e.g. a timed-out worker flushing before dying) are dropped."""
        kind, key, attempt = msg[:3]
        slot = running.get(key)
        if slot is None or slot.attempt != attempt:
            return
        if kind == "hb":
            run.beat(key, slot.worker, msg[3])
        else:
            finish(key, msg[3], msg[4])

    try:
        while True:
            if istate.interrupted:
                # Flush frames already on the queue (workers that
                # finished but were not yet reaped): nothing done is lost.
                with contextlib.suppress(queue_mod.Empty):
                    while True:
                        dispatch(out_q.get_nowait())
                raise SweepInterrupted()
            spawn()
            if not running:
                return
            try:
                dispatch(out_q.get(timeout=_POLL_SECONDS))
                continue
            except queue_mod.Empty:
                pass
            now = time.time()
            for key, slot in list(running.items()):
                if key not in running:
                    continue
                if slot.deadline is not None and now > slot.deadline:
                    slot.proc.terminate()
                    finish(key, None, f"timeout after {timeout:.1f}s")
                elif not slot.proc.is_alive():
                    # Died without reporting (e.g. hard kill): drain any
                    # late frame first (possibly its own result), then
                    # treat it as a crash.
                    try:
                        dispatch(out_q.get_nowait())
                    except queue_mod.Empty:
                        finish(key, None, "worker exited with code "
                               f"{slot.proc.exitcode}")
    finally:
        for slot in running.values():
            slot.proc.terminate()
        for key, slot in running.items():
            slot.proc.join()
            run.table.release(key, slot.worker)
        out_q.close()
