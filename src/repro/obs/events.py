"""Structured event tracing and Chrome trace-event export.

:class:`EventTrace` is a bounded ring buffer of typed simulation events —
helper-thread lifecycle (construct / trigger / terminate), desyncs, DBT
evictions, queue not-timely fetches, full squashes.  Events carry the
simulated cycle as their timestamp.

:func:`to_chrome_trace` renders events (optionally merged with a
:class:`~repro.core.trace.PipelineTracer`'s per-uop stage timelines) as
Chrome trace-event JSON — the ``[{name, ph, ts, pid, tid, ...}, ...]``
array format that ``chrome://tracing`` and Perfetto load directly.  One
simulated cycle maps to one trace microsecond.
"""

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = ["Event", "EventTrace", "to_chrome_trace", "write_chrome_trace",
           "pipeline_trace_events", "ENGINE_TID"]

# Synthetic trace "thread" for controller-level events, clear of real
# thread-context ids (which start at 0 and grow monotonically).
ENGINE_TID = 1000


@dataclass
class Event:
    """One simulation event.

    ``phase`` follows the Chrome trace-event phase letters: ``"i"``
    (instant), ``"B"``/``"E"`` (duration begin/end).
    """

    cycle: int
    name: str
    category: str = "engine"
    tid: int = ENGINE_TID
    phase: str = "i"
    args: Dict = field(default_factory=dict)


class EventTrace:
    """Fixed-capacity ring buffer of :class:`Event` objects.

    Old events are dropped FIFO; ``dropped`` counts them so exported
    traces are honest about truncation.
    """

    def __init__(self, capacity: int = 65_536):
        self.capacity = capacity
        self.buffer: deque = deque(maxlen=capacity)
        self.emitted = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    def emit(self, cycle: int, name: str, category: str = "engine",
             tid: int = ENGINE_TID, phase: str = "i", **args) -> None:
        if len(self.buffer) == self.capacity:
            self.dropped += 1
        self.buffer.append(Event(cycle, name, category, tid, phase, args))
        self.emitted += 1

    # Typed emitters — one per event family, so call sites read like the
    # paper's vocabulary and grep finds every producer.
    def helper_construct(self, cycle: int, start_pc: int, status: str) -> None:
        self.emit(cycle, "helper_construct", "lifecycle",
                  start_pc=f"{start_pc:#x}", status=status)

    def helper_trigger(self, cycle: int, start_pc: int, nested: bool) -> None:
        self.emit(cycle, f"helper@{start_pc:#x}", "lifecycle", phase="B",
                  start_pc=f"{start_pc:#x}", nested=nested)

    def helper_terminate(self, cycle: int, start_pc: int, reason: str) -> None:
        self.emit(cycle, f"helper@{start_pc:#x}", "lifecycle", phase="E",
                  start_pc=f"{start_pc:#x}", reason=reason)

    def desync(self, cycle: int, pc: int) -> None:
        self.emit(cycle, "desync", "anomaly", pc=f"{pc:#x}")

    def dbt_evict(self, cycle: int, pc: int) -> None:
        self.emit(cycle, "dbt_evict", "training", pc=f"{pc:#x}")

    def queue_not_timely(self, cycle: int, pc: int) -> None:
        self.emit(cycle, "queue_not_timely", "queues", pc=f"{pc:#x}")

    def full_squash(self, cycle: int) -> None:
        self.emit(cycle, "full_squash", "pipeline", tid=0)

    # Guard subsystem (repro.guard): health failures and injected faults.
    def divergence(self, cycle: int, kind: str, pc: int) -> None:
        self.emit(cycle, "divergence", "guard", kind=kind, pc=f"{pc:#x}")

    def invariant_violation(self, cycle: int, violations) -> None:
        self.emit(cycle, "invariant_violation", "guard",
                  violations=list(violations))

    def hang(self, cycle: int, stalled_for: int, last_commit_cycle: int) -> None:
        self.emit(cycle, "hang", "guard", stalled_for=stalled_for,
                  last_commit_cycle=last_commit_cycle)

    def fault_injected(self, cycle: int, kind: str, **detail) -> None:
        self.emit(cycle, "fault_injected", "chaos", kind=kind, **detail)

    def shard_quarantined(self, path: str, kind: str) -> None:
        self.emit(0, "shard_quarantined", "guard", path=str(path), kind=kind)

    def campaign_interrupted(self, done: int, total: int) -> None:
        """A sweep stopped on SIGINT/SIGTERM with ``done``/``total`` points
        flushed; host-level, so the cycle timestamp is meaningless (0)."""
        self.emit(0, "campaign_interrupted", "campaign", done=done,
                  total=total)

    # Campaign service (repro.service): daemon lifecycle.  All host-level
    # (cycle 0), like campaign_interrupted above.
    def campaign_submitted(self, campaign: str, points: int) -> None:
        self.emit(0, "campaign_submitted", "campaign", campaign=campaign,
                  points=points)

    def campaign_activated(self, campaign: str, points: int,
                           deduped: int) -> None:
        self.emit(0, "campaign_activated", "campaign", campaign=campaign,
                  points=points, deduped=deduped)

    def campaign_completed(self, campaign: str, status: str) -> None:
        self.emit(0, "campaign_completed", "campaign", campaign=campaign,
                  status=status)

    def campaign_cancelled(self, campaign: str) -> None:
        self.emit(0, "campaign_cancelled", "campaign", campaign=campaign)

    def point_claimed(self, campaign: str, key: str, worker: str) -> None:
        """A remote worker won one point over the HTTP lease protocol."""
        self.emit(0, "point_claimed", "campaign", campaign=campaign,
                  key=key, worker=worker)

    def lease_reaped(self, campaign: str, key: str, reason: str) -> None:
        """The service reaper requeued one point (dead worker, stale
        claim, or a failed-point retry)."""
        self.emit(0, "lease_reaped", "campaign", campaign=campaign,
                  key=key, reason=reason)

    # Result-integrity subsystem (repro.service.integrity).
    def audit_mismatch(self, campaign: str, key: str, original_worker: str,
                       audit_worker: str) -> None:
        """A sampled audit re-execution fingerprint-diverged from the
        originally published entry; arbitration follows."""
        self.emit(0, "audit_mismatch", "campaign", campaign=campaign,
                  key=key, original_worker=original_worker,
                  audit_worker=audit_worker)

    def worker_quarantined(self, worker: str, score: float,
                           reason: str) -> None:
        """A worker's reputation score crossed the quarantine threshold;
        the scheduler stops offering it work."""
        self.emit(0, "worker_quarantined", "campaign", worker=worker,
                  score=score, reason=reason)

    def point_poisoned(self, campaign: str, key: str, workers) -> None:
        """A point failed under enough *distinct* workers that the
        breaker declared it terminally poisoned instead of retrying."""
        self.emit(0, "point_poisoned", "campaign", campaign=campaign,
                  key=key, workers=list(workers))

    def epoch(self, cycle: int, index: int) -> None:
        self.emit(cycle, f"epoch_{index}", "epochs", index=index)

    # ------------------------------------------------------------------
    def events(self) -> List[Event]:
        return list(self.buffer)

    def by_name(self, name: str) -> List[Event]:
        return [e for e in self.buffer if e.name == name]

    def stats(self) -> Dict[str, int]:
        return {"emitted": self.emitted, "dropped": self.dropped,
                "buffered": len(self.buffer)}


# ----------------------------------------------------------------------
# Chrome trace-event export.
# ----------------------------------------------------------------------
def to_chrome_trace(events: Iterable[Event], pid: int = 0,
                    tracer=None) -> List[Dict]:
    """Render events (plus an optional PipelineTracer) as trace-event dicts.

    Every entry carries the ``name/ph/ts/pid/tid`` quintet; durations use
    complete ("X") or begin/end ("B"/"E") phases, instants use "i".
    Unbalanced "B" events at end of trace are closed implicitly by the
    viewer, so no fixup pass is needed.
    """
    out: List[Dict] = [
        {"name": "process_name", "ph": "M", "ts": 0, "pid": pid, "tid": 0,
         "args": {"name": "repro simulated core"}},
        {"name": "thread_name", "ph": "M", "ts": 0, "pid": pid,
         "tid": ENGINE_TID, "args": {"name": "pre-execution engine"}},
    ]
    for ev in events:
        entry = {"name": ev.name, "ph": ev.phase, "ts": ev.cycle,
                 "pid": pid, "tid": ev.tid, "cat": ev.category,
                 "args": dict(ev.args)}
        if ev.phase == "i":
            entry["s"] = "t"  # thread-scoped instant
        out.append(entry)
    if tracer is not None:
        out.extend(pipeline_trace_events(tracer, pid=pid))
    return out


def pipeline_trace_events(tracer, pid: int = 0) -> List[Dict]:
    """Per-uop slices from a :class:`~repro.core.trace.PipelineTracer`.

    Each traced uop becomes one complete ("X") slice from fetch to
    retire/squash on its thread-context row, with the stage timestamps in
    ``args`` — the same data the tracer's text ``render`` shows, loadable
    in Perfetto next to the engine's lifecycle events.
    """
    out: List[Dict] = []
    seen_tids = set()
    for key in list(tracer.order):
        t = tracer.traces.get(key)
        if t is None:
            continue
        end = t.retire if t.retire >= 0 else t.squashed
        if t.fetch < 0 or end < 0:
            continue  # still in flight (or evicted mid-flight)
        if t.thread_id not in seen_tids:
            seen_tids.add(t.thread_id)
            role = "main thread" if t.thread_id == 0 else f"helper ctx {t.thread_id}"
            out.append({"name": "thread_name", "ph": "M", "ts": 0,
                        "pid": pid, "tid": t.thread_id,
                        "args": {"name": role}})
        out.append({
            "name": f"{t.opcode}@{t.pc:#x}",
            "ph": "X",
            "ts": t.fetch,
            "dur": max(1, end - t.fetch),
            "pid": pid,
            "tid": t.thread_id,
            "cat": "uop",
            "args": {"seq": t.seq, "fetch": t.fetch, "dispatch": t.dispatch,
                     "issue": t.issue, "writeback": t.writeback,
                     "retire": t.retire, "squashed": t.squashed},
        })
    return out


def write_chrome_trace(path: str, events: Iterable[Event], pid: int = 0,
                       tracer=None) -> int:
    """Write the trace-event array to ``path``; returns the entry count."""
    entries = to_chrome_trace(events, pid=pid, tracer=tracer)
    with open(path, "w") as fh:
        json.dump(entries, fh)
    return len(entries)
