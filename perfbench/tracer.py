"""Layer attribution for traced runs.

Two kinds of record, both kept in memory until the run ends:

* **accumulators** for inner-loop layers: every call through a wrapped
  method adds to its (count, total, self) triple in place, so a traced
  simulation keeps no per-uop record.  Self time is the call's duration
  minus the time spent in wrapped calls nested inside it, so the self
  times of all layers add up to the traced wall time without overlap;
* **spans** for coarse boundaries (campaign phase, point, HTTP request),
  exported as Chrome-trace events in the shape ``repro.obs`` writes
  (``name/ph/ts/pid/tid``).  A campaign point's span carries its journal
  key as ``span_id``; the spans nested in it name that key as ``parent``.

Wrappers are instance attributes on the objects the program already
holds (the core's stage methods, its hierarchy, predictor, RAS and
engine), so nothing in the program changes.
"""

import json
import time
from contextlib import contextmanager

__all__ = ["Tracer"]


class Tracer:
    def __init__(self):
        self.epoch = time.time()
        self.acc = {}          # "layer.method" -> [count, total_s, self_s]
        self._stack = [0.0]    # child time of each open wrapped call
        self.spans = []
        self.processes = {0: "benchmark"}

    # ---------------------------------------------------- accumulators
    def wrap(self, obj, method: str, name: str) -> None:
        fn = getattr(obj, method)
        acc = self.acc.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - stack.pop()
                stack[-1] += dt

        setattr(obj, method, wrapper)

    def wrap_all(self, obj, layer: str, methods) -> None:
        for method in methods:
            self.wrap(obj, method, f"{layer}.{method}")

    def self_s(self, prefix: str) -> float:
        return sum(a[2] for n, a in self.acc.items()
                   if n == prefix or n.startswith(prefix + "."))

    def total_s(self, name: str) -> float:
        return self.acc.get(name, (0, 0.0, 0.0))[1]

    def count(self, name: str) -> int:
        return self.acc.get(name, (0, 0.0, 0.0))[0]

    # ----------------------------------------------------------- spans
    def add_span(self, name: str, start: float, end: float, cat: str,
                 pid: int = 0, tid: int = 0, **args) -> None:
        """One finished span; ``start``/``end`` are ``time.time()``
        seconds, so spans recorded by other processes line up."""
        self.spans.append({"name": name, "cat": cat, "start": start,
                           "end": end, "pid": pid, "tid": tid,
                           "args": {k: v for k, v in args.items()
                                    if v is not None}})

    @contextmanager
    def span(self, name: str, cat: str, pid: int = 0, tid: int = 0, **args):
        start = time.time()
        try:
            yield
        finally:
            self.add_span(name, start, time.time(), cat, pid, tid, **args)

    def chrome_trace(self):
        events = [{"name": "process_name", "ph": "M", "ts": 0, "pid": pid,
                   "tid": 0, "args": {"name": label}}
                  for pid, label in sorted(self.processes.items())]
        for s in sorted(self.spans, key=lambda s: s["start"]):
            events.append({
                "name": s["name"], "ph": "X", "cat": s["cat"],
                "ts": round((s["start"] - self.epoch) * 1e6, 3),
                "dur": round((s["end"] - s["start"]) * 1e6, 3),
                "pid": s["pid"], "tid": s["tid"], "args": s["args"]})
        return events

    def write_chrome_trace(self, path) -> int:
        events = self.chrome_trace()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(events, fh)
        return len(events)
