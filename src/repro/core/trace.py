"""Pipeline event tracing (Kanata/pipeview-flavoured, plain text).

Attach a :class:`PipelineTracer` to a core to record per-uop stage
timestamps (fetch, dispatch, issue, writeback, retire/squash) and render
them as text timelines — the debugging workhorse for microarchitecture
work, and the basis of the ``inspect_helper_thread`` example's deep dive.

Usage::

    core = Core(program)
    tracer = PipelineTracer(core, limit=2000)
    core.run(max_instructions=500)
    print(tracer.render(last=20))
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.uop import Uop, UopState


@dataclass
class UopTrace:
    seq: int
    thread_id: int
    pc: int
    opcode: str
    fetch: int = -1
    dispatch: int = -1
    issue: int = -1
    writeback: int = -1
    retire: int = -1
    squashed: int = -1

    def lifetime(self) -> Optional[int]:
        end = self.retire if self.retire >= 0 else self.squashed
        return end - self.fetch if end >= 0 and self.fetch >= 0 else None


class PipelineTracer:
    """Wraps a core's stage methods to log per-uop timestamps.

    ``limit`` bounds memory: older traces are dropped FIFO.
    """

    def __init__(self, core, limit: int = 10_000):
        self.core = core
        self.limit = max(1, limit)
        self.traces: Dict[tuple, UopTrace] = {}  # (thread, seq) -> trace
        # FIFO of keys, oldest first; every key in ``order`` has an entry
        # in ``traces`` and vice versa (eviction drops from both).
        self.order: Deque[Tuple[int, int]] = deque()
        self._install(core)

    # ------------------------------------------------------------------
    def _install(self, core) -> None:
        tracer = self

        orig_fetch = core._fetch_thread
        orig_dispatch = core._dispatch_thread
        orig_execute = core._execute
        orig_writeback = core._writeback
        orig_retire_uop = core._retire_uop
        orig_squash = core._squash_thread

        def fetch_thread(thread):
            first = thread.next_seq
            orig_fetch(thread)
            for _, u in thread.frontend_q:
                if u.seq >= first:
                    tracer._note(u).fetch = core.cycle

        def execute(thread, uop):
            tracer._note(uop).issue = core.cycle
            return orig_execute(thread, uop)

        def retire_uop(thread, uop):
            tracer._note(uop).retire = core.cycle
            return orig_retire_uop(thread, uop)

        def squash_thread(thread, cutoff):
            squashed = orig_squash(thread, cutoff)
            for u in squashed:
                tracer._note(u).squashed = core.cycle
            return squashed

        def writeback():
            events = core.wb_events.get(core.cycle, [])
            live = [u for u in events if u.state is UopState.ISSUED]
            orig_writeback()
            for u in live:
                tracer._note(u).writeback = core.cycle

        def dispatch_thread(thread):
            before = {(u.thread_id, u.seq) for _, u in thread.frontend_q}
            orig_dispatch(thread)
            after = {(u.thread_id, u.seq) for _, u in thread.frontend_q}
            for u in thread.rob:
                key = (u.thread_id, u.seq)
                if key in before and key not in after:
                    t = tracer._note(u)
                    if t.dispatch < 0:
                        t.dispatch = core.cycle

        core._fetch_thread = fetch_thread
        core._dispatch_thread = dispatch_thread
        core._execute = execute
        core._writeback = writeback
        core._retire_uop = retire_uop
        core._squash_thread = squash_thread

    def _note(self, uop: Uop) -> UopTrace:
        key = (uop.thread_id, uop.seq)
        trace = self.traces.get(key)
        if trace is None:
            trace = UopTrace(seq=uop.seq, thread_id=uop.thread_id, pc=uop.pc,
                             opcode=uop.inst.opcode.value)
            self.traces[key] = trace
            self.order.append(key)
            while len(self.order) > self.limit:
                old = self.order.popleft()
                del self.traces[old]
        return trace

    # ------------------------------------------------------------------
    def retired(self) -> List[UopTrace]:
        return [self.traces[k] for k in self.order
                if self.traces[k].retire >= 0]

    def squashed(self) -> List[UopTrace]:
        return [self.traces[k] for k in self.order
                if self.traces[k].squashed >= 0]

    def render(self, last: int = 30) -> str:
        """A fixed-width stage-timestamp table for the most recent uops."""
        rows = [self.traces[k] for k in list(self.order)[-last:]]
        out = [f"{'thr':>3s} {'seq':>6s} {'pc':>8s} {'op':10s} "
               f"{'F':>7s} {'D':>7s} {'X':>7s} {'W':>7s} {'R':>7s}"]
        for t in rows:
            def c(v):
                return str(v) if v >= 0 else "-"
            end = f"{c(t.retire):>7s}" if t.squashed < 0 else f"{'sq@' + str(t.squashed):>7s}"
            out.append(f"{t.thread_id:3d} {t.seq:6d} {t.pc:#8x} {t.opcode:10s} "
                       f"{c(t.fetch):>7s} {c(t.dispatch):>7s} {c(t.issue):>7s} "
                       f"{c(t.writeback):>7s} {end}")
        return "\n".join(out)

    def average_latency(self) -> float:
        lives = [t.lifetime() for t in self.retired()]
        lives = [x for x in lives if x is not None]
        return sum(lives) / len(lives) if lives else 0.0
