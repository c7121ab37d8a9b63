"""Golden-model co-simulation and cycle-level invariant sanitization.

:class:`SimGuard` attaches to a core when ``CoreConfig.guard_level`` is
not ``"off"`` and runs the in-order functional executor
(:class:`~repro.isa.executor.ArchState`) in lockstep with *commit*: every
main-thread uop that retires is replayed architecturally and its PC,
branch outcome, memory address/value, and destination-register value are
compared.  The first disagreement raises :class:`DivergenceError` with a
structured :class:`DivergenceReport` — catching a value-flow bug at the
instruction that caused it rather than thousands of cycles later in a
wrong IPC figure.

At ``guard_level="full"`` a structural sanitizer additionally sweeps the
pipeline every ``guard_check_interval`` cycles: freelist/RMT/AMT
consistency, ROB program ordering, each LQ/SQ holding exactly the ROB's
loads/stores in order (squash recovery cuts them as seq suffixes), IQ
occupancy accounting, and
the engine-facing queue invariants (prediction-queue head iteration never
ahead of the main thread's speculative iteration, visit-queue bounds).

Overhead discipline: the disabled path costs one ``is None`` test per
retired uop and zero per cycle (the pipeline only calls ``on_cycle`` when
a sanitizer is installed); see ``guard`` in BENCH_perf.json.
"""

import weakref
from typing import List, Optional

from repro.guard.errors import (DivergenceError, DivergenceReport,
                                InvariantReport, InvariantViolation,
                                pipeline_snapshot, recent_events)
from repro.isa.executor import ArchState
from repro.utils.bits import to_i64

__all__ = ["SimGuard"]


class SimGuard:
    """Per-core guard state: the golden model plus sanitizer bookkeeping.

    The core owns its guard, so the guard reaches the core through a weak
    proxy rather than a strong back-edge."""

    def __init__(self, core):
        self.core = weakref.proxy(core)
        self.level = core.config.guard_level
        self.interval = max(1, core.config.guard_check_interval)
        self.golden = ArchState(core.program)
        self.checked = 0      # retired instructions compared against golden
        self.sweeps = 0       # invariant sweeps completed
        self._next_sweep = 0

    # ------------------------------------------------------------------
    # Boot (sampled simulation): adopt the same checkpoint as the core.
    # ------------------------------------------------------------------
    def boot(self, regs, mem, pc: int) -> None:
        self.golden.restore_snapshot({
            "regs": list(regs), "mem": dict(mem), "pc": pc,
            "halted": False, "retired": 0,
        })

    # ------------------------------------------------------------------
    # Commit-lockstep comparison.
    # ------------------------------------------------------------------
    def on_retire(self, thread, uop) -> None:
        """Replay one retiring main-thread uop on the golden model."""
        golden = self.golden
        inst = uop.inst
        if golden.halted:
            self._diverge(uop, "control", "halted",
                          f"retired {inst.opcode.value}@{uop.pc:#x}")
        if uop.pc != golden.pc:
            self._diverge(uop, "pc", f"{golden.pc:#x}", f"{uop.pc:#x}")

        step = golden.step()
        self.checked += 1

        if inst.is_cond_branch:
            if bool(uop.taken) != bool(step.taken):
                self._diverge(uop, "branch_direction",
                              str(bool(step.taken)), str(bool(uop.taken)))
        elif inst.is_jump:
            if uop.actual_target != step.next_pc:
                self._diverge(uop, "jump_target", f"{step.next_pc:#x}",
                              f"{uop.actual_target:#x}"
                              if uop.actual_target is not None else "None")

        if inst.is_load:
            if uop.mem_addr != step.mem_addr:
                self._diverge(uop, "load_addr", f"{step.mem_addr:#x}",
                              f"{uop.mem_addr:#x}"
                              if uop.mem_addr is not None else "None")
            if to_i64(uop.result) != step.mem_value:
                self._diverge(uop, "load_value", str(step.mem_value),
                              str(to_i64(uop.result)))
        elif inst.is_store:
            if uop.mem_addr != step.mem_addr:
                self._diverge(uop, "store_addr", f"{step.mem_addr:#x}",
                              f"{uop.mem_addr:#x}"
                              if uop.mem_addr is not None else "None")
            if to_i64(uop.store_value) != to_i64(step.mem_value):
                self._diverge(uop, "store_value", str(to_i64(step.mem_value)),
                              str(to_i64(uop.store_value)))

        dest = inst.dest_reg
        if dest is not None:
            expected = golden.regs[dest]
            if to_i64(uop.result) != expected:
                self._diverge(uop, "reg_value",
                              f"x{dest}={expected}",
                              f"x{dest}={to_i64(uop.result)}")

    def _diverge(self, uop, kind: str, expected: str, actual: str) -> None:
        core = self.core
        report = DivergenceReport(
            cycle=core.cycle, kind=kind, expected=expected, actual=actual,
            uop=repr(uop), pc=uop.pc, seq=uop.seq,
            golden_pc=self.golden.pc, golden_retired=self.golden.retired,
            checked=self.checked,
            events=recent_events(core), threads=pipeline_snapshot(core))
        if core.obs is not None:
            core.obs.events.divergence(core.cycle, kind, uop.pc)
        raise DivergenceError(report)

    # ------------------------------------------------------------------
    # Cycle-level invariant sanitizer (guard_level="full").
    # ------------------------------------------------------------------
    def on_cycle(self, core) -> None:
        if core.cycle < self._next_sweep:
            return
        self._next_sweep = core.cycle + self.interval
        violations = self.check_invariants()
        if violations:
            report = InvariantReport(
                cycle=core.cycle, violations=violations,
                events=recent_events(core), threads=pipeline_snapshot(core))
            if core.obs is not None:
                core.obs.events.invariant_violation(core.cycle, violations)
            raise InvariantViolation(report)
        self.sweeps += 1

    def check_invariants(self) -> List[str]:
        """All violated invariants this cycle (empty list = healthy)."""
        core = self.core
        bad: List[str] = []

        for pool, name in ((core.pool, "int"), (core.pred_pool, "pred")):
            free = pool.free_list()
            if len(set(free)) != len(free):
                bad.append(f"{name} freelist holds duplicate registers")
            if pool.free_count() + pool.held_total() != pool.size - pool.reserved:
                bad.append(
                    f"{name} pool leaked registers: free={pool.free_count()} "
                    f"held={pool.held_total()} size={pool.size}")

        free_int = set(core.pool.free_list())
        free_pred = set(core.pred_pool.free_list())
        dispatched = 0
        for t in core.threads:
            for table, free, name in ((t.rmt, free_int, "RMT"),
                                      (t.amt, free_int, "AMT"),
                                      (t.pred_rmt, free_pred, "pred RMT")):
                for phys in table.mapped_physical():
                    if phys in free:
                        bad.append(f"thread {t.id} {name} maps freed p{phys}")
                        break

            if len(t.rob) > t.share.rob:
                bad.append(f"thread {t.id} ROB over partition "
                           f"({len(t.rob)}/{t.share.rob})")
            last = -1
            for u in t.rob:
                if u.thread_id != t.id:
                    bad.append(f"thread {t.id} ROB holds foreign uop {u!r}")
                    break
                if u.seq <= last:
                    bad.append(f"thread {t.id} ROB out of program order "
                               f"at seq {u.seq}")
                    break
                last = u.seq
                if u.state.value == "dispatched":
                    dispatched += 1

            rob_loads = [u for u in t.rob if u.inst.is_load]
            rob_stores = [u for u in t.rob if u.inst.is_store]
            for q, name, in_rob, what in ((t.lq, "LQ", rob_loads, "loads"),
                                          (t.sq, "SQ", rob_stores, "stores")):
                if len(q.entries) > q.capacity:
                    bad.append(f"thread {t.id} {name} over capacity")
                if any(a.seq >= b.seq for a, b in zip(q.entries, q.entries[1:])):
                    bad.append(f"thread {t.id} {name} out of program order")
                # Uops compare by identity.
                if q.entries != in_rob:
                    bad.append(f"thread {t.id} {name} is not the ROB's "
                               f"{what} in order")

        if dispatched != core.iq_count:
            bad.append(f"IQ accounting skew: counted {dispatched} dispatched "
                       f"uops, iq_count={core.iq_count}")

        bad.extend(self._engine_invariants())
        return bad

    def _engine_invariants(self) -> List[str]:
        """Phelps-structure invariants, duck-typed so any engine (or none)
        is acceptable."""
        bad: List[str] = []
        engine = self.core.engine
        queues = getattr(engine, "queues", None)
        if queues is not None and getattr(queues, "active", False):
            for s in (0, 1):
                # The paper's lockstep discipline: head (main-thread retired
                # iteration) can never pass spec_head (fetched iteration)...
                if queues.head[s] > queues.spec_head[s]:
                    bad.append(
                        f"prediction-queue set {s}: head iteration "
                        f"{queues.head[s]} ahead of spec_head "
                        f"{queues.spec_head[s]}")
                # ...and the helper tail must never wrap onto a live column.
                if queues.tail[s] - queues.head[s] > queues.depth - 1:
                    bad.append(
                        f"prediction-queue set {s}: tail "
                        f"{queues.tail[s]} overran ring (head "
                        f"{queues.head[s]}, depth {queues.depth})")
        visit_q = getattr(engine, "visit_q", None)
        if visit_q is not None and len(visit_q) > visit_q.depth:
            bad.append(f"visit queue over depth ({len(visit_q)}/{visit_q.depth})")
        return bad

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        return {"checked": self.checked, "sweeps": self.sweeps}
