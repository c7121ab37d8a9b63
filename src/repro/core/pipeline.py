"""The out-of-order pipeline.

Stage order within :meth:`Core.tick` is writeback -> retire -> issue ->
dispatch -> fetch, which lets a dependent instruction issue the cycle its
producer writes back while keeping each stage's inputs one cycle old.

Recovery model: branch mispredictions squash younger same-thread uops and
restore the rename map by walking the ROB from the tail (per-uop previous
mappings).  Load-order violations squash from the offending load inclusive.
Predictor global history, the return-address stack, and the pre-execution
engine's speculative pointers (Phelps ``spec_head``) are restored from the
checkpoint each main-thread uop carries from fetch (paper Section IV-B);
the uops fetched between two branches share one checkpoint tuple.
"""

import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from operator import attrgetter

from repro.frontend import (
    BranchTargetBuffer,
    IndirectTargetPredictor,
    ReturnAddressStack,
    TageSCL,
)
from repro.isa.executor import ArchState
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.semantics import mem_effective_address
from repro.memory import MemoryConfig, MemoryHierarchy
from repro.obs.metrics import WeakProvider
from repro.utils.bits import to_i64

from repro.core.config import CoreConfig, PartitionPlan
from repro.core.engine_api import NullEngine, PreExecutionEngine
from repro.core.freelist import SharedPhysPool
from repro.core.regfile import PhysRegFile, PredRegFile, PRED_ALWAYS, ZERO_REG
from repro.core.stats import SimStats
from repro.core.thread import MainFetchUnit, ThreadContext, ThreadKind
from repro.core.uop import Uop, UopState

# Age-ordered issue priority.  ``Uop.age`` is the core's fetch ordinal:
# each cycle fetch visits the threads in ascending id order (helpers are
# appended with ever-larger ids) and a thread fetches in sequence order,
# so the ordinal sorts exactly as (fetch_cycle, thread_id, seq) with no
# bound on any of the three.
_ISSUE_ORDER = attrgetter("age")

# Enum members read on per-uop paths, bound once: reading a member off
# its Enum class costs ~10x a module-global read on CPython 3.11.
_MAIN = ThreadKind.MAIN
_HALT, _JAL, _JALR, _MOV_LIVEIN = (Opcode.HALT, Opcode.JAL, Opcode.JALR,
                                   Opcode.MOV_LIVEIN)
_ISSUED, _RETIRED = UopState.ISSUED, UopState.RETIRED

# Heartbeat cadence: consult the wall clock once per this many simulated
# cycles (the pure-Python core sustains ~5-20k cycles/sec, so 256 cycles
# is tens of milliseconds — far finer than any sane heartbeat interval).
_HB_STRIDE = 256


def _memory_hooks(mem: Dict[int, int]):
    """The ``read_value`` / ``commit_store`` thread hooks over the
    committed image ``mem``: closures, so a thread holding them does not
    hold the core."""
    get = mem.get

    def read_committed(addr: int) -> int:
        return get(addr & ~7, 0)

    def commit_store(addr: int, value: int) -> None:
        mem[addr & ~7] = value

    return read_committed, commit_store


def _discard_store(addr: int, value: int) -> None:
    """Retire-time store side of a helper thread that commits nothing."""


def _engine_hook(engine: PreExecutionEngine, name: str):
    """``engine``'s hook ``name``, or None when neither its class nor the
    instance overrides the no-op default."""
    hook = getattr(engine, name)
    if getattr(hook, "__func__", None) is getattr(PreExecutionEngine, name):
        return None
    return hook


class Core:
    """One simulated superscalar core plus its memory hierarchy."""

    def __init__(
        self,
        program: Program,
        config: Optional[CoreConfig] = None,
        mem_config: Optional[MemoryConfig] = None,
        predictor=None,
        engine: Optional[PreExecutionEngine] = None,
        obs=None,
    ):
        self.program = program
        self.config = config or CoreConfig()
        cfg = self.config
        self.cycle = 0
        self.halted = False
        # Frontend depth is a config @property; cache it as a plain int for
        # the per-cycle fetch/dispatch paths (pipeline_stages never changes
        # after construction).
        self._fe_depth = cfg.frontend_latency

        self.prf = PhysRegFile(cfg.prf_size)
        self.pred_prf = PredRegFile(cfg.pred_prf_size)
        self.pool = SharedPhysPool(cfg.prf_size, reserved=1)
        self.pred_pool = SharedPhysPool(cfg.pred_prf_size, reserved=1)

        self.hierarchy = MemoryHierarchy(mem_config)
        # Committed architectural memory (main-thread retired stores only).
        # Program words are copied as given: loads normalize what they read.
        # Never rebound: the thread memory hooks are closures over this dict
        # (bound methods of the core would be reference cycles).
        self.mem: Dict[int, int] = dict(program.data)
        self.read_committed, commit_store = _memory_hooks(self.mem)

        self.predictor = predictor if predictor is not None else TageSCL()
        self.btb = BranchTargetBuffer()
        self.ras = ReturnAddressStack()
        self.indirect = IndirectTargetPredictor()

        self.oracle: Optional[ArchState] = None
        if cfg.perfect_branch_prediction:
            self.oracle = ArchState(program, undo=True)

        # Thread contexts.  The main thread always exists; helper contexts
        # are added/removed by the engine across full squashes.
        self.plan = PartitionPlan(cfg, "MT_ONLY")
        self.main = ThreadContext(0, ThreadKind.MAIN, MainFetchUnit(program),
                                  self.plan.share("MT"))
        self.main.read_value = self.read_committed
        self.main.commit_store = commit_store
        self.main.resume_pc = program.entry
        self.threads: List[ThreadContext] = [self.main]
        self._next_thread_id = 1
        self._fetch_age = 0  # next Uop.age (see _ISSUE_ORDER)
        # Stable iteration snapshot + id lookup table.  The thread set only
        # changes at engine activate/terminate boundaries, so the per-cycle
        # stage loops iterate this tuple instead of copying ``threads``
        # every cycle; an in-progress iteration over the old tuple is
        # unaffected when a rebuild swaps in a new one.
        self._thread_tuple: Tuple[ThreadContext, ...] = ()
        self._thread_by_id: Dict[int, ThreadContext] = {}
        self._rebuild_thread_snapshot()
        self._tick_work = False
        # Idle-skip negative-result latch: set when a quiescence walk (or
        # an engine veto) yields no skip, cleared the next time any stage
        # does real work.  Purely a wall-clock optimization — whether a
        # quiescent stretch is skipped or naively ticked is architecturally
        # identical — but it stops the walk from running (and failing)
        # every idle cycle of a long stall.
        self._skip_latched = False

        # Shared backend structures.
        self.iq_count = 0
        self.ready_q: List[Uop] = []
        self.wb_events: Dict[int, List[Uop]] = defaultdict(list)

        self.stats = SimStats()

        # Observability hub (repro.obs.Observability) or None.  Must be in
        # place before the engine attaches so engines can register their
        # metric providers; the hub's own core wrappers (profiler,
        # pipeline tracer) install after, so they see the final methods.
        self.obs = obs

        self.engine = engine or NullEngine()
        self.engine.attach(self)

        # Simulation health guard (repro.guard).  Imported lazily so the
        # guard package (which imports core modules) never participates in
        # this module's import and the disabled path stays import-free.
        # ``_sanitizer`` is the tick-loop handle: non-None only at
        # guard_level="full", so "off"/"commit" runs pay nothing per cycle.
        self.guard = None
        self._sanitizer = None
        if cfg.guard_level != "off":
            from repro.guard.checker import SimGuard

            self.guard = SimGuard(self)
            if cfg.guard_level == "full":
                self._sanitizer = self.guard
            if obs is not None:
                obs.registry.register_provider(
                    "guard", WeakProvider(self.guard, lambda g: g.metrics()))
        if obs is not None:
            obs.attach_core(self)
        self._resolve_engine_hooks()

    def _resolve_engine_hooks(self) -> None:
        """Bind the engine hooks the per-uop paths call, each to None when
        it is the no-op default, so the null engine costs nothing per uop.
        Runs at construction and at the start of every :meth:`run`: a
        wrapper put on the engine instance before ``run()`` is called."""
        engine = self.engine
        self._fetch_override = _engine_hook(engine, "fetch_override")
        self._note_fetched = _engine_hook(engine, "note_fetched")
        self._engine_checkpoint = _engine_hook(engine, "checkpoint")
        self._on_squash = _engine_hook(engine, "on_squash")
        self._retire_blocked = _engine_hook(engine, "retire_blocked")
        self._on_retire = _engine_hook(engine, "on_retire")

    # ------------------------------------------------------------------
    # Checkpoint boot (sampled simulation).
    # ------------------------------------------------------------------
    def boot_state(self, regs, mem, pc: int) -> None:
        """Adopt mid-program architectural state before the first cycle.

        Used by sampled simulation: a functional fast-forward snapshots
        registers/memory/pc at a region start and the core begins
        cycle-accurate simulation there.  Non-zero architectural registers
        get a physical register (value written, ready) mapped in both the
        speculative RMT and the committed AMT; the committed memory image
        is replaced wholesale, in place (``mem`` is never rebound).  Must
        be called on a fresh core (cycle 0, empty pipeline).
        """
        if self.cycle != 0 or self.main.rob or self.main.frontend_q:
            raise RuntimeError("boot_state requires a fresh core")
        image = {a & ~7: to_i64(v) for a, v in mem.items()}
        self.mem.clear()
        self.mem.update(image)
        for idx in range(1, min(len(regs), self.main.rmt.num_logical)):
            value = to_i64(regs[idx])
            if value == 0:
                continue  # logical reg still maps to the constant zero
            phys = self.pool.allocate(self.main.id, self.main.share.prf_quota)
            if phys is None:
                raise RuntimeError("physical register pool exhausted at boot")
            self.prf.write(phys, value)
            self.main.rmt.map[idx] = phys
            self.main.amt.map[idx] = phys
        self.main.fetch.redirect(pc)
        self.main.resume_pc = pc
        if self.oracle is not None:
            self.oracle.restore_snapshot({
                "regs": list(regs), "mem": dict(mem), "pc": pc,
                "halted": False, "retired": 0,
            })
        if self.guard is not None:
            self.guard.boot(regs, mem, pc)

    # ------------------------------------------------------------------
    # Mid-run snapshot/resume (repro.core.snapshot).
    # ------------------------------------------------------------------
    def _drain_for_snapshot(self) -> None:
        """Bring the machine to a snapshot-safe drained commit boundary.

        The engine first ends any active deployment through its own
        termination path, then a full squash empties every queue.  The
        perfect-branch-prediction oracle is rewound to the oldest squashed
        uop's pre-fetch mark — ``full_squash`` restores the predictor /
        RAS / engine from per-uop checkpoints but deliberately leaves the
        oracle, because engine-driven squashes refetch the same PC; a
        drain instead needs the oracle exactly at the resume PC.
        """
        oldest_mark = None
        if self.oracle is not None:
            oldest = self._oldest_main_uop()
            if oldest is not None:
                oldest_mark = oldest.oracle_mark
        self.engine.quiesce()
        self.full_squash()
        if self.oracle is not None and oldest_mark is not None:
            self.oracle.undo.rewind(self.oracle, oldest_mark)
        self.wb_events.clear()
        self.ready_q.clear()
        self._skip_latched = False
        for thread in self.threads:
            thread.fetch_stalled_until = 0

    def snapshot(self) -> bytes:
        """Drain the pipeline and serialize the core's state (a blob for
        :class:`~repro.core.snapshot.SnapshotStore`)."""
        from repro.core.snapshot import take_snapshot

        self._drain_for_snapshot()
        return take_snapshot(self)

    def restore(self, state) -> None:
        """Adopt a deserialized snapshot on this (fresh) core."""
        from repro.core.snapshot import restore_into

        restore_into(self, state)

    # ------------------------------------------------------------------
    # Thread/partition management (engine-driven, across full squashes).
    # ------------------------------------------------------------------
    def _rebuild_thread_snapshot(self) -> None:
        self._thread_tuple = tuple(self.threads)
        self._thread_by_id = {t.id: t for t in self.threads}

    def set_partition_mode(self, mode: str) -> None:
        """Re-partition frontend width and resources (Table I).

        Must be called with an empty pipeline (after :meth:`full_squash`).
        """
        self.plan = PartitionPlan(self.config, mode)
        self.main.share = self.plan.share("MT")
        self.main.lq.capacity = self.main.share.lq
        self.main.sq.capacity = self.main.share.sq

    def add_helper_thread(self, kind: ThreadKind, fetch_unit, role: str) -> ThreadContext:
        share = self.plan.share(role)
        ctx = ThreadContext(self._next_thread_id, kind, fetch_unit, share)
        self._next_thread_id += 1
        # Helpers read committed memory; an engine may route their
        # retired stores somewhere (Phelps: the speculative cache).
        ctx.read_value = self.read_committed
        ctx.commit_store = _discard_store
        ctx.resume_pc = 0
        self.threads.append(ctx)
        self._rebuild_thread_snapshot()
        return ctx

    def remove_helper_threads(self) -> None:
        """Drop all helper contexts (their uops must already be squashed)."""
        for ctx in self.threads[1:]:
            # Release any physical registers the helper still holds
            # (committed live-in mappings).
            for table, pool in ((ctx.rmt, self.pool), (ctx.pred_rmt, self.pred_pool)):
                for phys in set(table.mapped_physical()):
                    pool.release(ctx.id, phys)
                table.restore([0] * table.num_logical)
        self.threads = [self.main]
        self._rebuild_thread_snapshot()

    def full_squash(self) -> None:
        """Squash every unretired instruction in every thread (helper-thread
        trigger/termination, Section V-F/V-G)."""
        self.stats.full_squashes += 1
        if self.obs is not None:
            self.obs.events.full_squash(self.cycle)
        # Restore MT speculative state from the oldest squashed MT uop.
        oldest = self._oldest_main_uop()
        for thread in self.threads:
            if thread.rob:
                self._squash_thread(thread, thread.rob[0].seq)
            else:
                self._squash_thread(thread, 0)
        if oldest is not None:
            self._restore_speculative_state(oldest)
        self.main.fetch.redirect(self.main.resume_pc)
        self.main.fetch_halted = False
        self.main.wait_for_moves = False

    # ------------------------------------------------------------------
    # Squash machinery.
    # ------------------------------------------------------------------
    def _oldest_main_uop(self) -> Optional[Uop]:
        """The ROB head, else the seq-ordered frontend queue's head."""
        main = self.main
        if main.rob:
            return main.rob[0]
        return main.frontend_q[0][1] if main.frontend_q else None

    def _restore_speculative_state(self, uop: Uop) -> None:
        """Restore predictor/RAS/engine state to just before ``uop`` fetched
        (a no-op for helper-thread uops, which carry no checkpoint)."""
        if uop.spec_ckpt is None:
            return
        predictor_state, ras_state, engine_state = uop.spec_ckpt
        if predictor_state is not None:
            self.predictor.restore(predictor_state)
        if ras_state is not None:
            self.ras.restore(ras_state)
        if engine_state is not None:
            self.engine.restore(engine_state)

    def _squash_thread(self, thread: ThreadContext, cutoff_seq: int) -> List[Uop]:
        """Squash all uops with seq >= cutoff in ``thread``; returns them."""
        squashed: List[Uop] = []
        squashed_state = UopState.SQUASHED
        fq = thread.frontend_q
        while fq and fq[-1][1].seq >= cutoff_seq:
            u = fq.pop()[1]
            u.state = squashed_state
            squashed.append(u)

        on_squash = self._on_squash
        dispatched = UopState.DISPATCHED
        rob = thread.rob
        rmt_map = thread.rmt.map
        pool = self.pool
        held, stack = pool._held, pool._stack
        tid = thread.id
        while rob and rob[-1].seq >= cutoff_seq:
            u = rob.pop()
            if u.state is dispatched:
                self.iq_count -= 1
            inst = u.inst
            # Undo rename (reverse order restores earlier mappings correctly)
            # and release the register inline: this thread allocated it.
            phys = u.phys_dest
            if phys is not None:
                rmt_map[inst.dest_reg] = u.old_phys_dest
                held[tid] -= 1
                top = pool._top
                stack[top] = phys
                pool._top = top + 1
            if u.pred_phys_dest is not None:
                thread.pred_rmt.map[inst.pred_rd] = u.old_pred_phys_dest
                self.pred_pool.release(tid, u.pred_phys_dest)
            u.state = squashed_state
            squashed.append(u)
            if on_squash is not None:
                on_squash(thread, u)
        # The LQ and SQ hold exactly the ROB's loads and stores in seq
        # order, so the squashed ones are a suffix of each: cut it once.
        for entries in (thread.lq.entries, thread.sq.entries):
            keep = len(entries)
            while keep and entries[keep - 1].seq >= cutoff_seq:
                keep -= 1
            del entries[keep:]
        return squashed

    def _recover_to(self, thread: ThreadContext, uop: Uop, refetch_pc: int,
                    inclusive: bool) -> None:
        """Branch-mispredict (exclusive) or load-violation (inclusive) recovery."""
        cutoff = uop.seq if inclusive else uop.seq + 1
        self._squash_thread(thread, cutoff)
        if thread.kind is ThreadKind.MAIN:
            self._restore_speculative_state(uop)
            if not inclusive:
                # State just after the branch: its pre-fetch checkpoint plus
                # the actual outcome.
                if uop.inst.is_cond_branch:
                    self.predictor.spec_update(uop.pc, bool(uop.taken))
                    self.engine.note_refetched(thread, uop)
                elif uop.inst.opcode is Opcode.JAL and uop.inst.rd == 1:
                    self.ras.push(uop.pc + 4)
                elif uop.inst.opcode is Opcode.JALR and uop.inst.rd == 0 and uop.inst.rs1 == 1:
                    self.ras.pop()
            if self.oracle is not None:
                mark = uop.oracle_mark if inclusive else uop.oracle_mark_after
                self.oracle.undo.rewind(self.oracle, mark)
        thread.fetch.redirect(refetch_pc)
        thread.fetch_halted = False

    # ------------------------------------------------------------------
    # Fetch.
    # ------------------------------------------------------------------
    def _fetch_thread(self, thread: ThreadContext) -> None:
        if thread.fetch_halted or thread.wait_for_moves:
            return
        cycle = self.cycle
        if cycle < thread.fetch_stalled_until:
            return
        fq = thread.frontend_q
        width = thread.share.fetch_width
        # Bounded frontend buffer: width * frontend depth.
        if len(fq) >= width * (self._fe_depth + 1):
            return

        # The main thread reads its PC and the program image directly.
        # Helpers go through their fetch unit, looked up per iteration on
        # purpose: the engine's ``note_fetched`` hook may retarget it
        # mid-group.
        if thread.kind is _MAIN:
            unit = thread.fetch
            by_pc = unit.program._by_pc
            pc = unit.pc
            if pc not in by_pc:
                return
            ready = self.hierarchy.ifetch(pc, cycle)
            if ready > cycle + 1:
                thread.fetch_stalled_until = ready
                return
            oracle = self.oracle
            predictor, ras = self.predictor, self.ras
            engine_checkpoint = self._engine_checkpoint
        else:
            by_pc = None
        predict = self._predict
        note_fetched = self._note_fetched
        # Only branches move predictor/RAS/engine speculative state, so the
        # main-thread uops of a group up to a branch share one checkpoint.
        spec_ckpt = None
        tid = thread.id
        seq = thread.next_seq
        age = self._fetch_age
        ready_at = cycle + self._fe_depth
        fetched = 0
        while fetched < width:
            if by_pc is None:
                fetch = thread.fetch
                inst = fetch.peek()
                if inst is None:
                    break
                uop = Uop(inst, tid, seq, age)
                fetch.annotate_uop(uop)
            else:
                inst = by_pc.get(pc)
                if inst is None:
                    break
                uop = Uop(inst, tid, seq, age)
                if spec_ckpt is None:
                    spec_ckpt = (predictor.checkpoint(), ras.checkpoint(),
                                 None if engine_checkpoint is None
                                 else engine_checkpoint())
                uop.spec_ckpt = spec_ckpt
                if oracle is not None:
                    uop.oracle_mark = oracle.undo.mark()
                    uop.oracle_outcome = (None if oracle.halted
                                          else oracle.step())
                    uop.oracle_mark_after = oracle.undo.mark()
            seq += 1
            age += 1
            if inst.is_branch:
                taken, target = predict(thread, uop)
                spec_ckpt = None
            else:  # PRED uops compute a predicate but never steer fetch
                taken, target = False, None
            fq.append((ready_at, uop))
            if note_fetched is not None:
                note_fetched(thread, uop)
            fetched += 1
            if by_pc is None:
                thread.fetch.advance(taken, target)
            elif taken and target is not None:
                pc = target
            else:
                pc += 4
            if inst.opcode is _HALT:
                thread.fetch_halted = True
                break
            if taken:
                break
        thread.next_seq = seq
        self._fetch_age = age
        if by_pc is not None:
            unit.pc = pc
        if fetched:
            self._tick_work = True  # fetch group ends at a predicted-taken transfer

    def _predict(self, thread: ThreadContext, uop: Uop) -> Tuple[bool, Optional[int]]:
        """Next-PC selection for a branch; records the prediction on the
        uop."""
        inst = uop.inst
        is_main = thread.kind is _MAIN
        taken, target = False, None
        if inst.is_cond_branch:
            if is_main:
                if self.oracle is not None:
                    taken = bool(uop.oracle_outcome.taken) if uop.oracle_outcome else False
                else:
                    fetch_override = self._fetch_override
                    override = (None if fetch_override is None
                                else fetch_override(thread, inst))
                    if override is not None:
                        taken, uop.queue_token = override
                    else:
                        meta = self.predictor.predict(inst.pc)
                        uop.predictor_meta = meta
                        taken = meta.taken
                self.predictor.spec_update(inst.pc, taken)
            else:
                # Helper threads: the fetch unit supplies the prediction
                # (always-taken loop wrap for Phelps; bimodal for Branch
                # Runahead chains).
                taken = thread.fetch.predict_branch(inst)
            target = inst.imm
        elif inst.opcode is _JAL:
            taken, target = True, inst.imm
            if is_main and inst.rd == 1:
                self.ras.push(inst.pc + 4)
        elif inst.opcode is _JALR:
            taken = True
            if self.oracle is not None and is_main and uop.oracle_outcome is not None:
                target = uop.oracle_outcome.next_pc
                if inst.rd == 0 and inst.rs1 == 1:
                    self.ras.pop()
            elif is_main and inst.rd == 0 and inst.rs1 == 1:
                target = self.ras.pop()
            else:
                target = self.indirect.predict(inst.pc)
            if target is None:
                target = inst.pc + 4  # will mispredict and repair at execute
        uop.pred_taken, uop.pred_target = taken, target
        return taken, target

    # ------------------------------------------------------------------
    # Dispatch (rename + queue insertion).
    # ------------------------------------------------------------------
    def _dispatch_thread(self, thread: ThreadContext) -> None:
        fq = thread.frontend_q
        cycle = self.cycle
        if not fq or fq[0][0] > cycle:
            return  # nothing has left the frontend yet
        cfg = self.config
        iq_size = cfg.iq_size
        pred_quota = cfg.pred_fl_size // 2
        tid = thread.id
        prf_quota = thread.share.prf_quota
        pool = self.pool
        pred_pool = self.pred_pool
        # The integer free list is allocated from inline.  Only this loop
        # moves it until the group ends, so its held count and stack top
        # are read once here and written back once below.
        stack = pool._stack
        top = free_top = pool._top
        held_count = pool._held.get(tid, 0)
        prf = self.prf
        pred_prf = self.pred_prf
        prf_ready = prf.ready
        waiters = prf._waiters
        rob = thread.rob
        rob_room = thread.share.rob - len(rob)
        lq, sq = thread.lq, thread.sq
        # ``map`` rebinds only at squash-recovery / helper-teardown
        # boundaries, never inside a dispatch group, so one load suffices.
        rmt_map = thread.rmt.map
        ready_q = self.ready_q
        iq_count = self.iq_count  # only dispatch moves it in this loop
        dispatched_state = UopState.DISPATCHED
        done_state = UopState.DONE
        renamed = 0
        for _ in range(thread.share.dispatch_width):
            if not fq:
                break
            ready_cycle, uop = fq[0]
            if ready_cycle > cycle:
                break
            inst = uop.inst
            needs_iq = inst.needs_iq
            if rob_room <= 0:
                break
            if needs_iq and iq_count >= iq_size:
                break
            is_load = inst.is_load
            is_store = inst.is_store
            if is_load and lq.full():
                break
            if is_store and sq.full():
                break
            dest = inst.dest_reg
            if dest is not None and (not top or held_count >= prf_quota):
                break
            if inst.is_pred_producer and not pred_pool.can_allocate(
                    tid, pred_quota):
                break

            fq.popleft()
            renamed += 1
            rob_room -= 1

            # Source rename, unrolled for 0-2 sources (phys_srcs starts empty).
            srcs = inst.src_regs
            if inst.opcode is _MOV_LIVEIN:
                if uop.livein_value is None:
                    # Live-in copy from the *main thread's* rename map.
                    uop.phys_srcs = [self.main.rmt.map[inst.rs1]]
            elif len(srcs) == 2:
                uop.phys_srcs = [rmt_map[srcs[0]], rmt_map[srcs[1]]]
            elif srcs:
                uop.phys_srcs = [rmt_map[srcs[0]]]
            pred_rs, pred_rs2 = inst.pred_rs, inst.pred_rs2
            if pred_rs is not None:
                uop.pred_phys_src = thread.pred_rmt.map[pred_rs]
            if pred_rs2 is not None:
                uop.pred_phys_src2 = thread.pred_rmt.map[pred_rs2]

            # Destination rename (dest_reg is never x0).
            if dest is not None:
                held_count += 1
                top -= 1
                phys = stack[top]
                uop.old_phys_dest = rmt_map[dest]
                rmt_map[dest] = phys
                uop.phys_dest = phys
                prf_ready[phys] = False
            if inst.is_pred_producer:
                pphys = pred_pool.allocate(tid, pred_quota)
                uop.old_pred_phys_dest = thread.pred_rmt.set(inst.pred_rd, pphys)
                uop.pred_phys_dest = pphys
                pred_prf.mark_not_ready(pphys)

            rob.append(uop)
            if is_load:
                lq.insert(uop)
            elif is_store:
                sq.insert(uop)

            if not needs_iq:
                uop.state = done_state
                continue

            uop.state = dispatched_state
            iq_count += 1
            # Wakeup subscription for each not-yet-ready source.
            pending = 0
            for phys in uop.phys_srcs:
                if not prf_ready[phys]:
                    subscribers = waiters.get(phys)
                    if subscribers is None:
                        waiters[phys] = [uop]
                    else:
                        subscribers.append(uop)
                    pending += 1
            if pred_rs is not None:
                if pred_prf.subscribe(uop.pred_phys_src, uop):
                    pending += 1
            if pred_rs2 is not None:
                if pred_prf.subscribe(uop.pred_phys_src2, uop):
                    pending += 1
            uop.pending = pending
            if pending == 0:
                ready_q.append(uop)
        if renamed:
            self.iq_count = iq_count
            self._tick_work = True
        if top != free_top:
            pool._top = top
            pool._held[tid] = held_count

    # ------------------------------------------------------------------
    # Issue + execute.
    # ------------------------------------------------------------------
    def _issue(self) -> None:
        candidates = self.ready_q
        if not candidates:
            return  # nothing issuable this cycle
        self.ready_q = []

        cfg = self.config
        # Lane budget column, indexed by ``Instruction.lane_id``
        # (LANE_SIMPLE/LANE_MEM/LANE_COMPLEX/LANE_NONE).
        lanes = [cfg.lanes_simple, cfg.lanes_mem, cfg.lanes_complex, 0]
        budget = cfg.issue_width
        dispatched = UopState.DISPATCHED
        candidates = [u for u in candidates if u.state is dispatched]
        candidates.sort(key=_ISSUE_ORDER)

        thread_by_id = self._thread_by_id
        execute = self._execute
        leftover = []
        for uop in candidates:
            if uop.state is not dispatched:
                continue  # squashed by a recovery triggered earlier this cycle
            if budget <= 0:
                leftover.append(uop)
                continue
            lane_id = uop.inst.lane_id
            if lanes[lane_id] <= 0:
                leftover.append(uop)
                continue
            # Loads issue speculatively in every thread: a memory-order
            # violation is caught when the conflicting store resolves.
            lanes[lane_id] -= 1
            budget -= 1
            execute(thread_by_id[uop.thread_id], uop)
        self.ready_q.extend(leftover)

    def _execute(self, thread: ThreadContext, uop: Uop) -> None:
        """Execute-stage entry point: dispatch on the instruction's
        precomputed integer ``exec_kind`` instead of an opcode if-chain.
        Stays a method (rather than inlining the table walk into
        :meth:`_issue`) so the profiler/tracer wrappers keep a single
        interception point."""
        uop.state = _ISSUED
        self._tick_work = True
        self.iq_count -= 1
        self._exec_handlers[uop.inst.exec_kind](self, thread, uop)

    def _exec_alu_ri(self, thread: ThreadContext, uop: Uop) -> None:
        inst = uop.inst
        srcs = uop.phys_srcs
        a = self.prf.value[srcs[0]] if srcs else 0  # LI has no sources
        uop.result = inst.alu_fn(a, inst.imm)
        self.wb_events[self.cycle + inst.latency].append(uop)

    def _exec_alu_rr(self, thread: ThreadContext, uop: Uop) -> None:
        inst = uop.inst
        value = self.prf.value
        srcs = uop.phys_srcs
        uop.result = inst.alu_fn(value[srcs[0]], value[srcs[1]])
        self.wb_events[self.cycle + inst.latency].append(uop)

    def _exec_load(self, thread: ThreadContext, uop: Uop) -> None:
        inst = uop.inst
        base = self.prf.value[uop.phys_srcs[0]]
        addr = mem_effective_address(base, inst.imm)
        uop.mem_addr = addr
        fwd = thread.sq.forward_source(uop.seq, addr)
        if fwd is not None:
            uop.result = fwd.store_value
            uop.forward_seq = fwd.seq
            done = self.cycle + self.config.store_forward_latency
        else:
            spec_value = (thread.spec_cache.read(addr)
                          if thread.spec_cache is not None else None)
            if spec_value is not None:
                # Helper-thread hit in the tiny speculative D$ (IV-A).
                uop.result = to_i64(spec_value)
                done = self.cycle + self.config.store_forward_latency + 1
            else:
                uop.result = to_i64(thread.read_value(addr))
                done = self.hierarchy.load(inst.pc, addr, self.cycle)
        # The only variable latency: write back no earlier than next cycle.
        self.wb_events[max(done, self.cycle + 1)].append(uop)

    def _exec_store(self, thread: ThreadContext, uop: Uop) -> None:
        inst = uop.inst
        value = self.prf.value
        srcs = uop.phys_srcs
        base = value[srcs[0]]
        addr = mem_effective_address(base, inst.imm)
        uop.mem_addr = addr
        uop.store_value = value[srcs[1]]
        if uop.pred_phys_src is not None:
            uop.pred_enabled = self._pred_enabled(uop)
        victim = thread.lq.find_violation(uop)
        if victim is not None:
            thread.load_violations += 1
            self._recover_to(thread, victim, victim.pc, inclusive=True)
        self.wb_events[self.cycle + 1].append(uop)

    def _exec_cbr(self, thread: ThreadContext, uop: Uop) -> None:
        inst = uop.inst
        value = self.prf.value
        srcs = uop.phys_srcs
        uop.taken = inst.branch_fn(value[srcs[0]], value[srcs[1]])
        uop.actual_target = inst.imm if uop.taken else inst.pc + 4
        self.wb_events[self.cycle + 1].append(uop)

    def _exec_pred(self, thread: ThreadContext, uop: Uop) -> None:
        inst = uop.inst
        value = self.prf.value
        srcs = uop.phys_srcs
        uop.taken = inst.branch_fn(value[srcs[0]], value[srcs[1]])
        uop.pred_enabled = self._pred_enabled(uop)
        self.wb_events[self.cycle + 1].append(uop)

    def _exec_jal(self, thread: ThreadContext, uop: Uop) -> None:
        inst = uop.inst
        uop.result = inst.pc + 4
        uop.taken = True
        uop.actual_target = inst.imm
        self.wb_events[self.cycle + 1].append(uop)

    def _exec_jalr(self, thread: ThreadContext, uop: Uop) -> None:
        inst = uop.inst
        base = self.prf.value[uop.phys_srcs[0]]
        uop.result = inst.pc + 4
        uop.taken = True
        uop.actual_target = (base + inst.imm) & ~1
        self.wb_events[self.cycle + 1].append(uop)

    def _exec_mov(self, thread: ThreadContext, uop: Uop) -> None:
        if uop.livein_value is not None:
            uop.result = to_i64(uop.livein_value)
        else:
            uop.result = self.prf.value[uop.phys_srcs[0]]
        self.wb_events[self.cycle + 1].append(uop)

    # Execute-stage dispatch table, indexed by ``Instruction.exec_kind``
    # (see repro.isa.opcodes.DECODE); K_NONE uops never reach execute.
    # Plain functions called with the core: a tuple of bound methods on
    # the instance would be a reference cycle.
    _exec_handlers = (
        _exec_alu_ri,   # K_ALU_RI
        _exec_alu_rr,   # K_ALU_RR
        _exec_load,     # K_LOAD
        _exec_store,    # K_STORE
        _exec_cbr,      # K_CBR
        _exec_pred,     # K_PRED
        _exec_jal,      # K_JAL
        _exec_jalr,     # K_JALR
        _exec_mov,      # K_MOV
    )

    def _pred_enabled(self, uop: Uop) -> bool:
        """Predication rule (Section V-H), with the optional second source
        ORed in (Section V-K OR-guarding)."""
        inst = uop.inst
        if uop.pred_phys_src is None:
            return True
        enabled = self.pred_prf.consumer_enabled(uop.pred_phys_src,
                                                 bool(inst.pred_dir))
        if uop.pred_phys_src2 is not None:
            enabled = enabled or self.pred_prf.consumer_enabled(
                uop.pred_phys_src2, bool(inst.pred_dir2))
        return enabled

    # ------------------------------------------------------------------
    # Writeback.
    # ------------------------------------------------------------------
    def _writeback(self) -> None:
        events = self.wb_events.pop(self.cycle, None)
        if not events:
            return
        self._tick_work = True
        issued, dispatched, done = (UopState.ISSUED, UopState.DISPATCHED,
                                    UopState.DONE)
        prf = self.prf
        value, ready, waiters = prf.value, prf.ready, prf._waiters
        ready_q = self.ready_q
        for uop in events:
            if uop.state is not issued:
                continue  # squashed after issue
            uop.state = done
            # Register write and wakeup, inline.  A uop writes at most one
            # of the two files, and never physical register 0.
            phys = uop.phys_dest
            if phys is not None:
                value[phys] = uop.result
                ready[phys] = True
                woken = waiters.pop(phys, None)
            elif uop.pred_phys_dest is not None:
                woken = self.pred_prf.write_pred(
                    uop.pred_phys_dest, bool(uop.pred_enabled), bool(uop.taken))
            else:
                woken = None
            if woken:
                for waiter in woken:
                    if waiter.state is dispatched:
                        waiter.pending -= 1
                        if waiter.pending <= 0:
                            ready_q.append(waiter)
            if uop.inst.is_branch:
                self._resolve_branch(self._thread_by_id[uop.thread_id], uop)

    def _resolve_branch(self, thread: ThreadContext, uop: Uop) -> None:
        mispredicted = (bool(uop.pred_taken) != bool(uop.taken)
                        or (uop.taken and uop.pred_target != uop.actual_target))
        uop.mispredicted = bool(uop.inst.is_cond_branch and
                                bool(uop.pred_taken) != bool(uop.taken))
        if not mispredicted:
            return
        if thread.kind is _MAIN:
            refetch = uop.actual_target if uop.taken else uop.pc + 4
            self._recover_to(thread, uop, refetch, inclusive=False)
        else:
            # Helper-thread branch resolved against its fetch-time
            # prediction: squash the wrongly-fetched-ahead instructions and
            # let the engine redirect the helper's fetch unit (loop wrap /
            # next visit for Phelps; bimodal-mispredict repair for Branch
            # Runahead chains).
            self._squash_thread(thread, uop.seq + 1)
            self.engine.on_helper_branch_mispredicted(thread, uop)

    # ------------------------------------------------------------------
    # Retire.
    # ------------------------------------------------------------------
    def _retire(self) -> None:
        retire_blocked = self._retire_blocked
        retire_uop = self._retire_uop
        done = UopState.DONE
        for thread in self._thread_tuple:
            rob = thread.rob
            count = 0
            while rob and count < thread.share.retire_width:
                uop = rob[0]
                if uop.state is not done:
                    break
                if retire_blocked is not None and retire_blocked(thread, uop):
                    break
                rob.popleft()
                retire_uop(thread, uop)
                count += 1
                if self.halted:
                    return

    def _retire_uop(self, thread: ThreadContext, uop: Uop) -> None:
        self._tick_work = True
        inst = uop.inst
        uop.state = _RETIRED
        thread.retired += 1
        is_main = thread.kind is _MAIN
        if not is_main:
            self.stats.helper_retired += 1
        elif self.guard is not None:
            # Golden-model co-simulation: replay this commit on the
            # in-order executor and compare before architectural effects
            # land (raises DivergenceError on first disagreement).
            self.guard.on_retire(thread, uop)

        if inst.is_store:
            thread.sq.retire(uop)
            if uop.pred_enabled is not False:
                thread.commit_store(uop.mem_addr, uop.store_value)
                if is_main:
                    self.hierarchy.store(inst.pc, uop.mem_addr, self.cycle)
                thread.retired_stores += 1
            elif not is_main:
                self.stats.helper_stores_suppressed += 1
        elif inst.is_load:
            thread.lq.retire(uop)
        elif inst.is_cond_branch:
            thread.retired_branches += 1
            if uop.mispredicted:
                thread.mispredicts += 1
            if is_main:
                if uop.predictor_meta is not None:
                    self.predictor.update(inst.pc, bool(uop.taken), uop.predictor_meta)
                if uop.taken:
                    self.btb.insert(inst.pc, uop.actual_target)
        elif inst.opcode is _JALR and is_main:
            self.indirect.update(inst.pc, uop.actual_target)
        elif inst.opcode is _HALT and is_main:
            self.halted = True

        # Committed rename state + physical register reclamation (inline
        # release: the previous mapping was allocated by this thread).
        if uop.phys_dest is not None:
            thread.amt.map[inst.dest_reg] = uop.phys_dest
            old = uop.old_phys_dest
            if old != ZERO_REG:
                pool = self.pool
                pool._held[thread.id] -= 1
                top = pool._top
                pool._stack[top] = old
                pool._top = top + 1
        if uop.pred_phys_dest is not None:
            if uop.old_pred_phys_dest is not None and uop.old_pred_phys_dest != PRED_ALWAYS:
                self.pred_pool.release(thread.id, uop.old_pred_phys_dest)

        if is_main:
            if inst.is_branch:
                thread.resume_pc = uop.actual_target if uop.taken else inst.pc + 4
            elif inst.opcode is not _HALT:
                thread.resume_pc = inst.pc + 4

        if self._on_retire is not None:
            self._on_retire(thread, uop)

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------
    def tick(self) -> None:
        # ``_tick_work`` gates the idle fast path: stages flip it when they
        # do real work, so ``run`` only pays for the quiescence walk on
        # ticks that were architectural no-ops.
        self._tick_work = False
        self._writeback()
        self._retire()
        if self.halted:
            return
        self._issue()
        # ``_thread_tuple`` is a stable snapshot: engine-driven activate /
        # terminate swaps in a *new* tuple, leaving this iteration intact
        # (same semantics as the old per-cycle ``list(self.threads)`` copy
        # without the two allocations per cycle).
        dispatch = self._dispatch_thread
        for thread in self._thread_tuple:
            dispatch(thread)
        fetch = self._fetch_thread
        for thread in self._thread_tuple:
            fetch(thread)
        self.engine.on_cycle(self.cycle)
        if self.obs is not None:
            self.obs.on_cycle(self)
        if self._sanitizer is not None:
            self._sanitizer.on_cycle(self)
        self.cycle += 1

    # ------------------------------------------------------------------
    # Event-driven idle fast path.
    #
    # A tick is an architectural no-op when nothing can write back, retire,
    # issue, dispatch, or fetch this cycle.  All of those only become
    # possible again at a *scheduled* event: a writeback completing
    # (``wb_events``), an I-fetch line arriving (``fetch_stalled_until``),
    # or a frontend-latency expiry (frontend-queue head ready cycle).  When
    # the whole machine is quiescent, jump the clock to the earliest such
    # event instead of ticking through idle cycles.  The engine gets a veto
    # (``idle_skip``) so per-cycle bookkeeping (Phelps watchdog, visit
    # refill) stays cycle-exact.
    # ------------------------------------------------------------------
    def _dispatch_blocked(self, thread: ThreadContext, uop: Uop) -> bool:
        """Mirror of the resource gates at the top of
        :meth:`_dispatch_thread`, side-effect free.  Every one of these
        conditions can only clear at a retire/writeback/squash event, so a
        True answer is stable across skipped idle cycles."""
        inst = uop.inst
        if thread.rob_full():
            return True
        if inst.needs_iq and self.iq_count >= self.config.iq_size:
            return True
        if inst.is_load and thread.lq.full():
            return True
        if inst.is_store and thread.sq.full():
            return True
        if inst.dest_reg is not None and not self.pool.can_allocate(
                thread.id, thread.share.prf_quota):
            return True
        if inst.is_pred_producer and not self.pred_pool.can_allocate(
                thread.id, self.config.pred_fl_size // 2):
            return True
        return False

    def _idle_skip_target(self, horizon: int) -> int:
        """The cycle to jump to when every tick in ``[cycle, target)`` is a
        no-op, or ``self.cycle`` when the machine is not quiescent."""
        cycle = self.cycle
        if self.ready_q or cycle in self.wb_events:
            return cycle
        bound = horizon
        fe_depth = self._fe_depth
        for thread in self._thread_tuple:
            rob = thread.rob
            if rob and rob[0].state is UopState.DONE:
                return cycle  # a retire is possible right now
            fq = thread.frontend_q
            if fq:
                ready_cycle, head = fq[0]
                if ready_cycle > cycle:
                    if ready_cycle < bound:
                        bound = ready_cycle
                elif not self._dispatch_blocked(thread, head):
                    return cycle
            if thread.fetch_halted or thread.wait_for_moves:
                continue  # cleared only by recovery / retire events
            if cycle < thread.fetch_stalled_until:
                if thread.fetch_stalled_until < bound:
                    bound = thread.fetch_stalled_until
            elif (len(fq) < thread.share.fetch_width * (fe_depth + 1)
                  and thread.fetch.peek() is not None):
                return cycle  # could fetch this cycle
        if self.wb_events:
            wb_next = min(self.wb_events)
            if wb_next < bound:
                bound = wb_next
        return bound if bound > cycle else cycle

    def _try_idle_skip(self, horizon: int) -> None:
        stats = self.stats
        stats.skip_walk_cycles += 1
        target = self._idle_skip_target(horizon)
        skip = target - self.cycle
        if skip <= 0:
            # Not quiescent: the walk's verdict cannot change until some
            # stage does real work again, so latch the fast path off
            # instead of re-walking (and re-failing) every idle tick.
            self._skip_latched = True
            return
        skip = self.engine.idle_skip(self.cycle, target)
        if skip > 0:
            self.cycle += skip
            stats.idle_cycles_skipped += skip
            stats.skip_bulk_advances += 1
        else:
            stats.skip_vetoes += 1
            self._skip_latched = True

    def run(self, max_instructions: int = 1_000_000, max_cycles: int = 20_000_000,
            snapshot_interval: int = 0, on_snapshot=None,
            on_heartbeat=None, heartbeat_interval: float = 1.0) -> SimStats:
        """Simulate until HALT retires, ``max_instructions`` main-thread
        instructions retire, or ``max_cycles`` elapse.

        Forward-progress watchdog: if ``config.watchdog_cycles`` (> 0)
        cycles pass without a single main-thread commit, the run raises
        :class:`~repro.guard.errors.SimulationHang` with a diagnostic
        bundle instead of spinning to ``max_cycles``.  The check compares
        the *cycle counter*, so idle-skip jumps (which can leap straight
        to ``max_cycles`` on a quiescent machine) count in full — the fast
        path cannot mask a livelock.

        ``snapshot_interval`` (> 0): every that-many retired main-thread
        instructions the pipeline drains and :meth:`snapshot` runs, with
        the blob handed to ``on_snapshot`` (when given).  The drain
        happens even with ``on_snapshot=None`` so an uninterrupted run and
        a resumed run see identical perturbations — the basis of the
        cycle-exact resume contract (see :mod:`repro.core.snapshot`).

        ``on_heartbeat`` (when given) is called with the core roughly
        every ``heartbeat_interval`` wall-clock seconds.  The callback
        must only *read* core state — it is out-of-band telemetry (live
        progress streaming) and must never perturb the simulation; runs
        with and without heartbeats are bit-identical by construction.
        The wall clock is only consulted every ``_HB_STRIDE`` cycles, so
        the disabled path costs one ``is None`` test per tick.
        """
        self._resolve_engine_hooks()
        fast = self.config.enable_cycle_skip
        tick = self.tick
        main = self.main
        wd = self.config.watchdog_cycles
        wd_retired = main.retired
        wd_mark = self.cycle
        next_snap = None
        if snapshot_interval > 0:
            next_snap = ((main.retired // snapshot_interval) + 1) * snapshot_interval
        hb = on_heartbeat
        if hb is not None:
            hb_last = time.monotonic()
            hb_countdown = _HB_STRIDE
        while (not self.halted and main.retired < max_instructions
               and self.cycle < max_cycles):
            tick()
            if fast and not self._tick_work and not self.halted \
                    and not self.ready_q:
                if not self._skip_latched:
                    self._try_idle_skip(max_cycles)
            elif self._skip_latched and self._tick_work:
                self._skip_latched = False
            if hb is not None:
                hb_countdown -= 1
                if hb_countdown <= 0:
                    hb_countdown = _HB_STRIDE
                    now = time.monotonic()
                    if now - hb_last >= heartbeat_interval:
                        hb_last = now
                        hb(self)
            if wd:
                if main.retired != wd_retired:
                    wd_retired = main.retired
                    wd_mark = self.cycle
                elif self.cycle - wd_mark >= wd and not self.halted:
                    from repro.guard.watchdog import raise_hang

                    raise_hang(self, wd_mark)
            if (next_snap is not None and main.retired >= next_snap
                    and not self.halted and main.retired < max_instructions):
                blob = self.snapshot()
                if on_snapshot is not None:
                    on_snapshot(blob)
                next_snap = ((main.retired // snapshot_interval) + 1) * snapshot_interval
        return self.collect_stats()

    def collect_stats(self) -> SimStats:
        s = self.stats
        s.cycles = self.cycle
        s.retired = self.main.retired
        s.retired_branches = self.main.retired_branches
        s.mispredicts = self.main.mispredicts
        s.load_violations = self.main.load_violations
        s.halted = self.halted
        s.memory = self.hierarchy.stats()
        s.engine = self.engine.stats()
        queue = s.engine.get("br_queue") or s.engine.get("queue")
        if isinstance(queue, dict):
            s.queue_consumed = queue.get("consumed", 0)
            s.queue_consumed_wrong = queue.get("consumed_wrong", 0)
            s.queue_not_timely = queue.get("not_timely", 0)
        if self.obs is not None:
            self.obs.finalize(self)
            s.metrics = self.obs.registry.snapshot()
            s.epochs = self.obs.sampler.to_list()
        return s
