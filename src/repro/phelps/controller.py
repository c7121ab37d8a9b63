"""The Phelps engine: epochs, training, triggering, and termination.

Ties every Phelps structure into the core's :class:`PreExecutionEngine`
hook points.  Life cycle of one loop (paper Section V-A):

* epoch N   — DBT/DBT-Max measure delinquency; LT populated at epoch end;
* epoch N+1 — the most delinquent loop without a helper thread is chosen;
  a :class:`HelperThreadBuilder` observes fetch/retire (HTCB, IBDA, CDFSM,
  store-load detection); finalized at the epoch boundary;
* epoch N+2+ — the HTC row is armed: when the main thread retires the
  loop's start PC, the pipeline is squashed, partitioned (Table I), helper
  contexts spawn, live-in moves inject, and pre-execution begins.
"""

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.core.engine_api import PreExecutionEngine
from repro.core.thread import ThreadContext, ThreadKind
from repro.core.uop import Uop
from repro.isa.opcodes import Opcode
from repro.obs.metrics import WeakProvider

from repro.phelps.config import PhelpsConfig
from repro.phelps.dbt import DelinquentBranchTable
from repro.phelps.fetch import HelperFetchUnit
from repro.phelps.htc import HelperThreadCache, HelperThreadRow
from repro.phelps.loop_table import LoopTable
from repro.phelps.prediction_queues import PredictionQueueFile
from repro.phelps.slicer import HelperThreadBuilder
from repro.phelps.spec_cache import SpeculativeCache
from repro.phelps.visit_queue import VisitQueue


class PhelpsEngine(PreExecutionEngine):
    def __init__(self, config: Optional[PhelpsConfig] = None):
        self.cfg = config or PhelpsConfig()
        cfg = self.cfg
        self.dbt = DelinquentBranchTable(cfg.dbt_entries, cfg.dbt_max_entries)
        self.lt = LoopTable(cfg.loop_table_entries)
        self.htc = HelperThreadCache(cfg.htc_rows, cfg.htc_row_capacity)
        self.queues = PredictionQueueFile(cfg.queue_count, cfg.queue_depth)
        self.visit_q = VisitQueue(cfg.visit_queue_depth, cfg.visit_live_ins)
        self.spec_cache = SpeculativeCache(cfg.spec_cache_sets, cfg.spec_cache_ways)

        self.builder: Optional[HelperThreadBuilder] = None
        self.epoch_retired = 0
        self.epoch_index = 0

        # Deployment state.
        self.active_row: Optional[HelperThreadRow] = None
        self.ht_threads: Dict[str, ThreadContext] = {}  # role -> context
        self._trigger_moves_pending = 0
        self._it_mt_regs: List[int] = []

        # Classification state (Fig. 14).
        self.qualified_pcs = set()
        self.loop_status: Dict[int, str] = {}  # start_pc -> status
        self.misp_classes: Counter = Counter()

        # Stats.
        self.activations = 0
        self.terminations = 0
        self.desync_terminations = 0
        self.queue_wrong = 0
        self._watchdog_retired = -1
        self._watchdog_since = 0

    # ==================================================================
    # Observability wiring.
    # ==================================================================
    def attach(self, core) -> None:
        super().attach(core)
        self._wire_evict_event()

    def _register_metrics(self, registry) -> None:
        super()._register_metrics(registry)  # engine.* <- self.stats()
        # Per-branch-PC queue drill-down: phelps.queues.<pc>.{deposits,
        # consumed, consumed_wrong, not_timely}.
        registry.register_provider(
            "phelps.queues", WeakProvider(self, lambda e: e.queues.per_pc))

    # ==================================================================
    # Fetch hooks.
    # ==================================================================
    def fetch_override(self, thread: ThreadContext, inst):
        if self.active_row is None or not self.queues.has_queue(inst.pc):
            return None
        result = self.queues.consume(inst.pc)
        if result is None:
            # Not timely: fall back to the default predictor.
            if self.events is not None:
                self.events.queue_not_timely(self.core.cycle, inst.pc)
            return None
        outcome, token = result
        return outcome, token

    def note_fetched(self, thread: ThreadContext, uop: Uop) -> None:
        if thread.kind is not ThreadKind.MAIN:
            return
        if self.builder is not None:
            self.builder.note_fetched(uop.inst)
        self._spec_head_advance(uop.inst)

    def _spec_head_advance(self, inst) -> None:
        row = self.active_row
        if row is None or not inst.is_cond_branch:
            return
        if inst.pc == row.loop_branch:
            self.queues.advance_spec_head(0)
        elif row.is_nested and inst.pc == row.inner_branch:
            self.queues.advance_spec_head(1)

    def note_refetched(self, thread: ThreadContext, uop: Uop) -> None:
        self._spec_head_advance(uop.inst)

    # ==================================================================
    # Recovery hooks.
    # ==================================================================
    def checkpoint(self):
        if self.active_row is None:
            return None
        return self.queues.checkpoint()

    def restore(self, state) -> None:
        if state is not None and self.active_row is not None:
            self.queues.restore(state)

    # ==================================================================
    # Retire hooks.
    # ==================================================================
    def retire_blocked(self, thread: ThreadContext, uop: Uop) -> bool:
        if thread.kind is ThreadKind.MAIN or self.active_row is None:
            return False
        inst = uop.inst
        if inst.is_cond_branch:  # helper loop branch: needs a free column
            pointer_set = 1 if thread.kind is ThreadKind.INNER else 0
            return not self.queues.can_advance_tail(pointer_set)
        if (inst.is_pred_producer and self.active_row.header_pc == inst.origin_pc
                and uop.pred_enabled and uop.taken is False):
            return self.visit_q.full()
        return False

    def on_retire(self, thread: ThreadContext, uop: Uop) -> None:
        if thread.kind is ThreadKind.MAIN:
            self._on_retire_main(thread, uop)
        else:
            self._on_retire_helper(thread, uop)

    # ------------------------------------------------------------------
    def _on_retire_main(self, thread: ThreadContext, uop: Uop) -> None:
        inst = uop.inst
        row = self.active_row

        if inst.is_cond_branch:
            self.dbt.note_retired(inst.pc, bool(uop.taken), inst.imm, uop.mispredicted)
            if uop.mispredicted:
                self._classify_mispredict(inst.pc)
            if uop.queue_token is not None:
                qpc, _col, predicted = uop.queue_token
                if predicted != bool(uop.taken):
                    self.queue_wrong += 1
                    self.queues.note_consumed_wrong(qpc)
                    if row is not None and qpc in (row.loop_branch, row.inner_branch,
                                                   row.header_pc):
                        # Iteration/visit desync guard (DESIGN.md §6).
                        self.desync_terminations += 1
                        if self.events is not None:
                            self.events.desync(self.core.cycle, qpc)
                        self._terminate(reason="desync")
                        row = None
            if row is not None:
                if inst.pc == row.loop_branch:
                    self.queues.advance_head(0)
                elif row.is_nested and inst.pc == row.inner_branch:
                    self.queues.advance_head(1)

        if self.builder is not None:
            self.builder.note_retired(inst, uop.taken, uop.mem_addr)

        if row is not None and not row.contains(inst.pc):
            # Main thread left the region of interest (Section V-G).
            self._terminate(reason="region_exit")
            row = None

        if row is None and self.active_row is None:
            trigger_row = self.htc.lookup_trigger(inst.pc)
            if trigger_row is not None:
                self._trigger(trigger_row)

        # Epoch accounting last: epoch boundaries may finalize the builder.
        self.epoch_retired += 1
        if self.epoch_retired >= self.cfg.epoch_length:
            self._end_epoch()

    # ------------------------------------------------------------------
    def _on_retire_helper(self, thread: ThreadContext, uop: Uop) -> None:
        inst = uop.inst
        row = self.active_row
        if row is None:
            return

        if inst.opcode is Opcode.MOV_LIVEIN:
            if uop.livein_value is None and self._trigger_moves_pending > 0:
                self._trigger_moves_pending -= 1
                if self._trigger_moves_pending == 0:
                    self.core.main.wait_for_moves = False
            return

        if inst.is_pred_producer:
            if self.queues.has_queue(inst.origin_pc):
                self.queues.deposit(inst.origin_pc, bool(uop.taken))
            if (inst.origin_pc == row.header_pc and uop.pred_enabled
                    and uop.taken is False):
                # Not-taken header: queue an inner-loop visit (Section V-F).
                values = [self.core.prf.read(thread.amt.lookup(r))
                          for r in row.ot_liveins_inner]
                self.visit_q.enqueue(values)
            return

        if inst.is_cond_branch:  # the helper thread's loop branch
            pointer_set = 1 if thread.kind is ThreadKind.INNER else 0
            if self.queues.has_queue(inst.pc):
                self.queues.deposit(inst.pc, bool(uop.taken))
            self.queues.advance_tail(pointer_set)
            if uop.taken is False and thread.kind is not ThreadKind.INNER:
                # ITO/OT finished the region: go idle; resources are
                # released when the main thread exits (Section V-G).
                # (The inner thread already moved to its next visit when
                # this branch *resolved* — on_helper_loop_exit_resolved.)
                thread.fetch.stop()

    # ==================================================================
    # Cycle hook.
    # ==================================================================
    def on_cycle(self, cycle: int) -> None:
        it = self.ht_threads.get("IT")
        if it is not None and it.fetch.waiting and not self.visit_q.empty():
            self._next_visit(it)
        # Watchdog: terminate if the main thread stops making progress.
        if self.active_row is not None:
            retired = self.core.main.retired
            if retired == self._watchdog_retired:
                self._watchdog_since += 1
                if self._watchdog_since >= self.cfg.watchdog_cycles:
                    self._terminate(reason="watchdog")
            else:
                self._watchdog_retired = retired
                self._watchdog_since = 0

    def idle_skip(self, cycle: int, limit: int) -> int:
        """Core idle fast path veto (see ``PreExecutionEngine.idle_skip``).

        Two pieces of :meth:`on_cycle` bookkeeping matter across skipped
        idle cycles.  (1) A waiting inner thread with a pending visit would
        be restarted this very cycle — refuse the skip so the normal tick
        handles it.  (2) The watchdog counts idle cycles: account the
        skipped cycles, and stop one short of the threshold so the
        terminating tick's ``on_cycle`` fires at the exact cycle the naive
        loop would have fired it.
        """
        it = self.ht_threads.get("IT")
        if it is not None and it.fetch.waiting and not self.visit_q.empty():
            return 0
        n = limit - cycle
        if self.active_row is not None:
            # Post-on_cycle invariant: _watchdog_retired == main.retired, so
            # every skipped idle cycle is one more watchdog count.
            headroom = self.cfg.watchdog_cycles - self._watchdog_since - 1
            if headroom <= 0:
                return 0
            if n > headroom:
                n = headroom
            self._watchdog_since += n
        return n

    def on_helper_branch_mispredicted(self, thread: ThreadContext, uop: Uop) -> None:
        """Phelps helper threads have one branch (the loop branch), fetched
        always-taken; a mispredict means it resolved not-taken.  The inner
        thread moves straight to the next visit (it need not wait for this
        visit's retirement — deposits and tail advances still happen in
        retire order); ITO/OT stop."""
        if thread.kind is ThreadKind.INNER:
            self._next_visit(thread)
        else:
            thread.fetch.stop()

    def _next_visit(self, thread: ThreadContext) -> None:
        values = self.visit_q.dequeue()
        if values is None:
            thread.fetch.wait()
            return
        thread.fetch.start_visit(self.active_row.ot_liveins_inner, values)

    # ==================================================================
    # Epoch machinery.
    # ==================================================================
    def _end_epoch(self) -> None:
        cfg = self.cfg
        threshold = cfg.delinquency_threshold
        for pc, count in self.dbt.dbt_max.ranked():
            if count >= threshold:
                self.qualified_pcs.add(pc)
        self.lt.populate(self.dbt, threshold)

        # Finalize the loop constructed this epoch.
        if self.builder is not None:
            start = self.builder.loop.start_pc
            row, reason = self.builder.finalize()
            if row is not None and self.htc.install(row):
                self.loop_status[start] = "installed"
            else:
                self.loop_status[start] = reason or "too_big"
            if self.events is not None:
                self.events.helper_construct(self.core.cycle, start,
                                             self.loop_status[start])
            self.builder = None

        # Pick the next loop to construct (Section V-C).
        tried = set(self.loop_status)
        candidate = self.lt.most_delinquent(exclude_starts=self.htc.known_starts() | tried)
        if candidate is not None and not self.htc.full():
            self.builder = self._make_builder(candidate)
            self.loop_status[candidate.start_pc] = "constructing"

        self.dbt.reset_counts()
        self.epoch_index += 1
        self.epoch_retired = 0

    def _make_builder(self, candidate) -> HelperThreadBuilder:
        """Overridden by Branch Runahead to build chain-style helpers."""
        return HelperThreadBuilder(self.cfg, candidate)

    # ==================================================================
    # Trigger / terminate (Sections V-F, V-G).
    # ==================================================================
    def _trigger(self, row: HelperThreadRow) -> None:
        core = self.core
        if not self.queues.configure(dict(row.queue_assignment)):
            return
        core.full_squash()
        core.set_partition_mode("MT_OT_IT" if row.is_nested else "MT_ITO")
        self.spec_cache.clear()
        self.visit_q.clear()
        self.active_row = row
        self.activations += 1
        self.loop_status[row.start_pc] = "deployed"
        if self.events is not None:
            self.events.helper_trigger(core.cycle, row.start_pc, row.is_nested)
        self.ht_threads.clear()
        moves = 0

        if row.is_nested:
            ot_unit = HelperFetchUnit(row.outer_insts)
            ot = core.add_helper_thread(ThreadKind.OUTER, ot_unit, "OT")
            self._install_memory(ot)
            moves += ot_unit.inject_moves(row.mt_liveins_outer)
            self.ht_threads["OT"] = ot

            it_unit = HelperFetchUnit(row.inner_insts, wait_for_visit=True)
            it = core.add_helper_thread(ThreadKind.INNER, it_unit, "IT")
            self._install_memory(it)
            moves += it_unit.inject_moves(row.mt_liveins_inner)
            self.ht_threads["IT"] = it
        else:
            unit = HelperFetchUnit(row.inner_insts)
            ito = core.add_helper_thread(ThreadKind.INNER_ONLY, unit, "ITO")
            self._install_memory(ito)
            moves += unit.inject_moves(row.mt_liveins_outer)
            self.ht_threads["ITO"] = ito

        self._trigger_moves_pending = moves
        if moves > 0:
            core.main.wait_for_moves = True
        self._watchdog_retired = core.main.retired
        self._watchdog_since = 0

    def _install_memory(self, ctx: ThreadContext) -> None:
        ctx.spec_cache = self.spec_cache
        ctx.commit_store = self.spec_cache.write

    def _terminate(self, reason: str = "exit") -> None:
        core = self.core
        if self.events is not None and self.active_row is not None:
            self.events.helper_terminate(core.cycle, self.active_row.start_pc,
                                         reason)
        core.full_squash()
        core.remove_helper_threads()
        core.set_partition_mode("MT_ONLY")
        self.queues.deactivate()
        self.visit_q.clear()
        self.spec_cache.clear()
        self.active_row = None
        self.ht_threads.clear()
        self._trigger_moves_pending = 0
        core.main.wait_for_moves = False
        self.terminations += 1

    # ==================================================================
    # Snapshot hooks.
    # ==================================================================
    def quiesce(self) -> None:
        """End any active deployment through the normal termination path.

        A deployment's in-flight state (helper thread contexts, live
        queue columns, spec-cache contents) is tied to pipeline state the
        snapshot deliberately drains away, so it cannot be carried across
        a process boundary.  Termination is an event the engine already
        models — the DBT/LT/HTC training it leaves behind is exactly the
        warm state a resumed run needs."""
        if self.active_row is not None:
            self._terminate(reason="snapshot")

    def warm_state(self) -> bytes:
        # ``dbt.on_evict`` is a closure over the live events/core handles
        # (wired in attach); strip it for pickling, restore_warm re-wires.
        hook = self.dbt.on_evict
        self.dbt.on_evict = None
        try:
            return super().warm_state()
        finally:
            self.dbt.on_evict = hook

    def restore_warm(self, payload) -> None:
        super().restore_warm(payload)
        self._wire_evict_event()

    def _wire_evict_event(self) -> None:
        """Point ``dbt.on_evict`` at the events trace (None without one).
        The closure reads the cycle through the weak core proxy, so the
        DBT never holds the core."""
        if self.events is None:
            self.dbt.on_evict = None
            return
        events, core = self.events, self.core
        self.dbt.on_evict = lambda pc: events.dbt_evict(core.cycle, pc)

    # ==================================================================
    # Misprediction taxonomy (Fig. 14).
    # ==================================================================
    def _classify_mispredict(self, pc: int) -> None:
        if self.active_row is not None and self.queues.has_queue(pc):
            self.misp_classes["deployed_residual"] += 1
            return
        if pc in self.qualified_pcs:
            entry = self.dbt.get(pc)
            if entry is None or not entry.in_loop:
                self.misp_classes["not_in_loop"] += 1
                return
            start = entry.outermost()[1]
            status = self.loop_status.get(start)
            if status == "constructing":
                self.misp_classes["being_constructed"] += 1
            elif status in ("installed", "deployed"):
                self.misp_classes["installed_not_active"] += 1
            elif status == "too_big":
                self.misp_classes["too_big"] += 1
            elif status == "not_iterating":
                self.misp_classes["not_iterating"] += 1
            elif status == "ot_depends_on_it":
                self.misp_classes["ot_depends_on_it"] += 1
            elif status == "param_overflow":
                self.misp_classes["too_big"] += 1
            else:
                self.misp_classes["not_chosen"] += 1
        elif self.epoch_index == 0:
            self.misp_classes["gathering"] += 1
        elif self.dbt.evictions > self.cfg.dbt_entries:
            # DBT thrash (the paper's gcc case): counters never accumulate,
            # so these branches are perpetually "gathering delinquency".
            self.misp_classes["gathering"] += 1
        else:
            self.misp_classes["not_delinquent"] += 1

    # ==================================================================
    def stats(self) -> dict:
        return {
            "activations": self.activations,
            "terminations": self.terminations,
            "desync_terminations": self.desync_terminations,
            "queue_wrong": self.queue_wrong,
            "queue": self.queues.stats(),
            "visits": self.visit_q.enqueued,
            "spec_cache_losses": self.spec_cache.losses,
            "misp_classes": dict(self.misp_classes),
            "loop_status": dict(self.loop_status),
            "epochs": self.epoch_index,
            "dbt_evictions": self.dbt.evictions,
        }
