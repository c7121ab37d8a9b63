"""Branch Runahead engine.

Shares the Phelps training pipeline (DBT / LT / HTCB / LPT / slice growth)
— the two techniques find the same delinquent loops — but deploys
BR-style chains: real control flow predicted by a bimodal trigger
predictor, per-PC FIFO queues, queue-flush rollbacks on consumed-wrong
outcomes, always one chain engine (no dual decoupled threads), stores
excluded.
"""

import dataclasses
from typing import Optional

from repro.core.thread import ThreadContext, ThreadKind
from repro.core.uop import Uop
from repro.frontend import BimodalPredictor
from repro.isa.opcodes import Opcode
from repro.obs.metrics import WeakProvider
from repro.phelps.controller import PhelpsEngine
from repro.phelps.loop_table import LoopTableEntry
from repro.phelps.slicer import HelperThreadBuilder

from repro.runahead.config import BRConfig
from repro.runahead.fetch import BRFetchUnit
from repro.runahead.queues import BRQueueFile


def _flatten_loop(entry: LoopTableEntry) -> LoopTableEntry:
    """BR has no dual decoupled threads: treat every loop as one region."""
    flat = LoopTableEntry(entry.loop_branch, entry.loop_target)
    flat.delinquent_branches = list(entry.delinquent_branches)
    flat.mispredicts = entry.mispredicts
    return flat


class BranchRunaheadEngine(PhelpsEngine):
    def __init__(self, config: Optional[BRConfig] = None):
        self.br_cfg = config or BRConfig()
        super().__init__(self.br_cfg.construction)
        self.brqueues = BRQueueFile(self.br_cfg.queue_depth)
        self.bimodal = BimodalPredictor(self.br_cfg.bimodal_entries)
        self.rollbacks = 0

    # ----------------------------------------------------- observability
    def _register_metrics(self, registry) -> None:
        super()._register_metrics(registry)
        registry.register_provider(
            "br.queues", WeakProvider(self, lambda e: e.brqueues.per_pc))

    # ------------------------------------------------------------ fetch
    def fetch_override(self, thread: ThreadContext, inst):
        if self.active_row is None or not self.brqueues.has_queue(inst.pc):
            return None
        result = self.brqueues.consume(inst.pc)
        if result is None and self.events is not None:
            self.events.queue_not_timely(self.core.cycle, inst.pc)
        return result

    def _spec_head_advance(self, inst) -> None:
        pass  # no loop-iteration lockstep in BR

    def checkpoint(self):
        if self.active_row is None:
            return None
        return self.brqueues.checkpoint()

    def restore(self, state) -> None:
        if state is not None and self.active_row is not None:
            self.brqueues.restore(state)

    def retire_blocked(self, thread: ThreadContext, uop: Uop) -> bool:
        return False  # BR queues drop outcomes when full instead of stalling

    # ----------------------------------------------------- construction
    def _make_builder(self, candidate: LoopTableEntry) -> HelperThreadBuilder:
        return HelperThreadBuilder(self.cfg, _flatten_loop(candidate),
                                   keep_branches=True)

    # ------------------------------------------------------------ retire
    def _on_retire_main(self, thread: ThreadContext, uop: Uop) -> None:
        inst = uop.inst
        row = self.active_row

        if inst.is_cond_branch:
            self.dbt.note_retired(inst.pc, bool(uop.taken), inst.imm, uop.mispredicted)
            if uop.mispredicted:
                self._classify_mispredict(inst.pc)
            if uop.queue_token is not None:
                qpc, _idx, predicted = uop.queue_token
                self.brqueues.retire_consumed(qpc)
                if predicted != bool(uop.taken):
                    # Selective chain-group rollback (Fig. 10b): flush only
                    # the affected group's queues; independent groups keep
                    # their outcomes (chain-group-level parallelism).
                    self.queue_wrong += 1
                    self.rollbacks += 1
                    self.brqueues.note_consumed_wrong(qpc)
                    if self.events is not None:
                        self.events.emit(self.core.cycle, "br_rollback",
                                         "queues", pc=f"{qpc:#x}")
                    self.brqueues.flush(row.chain_group(qpc) if row else None)

        if self.builder is not None:
            self.builder.note_retired(inst, uop.taken, uop.mem_addr)

        if row is not None and not row.contains(inst.pc):
            self._terminate(reason="region_exit")
            row = None

        if row is None and self.active_row is None:
            trigger_row = self.htc.lookup_trigger(inst.pc)
            if trigger_row is not None:
                self._trigger(trigger_row)

        self.epoch_retired += 1
        if self.epoch_retired >= self.cfg.epoch_length:
            self._end_epoch()

    def _on_retire_helper(self, thread: ThreadContext, uop: Uop) -> None:
        inst = uop.inst
        if self.active_row is None:
            return
        if inst.opcode is Opcode.MOV_LIVEIN:
            if uop.livein_value is None and self._trigger_moves_pending > 0:
                self._trigger_moves_pending -= 1
                if self._trigger_moves_pending == 0:
                    self.core.main.wait_for_moves = False
            return
        if inst.is_cond_branch:
            self.bimodal.update(inst.pc, bool(uop.taken))
            if self.brqueues.has_queue(inst.pc):
                self.brqueues.deposit(inst.pc, bool(uop.taken))
            unit = thread.fetch
            if isinstance(unit, BRFetchUnit):
                unit.resume(inst.pc, bool(uop.taken), uop.actual_target or 0)
            if inst.pc == self.active_row.loop_branch and uop.taken is False:
                thread.fetch.stop()

    def on_helper_branch_mispredicted(self, thread: ThreadContext, uop: Uop) -> None:
        if self.active_row is None:
            return
        unit = thread.fetch
        if uop.pc == self.active_row.loop_branch and uop.taken is False:
            unit.stop()
            return
        if isinstance(unit, BRFetchUnit):
            unit.redirect_after_branch(uop)

    # ------------------------------------------------------- trigger/stop
    def _trigger(self, row) -> None:
        core = self.core
        self.brqueues.configure(row.queue_assignment.keys())
        core.full_squash()
        core.set_partition_mode("MT_ITO")
        self.active_row = row
        self.activations += 1
        self.loop_status[row.start_pc] = "deployed"
        if self.events is not None:
            self.events.helper_trigger(core.cycle, row.start_pc, nested=False)
        self.ht_threads.clear()
        unit = BRFetchUnit(row.inner_insts, self.bimodal,
                           speculative=self.br_cfg.speculative_triggering)
        ito = core.add_helper_thread(ThreadKind.INNER_ONLY, unit, "ITO")
        moves = unit.inject_moves(row.mt_liveins_outer)
        self.ht_threads["ITO"] = ito
        self._trigger_moves_pending = moves
        if moves > 0:
            core.main.wait_for_moves = True
        self._watchdog_retired = core.main.retired
        self._watchdog_since = 0

    def _terminate(self, reason: str = "exit") -> None:
        super()._terminate(reason)
        self.brqueues.deactivate()

    def stats(self) -> dict:
        base = super().stats()
        base["br_queue"] = self.brqueues.stats()
        base["rollbacks"] = self.rollbacks
        base["speculative"] = self.br_cfg.speculative_triggering
        return base
