"""In-flight micro-op record."""

import enum
from typing import Any, Optional, Sequence

from repro.isa.instruction import Instruction


class UopState(enum.Enum):
    FETCHED = "fetched"      # in the frontend queue
    DISPATCHED = "dispatched"  # renamed, in IQ (or waiting in LSQ)
    ISSUED = "issued"        # executing
    DONE = "done"            # result written back, awaiting retire
    RETIRED = "retired"
    SQUASHED = "squashed"


_FETCHED = UopState.FETCHED  # bound once: an Enum member read is slow


class Uop:
    """One dynamic instruction instance."""

    # Slots without an initializer below are written before any read:
    # ``pred_taken``/``pred_target`` by fetch's ``_predict`` for every
    # branch, read only when a branch resolves; the ``oracle_*`` marks and
    # outcome by fetch for every main-thread uop when the perfect-
    # prediction oracle exists, read only then; ``pending`` by dispatch
    # before the uop can be woken; ``old_phys_dest``/``old_pred_phys_dest``
    # with ``phys_dest``/``pred_phys_dest``, read only when those are set.
    __slots__ = (
        "inst", "thread_id", "seq", "pc", "state",
        # fetch-time prediction info
        "pred_taken", "pred_target", "predictor_meta", "spec_ckpt",
        "queue_token", "oracle_mark", "oracle_mark_after", "oracle_outcome",
        "pending",
        # rename info
        "phys_srcs", "phys_dest", "old_phys_dest",
        "pred_phys_src", "pred_phys_src2", "pred_phys_dest", "old_pred_phys_dest",
        # execution results
        "result", "taken", "actual_target", "mem_addr", "store_value",
        "pred_enabled", "forward_seq",
        # flags
        "mispredicted", "livein_value", "age",
    )

    def __init__(self, inst: Instruction, thread_id: int, seq: int,
                 age: int = 0):
        self.inst = inst
        self.thread_id = thread_id
        self.seq = seq
        self.pc = inst.pc
        self.state = _FETCHED
        self.predictor_meta: Any = None
        # Main thread: the (predictor, RAS, engine) speculative state before
        # this uop was fetched, shared by the uops between two branches.
        self.spec_ckpt: Optional[tuple] = None
        self.queue_token: Any = None        # prediction-queue consumption record
        self.phys_srcs: Sequence[int] = ()  # renamed at dispatch
        self.phys_dest: Optional[int] = None
        self.pred_phys_src: Optional[int] = None
        self.pred_phys_src2: Optional[int] = None
        self.pred_phys_dest: Optional[int] = None
        self.result: Optional[int] = None
        self.taken: Optional[bool] = None
        self.actual_target: Optional[int] = None
        self.mem_addr: Optional[int] = None
        self.store_value: Optional[int] = None
        self.pred_enabled: Optional[bool] = None  # predication outcome (PRED/SD)
        self.forward_seq: Optional[int] = None  # seq of store this load forwarded from
        self.mispredicted = False
        self.livein_value: Optional[int] = None  # MOV_LIVEIN immediate value path
        # Issue-order key: the core's fetch ordinal (see pipeline._ISSUE_ORDER).
        self.age = age

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<uop t{self.thread_id} #{self.seq} {self.inst.opcode.value}"
                f"@{self.pc:#x} {self.state.value}>")
