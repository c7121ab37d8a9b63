"""Thread contexts and fetch units.

The core is SMT-like: the main thread plus up to two helper threads, each
with its own frontend queue, rename tables, ROB partition, and LQ/SQ
partition (paper Section IV-A).  The issue queue and execution lanes are
flexibly shared.
"""

import enum
from collections import deque
from typing import Callable, Deque, Optional

from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.core.config import PartitionShare
from repro.core.lsq import LoadQueue, StoreQueue
from repro.core.rename import RenameMapTable
from repro.core.uop import Uop


class ThreadKind(enum.Enum):
    MAIN = "MT"
    INNER_ONLY = "ITO"
    OUTER = "OT"
    INNER = "IT"


class FetchUnit:
    """Instruction supply for one thread.

    ``peek`` returns the instruction at the current fetch position (or None
    if the thread has nothing to fetch this cycle); ``advance`` moves the
    position given the predicted direction of the instruction just fetched.
    """

    def peek(self) -> Optional[Instruction]:
        raise NotImplementedError

    def advance(self, taken: bool, target: Optional[int]) -> None:
        raise NotImplementedError

    def redirect(self, pc: int) -> None:
        """Squash recovery: restart the stream (PC for main, engine-defined
        position for helpers)."""
        raise NotImplementedError

    def annotate_uop(self, uop) -> None:
        """Optional hook to attach fetch-unit state to the uop just created
        (helper threads attach Visit Queue live-in values here)."""

    def predict_branch(self, inst) -> bool:
        """Helper threads only: fetch-time direction for a conditional
        branch (the main thread uses the core's predictor stack instead)."""
        return True


class MainFetchUnit(FetchUnit):
    """PC-driven fetch from the architectural program."""

    def __init__(self, program: Program):
        self.program = program
        self.pc = program.entry

    def peek(self) -> Optional[Instruction]:
        return self.program.fetch(self.pc)

    def advance(self, taken: bool, target: Optional[int]) -> None:
        if taken and target is not None:
            self.pc = target
        else:
            self.pc += 4

    def redirect(self, pc: int) -> None:
        self.pc = pc


class ThreadContext:
    """All per-thread microarchitectural state.

    ``__slots__`` keeps the per-thread record flat — every attribute is
    declared here, and the per-cycle stage loops touch them without a
    ``__dict__`` indirection.
    """

    __slots__ = (
        "id", "kind", "fetch", "share", "rmt", "amt", "pred_rmt", "rob",
        "frontend_q", "lq", "sq", "next_seq", "fetch_halted",
        "fetch_stalled_until", "wait_for_moves", "resume_pc", "spec_cache",
        "retired", "retired_stores", "retired_branches",
        "mispredicts", "load_violations", "read_value", "commit_store",
    )

    def __init__(
        self,
        thread_id: int,
        kind: ThreadKind,
        fetch_unit: FetchUnit,
        share: PartitionShare,
        num_pred_logical: int = 32,
    ):
        self.id = thread_id
        self.kind = kind
        self.fetch = fetch_unit
        self.share = share
        self.rmt = RenameMapTable()
        self.amt = RenameMapTable()  # committed map (value capture at retire)
        self.pred_rmt = RenameMapTable(num_logical=num_pred_logical)
        self.rob: Deque[Uop] = deque()
        self.frontend_q: Deque[tuple] = deque()  # (ready_cycle, uop)
        self.lq = LoadQueue(share.lq)
        self.sq = StoreQueue(share.sq)
        self.next_seq = 0
        self.fetch_halted = False       # saw HALT (main) / terminated (helper)
        self.fetch_stalled_until = 0    # e.g. I-cache miss
        self.wait_for_moves = False     # MT stalls until live-in moves retire
        self.resume_pc = 0              # next correct-path PC after last retire
        self.spec_cache = None          # helper threads: speculative store D$
        self.retired = 0
        self.retired_stores = 0
        self.retired_branches = 0
        self.mispredicts = 0
        self.load_violations = 0
        # Memory hooks, installed by the pipeline/engine:
        #   read_value(addr) -> int            (value visible to this thread)
        #   commit_store(addr, value) -> None  (retire-time store side)
        self.read_value: Optional[Callable[[int], int]] = None
        self.commit_store: Optional[Callable[[int, int], None]] = None

    # ------------------------------------------------------------------
    def rob_full(self) -> bool:
        return len(self.rob) >= self.share.rob

    def in_flight(self) -> int:
        return len(self.rob) + len(self.frontend_q)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<thread {self.id} {self.kind.value}: rob={len(self.rob)}>"
