"""Physical register files: integer PRF and the 2-bit predicate PRF.

Columnar layout: the register file is two flat preallocated columns —
``value`` (signed-64 ints) and ``ready`` (bools) — indexed by physical
register number, plus a sparse wakeup dict.  The hot path reads the
``value`` column directly (``core.prf.value[phys]``); physical register 0
is the architected constant zero and is never written, so the column read
needs no zero-register branch.

Wakeup is event-driven: consumers subscribe to a physical register; when
its producer writes back, subscribers are notified (their pending-source
count drops; at zero they enter the ready queue).
"""

from array import array
from typing import Dict, List

ZERO_REG = 0  # physical register 0 is the architected constant zero
PRED_ALWAYS = 0  # predicate physical register 0 = pred0 = unconditional


class PhysRegFile:
    """Integer physical registers as flat value/ready columns."""

    __slots__ = ("size", "value", "ready", "_waiters")

    def __init__(self, size: int):
        self.size = size
        self.value: List[int] = [0] * size
        self.ready: List[bool] = [False] * size
        self._waiters: Dict[int, List] = {}
        # Register 0 is the constant zero, always ready.
        self.ready[ZERO_REG] = True

    def mark_not_ready(self, reg: int) -> None:
        if reg != ZERO_REG:
            self.ready[reg] = False

    def write(self, reg: int, value: int) -> List:
        """Write back a result; returns the wakeup list of waiting uops."""
        if reg == ZERO_REG:
            return []
        self.value[reg] = value
        self.ready[reg] = True
        return self._waiters.pop(reg, [])

    def subscribe(self, reg: int, waiter) -> bool:
        """Register a waiter; returns False if the reg was already ready."""
        if self.ready[reg]:
            return False
        self._waiters.setdefault(reg, []).append(waiter)
        return True

    def read(self, reg: int) -> int:
        # value[ZERO_REG] is invariantly 0, so no zero-register branch.
        return self.value[reg]

    # ------------------------------------------------------------------
    # Compact serialization: the columns pickle as packed bytes, not
    # element-wise int lists.  Snapshots are taken at drained boundaries,
    # so the wakeup dict is (almost always) empty; it is carried verbatim
    # when it is not.
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = {
            "size": self.size,
            "value": array("q", self.value).tobytes(),
            "ready": bytes(self.ready),
        }
        if self._waiters:
            state["waiters"] = self._waiters
        return state

    def __setstate__(self, state):
        self.size = state["size"]
        values = array("q")
        values.frombytes(state["value"])
        self.value = values.tolist()
        self.ready = [bool(b) for b in state["ready"]]
        self._waiters = state.get("waiters", {})


class PredRegFile(PhysRegFile):
    """Predicate physical registers (paper Section V-H).

    Each value is 2 bits: ``msb`` = the producer itself was predicated-true
    (enabled); ``lsb`` = the producer's taken/not-taken outcome.  Register 0
    is ``pred0`` — the always-enabled predicate for unguarded instructions.
    """

    __slots__ = ()

    def __init__(self, size: int = 128):
        super().__init__(size)
        self.value[PRED_ALWAYS] = 0b10  # enabled, direction unused

    @staticmethod
    def pack(enabled: bool, taken: bool) -> int:
        return (int(enabled) << 1) | int(taken)

    def consumer_enabled(self, reg: int, enabling_direction: bool) -> bool:
        """Paper's rule: enabled iff (msb == 1) && (lsb == consumer dir).

        ``pred0`` always enables its consumer.
        """
        if reg == PRED_ALWAYS:
            return True
        v = self.value[reg]
        return bool(v & 0b10) and bool(v & 0b01) == enabling_direction

    def write_pred(self, reg: int, enabled: bool, taken: bool) -> List:
        if reg == PRED_ALWAYS:
            raise ValueError("pred0 is constant")
        return super().write(reg, self.pack(enabled, taken))

    def read(self, reg: int) -> int:
        # pred0's packed value (0b10) is meaningful, unlike the integer
        # zero register — keep the base column read.
        return self.value[reg]
