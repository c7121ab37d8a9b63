"""Rename map tables (speculative RMT and committed AMT).

The table is one flat int column (``map``) indexed by logical register;
lookups and updates are single indexed operations.
"""

from array import array
from typing import List

from repro.isa.registers import NUM_REGS
from repro.core.regfile import ZERO_REG


class RenameMapTable:
    """Logical -> physical mapping for one thread.

    ``x0`` permanently maps to the constant-zero physical register.  The
    same class serves the predicate rename tables (pred-RMT), where entry 0
    is ``pred0``.
    """

    __slots__ = ("num_logical", "_zero", "map")

    def __init__(self, num_logical: int = NUM_REGS, zero_phys: int = ZERO_REG):
        self.num_logical = num_logical
        self._zero = zero_phys
        self.map: List[int] = [zero_phys] * num_logical

    def lookup(self, logical: int) -> int:
        return self.map[logical]

    def set(self, logical: int, phys: int) -> int:
        """Update the mapping; returns the previous physical register."""
        if logical == 0:
            raise ValueError("logical register 0 is constant")
        old = self.map[logical]
        self.map[logical] = phys
        return old

    def snapshot(self) -> List[int]:
        return list(self.map)

    def restore(self, snap: List[int]) -> None:
        self.map = list(snap)

    def mapped_physical(self) -> List[int]:
        """Physical registers currently mapped (excluding the zero reg)."""
        zero = self._zero
        return [p for p in self.map if p != zero]

    def __getstate__(self):
        return {
            "num_logical": self.num_logical,
            "zero": self._zero,
            "map": array("q", self.map).tobytes(),
        }

    def __setstate__(self, state):
        self.num_logical = state["num_logical"]
        self._zero = state["zero"]
        mapped = array("q")
        mapped.frombytes(state["map"])
        self.map = mapped.tolist()
