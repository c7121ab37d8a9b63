"""Quota-based physical register allocation.

All physical registers live in one shared pool; each thread context has a
quota (its Table I share).  A thread may allocate while it holds fewer
registers than its quota and the pool is non-empty.  Partition changes
happen only across full-pipeline squashes, so transitions are clean.

Columnar layout: the free list is one preallocated int column used as a
LIFO stack with a top-of-stack cursor — allocation and release are a
single indexed read/write plus a cursor bump, with no list resizing on the
hot path.  Pop order (which physical name each allocation gets) is
pinned by the recorded digest in ``tests/core/test_columnar_equiv.py``.
The pipeline's rename, squash and retire paths do the same pops and
pushes inline on ``_stack``/``_top``/``_held``.
"""

from array import array
from typing import List, Optional


class SharedPhysPool:
    __slots__ = ("size", "reserved", "_stack", "_top", "_held")

    def __init__(self, size: int, reserved: int = 1):
        """``reserved`` low registers (the constant zero, pred0) are never allocated."""
        self.size = size
        self.reserved = reserved
        # Free-register column; entries [0, _top) are free, top of stack last.
        self._stack: List[int] = list(range(reserved, size))
        self._top = size - reserved
        self._held = {}  # thread_id -> count

    def free_count(self) -> int:
        return self._top

    def free_list(self) -> List[int]:
        """Snapshot of the free registers (guard sanitizer introspection)."""
        return self._stack[:self._top]

    def held_by(self, thread_id: int) -> int:
        return self._held.get(thread_id, 0)

    def held_total(self) -> int:
        return sum(self._held.values())

    def can_allocate(self, thread_id: int, quota: int) -> bool:
        return self._top > 0 and self._held.get(thread_id, 0) < quota

    def allocate(self, thread_id: int, quota: int) -> Optional[int]:
        top = self._top
        if top == 0:
            return None
        held = self._held
        count = held.get(thread_id, 0)
        if count >= quota:
            return None
        held[thread_id] = count + 1
        top -= 1
        self._top = top
        return self._stack[top]

    def release(self, thread_id: int, reg: int) -> None:
        count = self._held.get(thread_id, 0) - 1
        if count < 0:
            raise RuntimeError(f"thread {thread_id} released more registers than held")
        self._held[thread_id] = count
        top = self._top
        stack = self._stack
        if top == len(stack):  # over-full only after a foreign release
            stack.append(reg)
        else:
            stack[top] = reg
        self._top = top + 1

    # ------------------------------------------------------------------
    # Compact serialization: only the live prefix of the column, packed.
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {
            "size": self.size,
            "reserved": self.reserved,
            "free": array("q", self._stack[:self._top]).tobytes(),
            "held": self._held,
        }

    def __setstate__(self, state):
        self.size = state["size"]
        self.reserved = state["reserved"]
        free = array("q")
        free.frombytes(state["free"])
        self._top = len(free)
        stack = free.tolist()
        # Re-pad the column to full capacity so releases stay in-place.
        stack.extend([0] * (self.size - self.reserved - self._top))
        self._stack = stack
        self._held = state["held"]
