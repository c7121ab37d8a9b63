"""Branch-target structures: BTB, return-address stack, indirect predictor.

Our simulator pre-decodes instructions at fetch (the code image is a Python
object), so direct branch targets are always known and fetch never probes
the BTB: it is trained at retire with each taken conditional branch's
target (and seeded by sampling warmup) and carried in snapshots, but no
pipeline stage or engine reads it.  Indirect jumps (JALR) take their
targets from the return-address stack and the indirect predictor.

Columnar layout: each BTB set is a pair of parallel flat int lists
(tags / targets, MRU first) probed with C-speed ``list.index``; the RAS
checkpoint is copy-on-write, so the per-fetched-uop checkpoint is a cached
shared list invalidated only when the stack actually mutates.
"""

from typing import List, Optional


class BranchTargetBuffer:
    """Set-associative PC -> target cache for taken control transfers."""

    def __init__(self, sets: int = 1024, ways: int = 4):
        if sets & (sets - 1):
            raise ValueError("sets must be a power of two")
        self._sets = sets
        self._ways = ways
        # Parallel per-set columns, most-recently-used first.
        self._tags: List[List[int]] = [[] for _ in range(sets)]
        self._targets: List[List[int]] = [[] for _ in range(sets)]

    def _set_index(self, pc: int) -> int:
        return (pc >> 2) & (self._sets - 1)

    def lookup(self, pc: int) -> Optional[int]:
        """Predicted target for ``pc``, or None on miss."""
        idx = (pc >> 2) & (self._sets - 1)
        tags = self._tags[idx]
        try:
            i = tags.index(pc)
        except ValueError:
            return None
        targets = self._targets[idx]
        if i:
            tags.insert(0, tags.pop(i))
            targets.insert(0, targets.pop(i))
            return targets[0]
        return targets[i]

    def insert(self, pc: int, target: int) -> None:
        idx = (pc >> 2) & (self._sets - 1)
        tags = self._tags[idx]
        targets = self._targets[idx]
        try:
            i = tags.index(pc)
        except ValueError:
            tags.insert(0, pc)
            targets.insert(0, target)
            if len(tags) > self._ways:
                tags.pop()
                targets.pop()
            return
        targets[i] = target
        if i:
            tags.insert(0, tags.pop(i))
            targets.insert(0, targets.pop(i))


class ReturnAddressStack:
    """Fixed-depth RAS; overflow wraps (oldest entry lost).

    ``checkpoint`` is copy-on-write: the pipeline checkpoints the RAS per
    fetch group and after each branch, but the stack only mutates on
    call/return, so consecutive checkpoints share one frozen copy.
    ``restore`` copies the incoming state, so shared lists never mutate.
    """

    def __init__(self, depth: int = 32):
        self._depth = depth
        self._stack: List[int] = []
        self._ckpt: Optional[List[int]] = None

    def push(self, return_pc: int) -> None:
        self._ckpt = None
        self._stack.append(return_pc)
        if len(self._stack) > self._depth:
            self._stack.pop(0)

    def pop(self) -> Optional[int]:
        if self._stack:
            self._ckpt = None
            return self._stack.pop()
        return None

    def checkpoint(self) -> List[int]:
        ckpt = self._ckpt
        if ckpt is None:
            ckpt = self._ckpt = list(self._stack)
        return ckpt

    def restore(self, state: List[int]) -> None:
        self._ckpt = None
        self._stack = list(state)


class IndirectTargetPredictor:
    """Last-target table for JALR (other than returns)."""

    def __init__(self, entries: int = 512):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self._mask = entries - 1
        self._targets: List[Optional[int]] = [None] * entries

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def predict(self, pc: int) -> Optional[int]:
        return self._targets[self._index(pc)]

    def update(self, pc: int, target: int) -> None:
        self._targets[self._index(pc)] = target
