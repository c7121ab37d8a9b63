"""Set-associative, write-back, write-allocate cache tag store with LRU.

Columnar layout: each set is one flat list of packed int words, MRU first.
A word is ``(tag << 2) | (dirty << 1) | prefetched`` — probing a set is a
scan over small ints (no per-line objects, no attribute loads), and a fill
is a single int insert.  LRU order and stats are pinned by the recorded
digest in ``tests/core/test_columnar_equiv.py``.
"""

from array import array
from dataclasses import dataclass
from typing import List, Optional, Tuple

_DIRTY = 0b10
_PREFETCHED = 0b01


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """A single cache level (tags only; data stays in the flat memory image).

    ``lookup`` probes without side effects; ``access`` performs the
    hit/miss state change and returns whether it hit plus the writeback
    block address if a dirty line was evicted.
    """

    def __init__(self, size_bytes: int, ways: int, line_bytes: int = 64, name: str = "cache"):
        if size_bytes % (ways * line_bytes):
            raise ValueError("size must be a multiple of ways*line")
        self.name = name
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: number of sets ({self.num_sets}) must be a power of two")
        self._offset_bits = line_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        self._tag_shift = self.num_sets.bit_length() - 1
        # Per set: packed line words ((tag << 2) | flags), MRU first.
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def block_addr(self, addr: int) -> int:
        return addr >> self._offset_bits

    def _set_index(self, block: int) -> int:
        return block & self._set_mask

    def _tag(self, block: int) -> int:
        return block >> self._tag_shift

    # ------------------------------------------------------------------
    def lookup(self, addr: int) -> bool:
        """Probe without updating LRU or stats."""
        block = addr >> self._offset_bits
        s = self._sets[block & self._set_mask]
        tag = block >> self._tag_shift
        for word in s:
            if word >> 2 == tag:
                return True
        return False

    def access(self, addr: int, is_write: bool = False) -> Tuple[bool, Optional[int]]:
        """Demand access.  Returns (hit, writeback_block_addr_or_None).

        On a miss the block is allocated (fill is assumed to complete;
        timing is the hierarchy's job) and the LRU victim, if dirty, is
        reported for writeback accounting.
        """
        block = addr >> self._offset_bits
        set_idx = block & self._set_mask
        s = self._sets[set_idx]
        tag = block >> self._tag_shift
        for i in range(len(s)):
            word = s[i]
            if word >> 2 == tag:
                self.stats.hits += 1
                if is_write:
                    word |= _DIRTY
                if i:
                    del s[i]
                    s.insert(0, word)
                else:
                    s[0] = word
                return True, None
        self.stats.misses += 1
        writeback = self._fill(set_idx, tag, _DIRTY if is_write else 0)
        return False, writeback

    def fill(self, addr: int, prefetched: bool = False) -> Optional[int]:
        """Install a block (e.g. a prefetch fill); returns writeback block."""
        block = addr >> self._offset_bits
        set_idx = block & self._set_mask
        tag = block >> self._tag_shift
        for word in self._sets[set_idx]:
            if word >> 2 == tag:
                return None  # already present
        if prefetched:
            self.stats.prefetch_fills += 1
        return self._fill(set_idx, tag, _PREFETCHED if prefetched else 0)

    def _fill(self, set_idx: int, tag: int, flags: int) -> Optional[int]:
        s = self._sets[set_idx]
        s.insert(0, (tag << 2) | flags)
        if len(s) > self.ways:
            victim = s.pop()
            self.stats.evictions += 1
            if victim & _DIRTY:
                self.stats.writebacks += 1
                return ((victim >> 2) << self._tag_shift) | set_idx
        return None

    def invalidate_all(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]

    # ------------------------------------------------------------------
    # Compact serialization: the packed set columns concatenate into one
    # int64 buffer plus a per-set occupancy byte string.
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = dict(self.__dict__)
        sets = state.pop("_sets")
        lengths = bytes(len(s) for s in sets)
        words = array("q")
        for s in sets:
            words.extend(s)
        state["_packed_sets"] = (lengths, words.tobytes())
        return state

    def __setstate__(self, state):
        lengths, blob = state.pop("_packed_sets")
        words = array("q")
        words.frombytes(blob)
        flat = words.tolist()
        sets = []
        pos = 0
        for n in lengths:
            sets.append(flat[pos:pos + n])
            pos += n
        state["_sets"] = sets
        self.__dict__.update(state)
