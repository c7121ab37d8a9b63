"""Three-level memory hierarchy with MSHRs and prefetchers (Table III).

The hierarchy answers one question for the core: *at which cycle is this
access's data available?*  Values themselves come from the simulator's
committed-memory image (or the helper thread's speculative cache).
"""

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.memory.cache import Cache
from repro.memory.mshr import MSHRFile
from repro.memory.prefetcher import DeltaPrefetcher, StridePrefetcher


@dataclass
class MemoryConfig:
    """Cache/memory parameters; defaults follow the paper's Table III."""

    line_bytes: int = 64
    l1i_size: int = 32 * 1024
    l1i_ways: int = 8
    l1d_size: int = 48 * 1024
    l1d_ways: int = 12
    l1d_latency: int = 3  # 1 agen + 2 hit
    l2_size: int = 1280 * 1024
    l2_ways: int = 20
    l2_latency: int = 15
    l3_size: int = 3 * 1024 * 1024
    l3_ways: int = 12
    l3_latency: int = 40
    dram_latency: int = 100
    mshr_entries: int = 16
    enable_l1_prefetcher: bool = True  # IPCP-lite
    enable_l2_prefetcher: bool = True  # VLDP-lite

    def scaled(self, factor: int = 8) -> "MemoryConfig":
        """A smaller hierarchy matched to scaled (short-run) workloads."""
        return MemoryConfig(
            line_bytes=self.line_bytes,
            l1i_size=self.l1i_size // factor,
            l1i_ways=self.l1i_ways,
            l1d_size=self.l1d_size // factor * 2,
            l1d_ways=self.l1d_ways,
            l1d_latency=self.l1d_latency,
            l2_size=self.l2_size // factor,
            l2_ways=self.l2_ways,
            l2_latency=self.l2_latency,
            l3_size=self.l3_size // factor,
            l3_ways=self.l3_ways,
            l3_latency=self.l3_latency,
            dram_latency=self.dram_latency,
            mshr_entries=self.mshr_entries,
            enable_l1_prefetcher=self.enable_l1_prefetcher,
            enable_l2_prefetcher=self.enable_l2_prefetcher,
        )


def _pow2_floor(n: int) -> int:
    return 1 << (n.bit_length() - 1)


def _legal_size(size: int, ways: int, line: int) -> int:
    """Round a size down so sets is a power of two."""
    sets = _pow2_floor(max(1, size // (ways * line)))
    return sets * ways * line


class MemoryHierarchy:
    """L1I + L1D + shared L2 + shared L3 + DRAM, with MSHRs and prefetchers."""

    def __init__(self, config: Optional[MemoryConfig] = None):
        cfg = config or MemoryConfig()
        self.config = cfg
        line = cfg.line_bytes
        self.l1i = Cache(_legal_size(cfg.l1i_size, cfg.l1i_ways, line), cfg.l1i_ways, line, "L1I")
        self.l1d = Cache(_legal_size(cfg.l1d_size, cfg.l1d_ways, line), cfg.l1d_ways, line, "L1D")
        self.l2 = Cache(_legal_size(cfg.l2_size, cfg.l2_ways, line), cfg.l2_ways, line, "L2")
        self.l3 = Cache(_legal_size(cfg.l3_size, cfg.l3_ways, line), cfg.l3_ways, line, "L3")
        self.mshrs = MSHRFile(cfg.mshr_entries)
        self.l1_prefetcher = StridePrefetcher(line_bytes=line) if cfg.enable_l1_prefetcher else None
        self.l2_prefetcher = DeltaPrefetcher(line_bytes=line) if cfg.enable_l2_prefetcher else None
        # block -> cycle its (prefetch or demand) fill completes.
        self._inflight: Dict[int, int] = {}
        # Same-block ifetch memo (see :meth:`ifetch`): -1 = invalid.  The
        # exactness argument needs the three next-line fills to land in
        # other sets, so tiny (test-sized) L1Is never arm it.
        self._ifetch_block = -1
        self._ifetch_memo_ok = self.l1i.num_sets >= 4

    # ------------------------------------------------------------------
    def _miss_latency(self, addr: int, is_write: bool) -> int:
        """Latency beyond L1 for a block absent from L1."""
        hit2, _ = self.l2.access(addr, is_write)
        if hit2:
            return self.config.l2_latency
        hit3, _ = self.l3.access(addr, is_write)
        if hit3:
            return self.config.l3_latency
        return self.config.l3_latency + self.config.dram_latency

    def _inflight_ready(self, block: int, now: int) -> Optional[int]:
        ready = self._inflight.get(block)
        if ready is None:
            return None
        if ready <= now:
            del self._inflight[block]
            return None
        return ready

    def load(self, pc: int, addr: int, now: int) -> int:
        """Demand load; returns the cycle the value is available."""
        cfg = self.config
        block = self.l1d.block_addr(addr)
        pending = self._inflight_ready(block, now)
        hit, _ = self.l1d.access(addr, is_write=False)
        if hit:
            ready = now + cfg.l1d_latency
            if pending is not None:  # fill still in flight (late prefetch)
                ready = max(ready, pending)
        else:
            latency = cfg.l1d_latency + self._miss_latency(addr, is_write=False)
            ready = self.mshrs.request(block, now, latency)
            self._inflight[block] = ready
        self._train_prefetchers(pc, addr, now)
        return ready

    def store(self, pc: int, addr: int, now: int) -> int:
        """Committed store (write-allocate, write-back); off the critical path."""
        hit, _ = self.l1d.access(addr, is_write=True)
        if not hit:
            self._miss_latency(addr, is_write=True)
        return now + self.config.l1d_latency

    def ifetch(self, pc: int, now: int) -> int:
        """Instruction fetch; returns the cycle the line is available.

        A simple next-line prefetcher (standard in any L1I) runs ahead so
        sequential code does not pay a full miss per line.

        Same-block memo: the fetch stage probes the I-cache every cycle it
        fetches, and consecutive probes overwhelmingly land in the same
        line.  Re-running the full path for the same block is provably a
        pure L1I hit with no other state change — the block is already
        present and MRU *within its own set* (the next-line fills land in
        the three following sets, which are distinct whenever the L1I has
        at least 8 sets), and the three next lines are already installed,
        so the prefetch loop finds them and does nothing.  The memo
        replicates the only observable effect (one L1I hit) and returns
        ``now + 1``; any ifetch to a different block re-runs the full path
        and re-arms it.  Only ``ifetch``/``warm_ifetch`` touch the L1I, so
        no other access can invalidate the memoised facts.
        """
        cfg = self.config
        block = self.l1i.block_addr(pc)
        if block == self._ifetch_block:
            self.l1i.stats.hits += 1
            return now + 1
        hit, _ = self.l1i.access(pc, is_write=False)
        if hit:
            ready = now + 1
        else:
            ready = now + 1 + self._miss_latency(pc, is_write=False)
        # Next-line prefetch: pull the following lines toward L1I.
        line = cfg.line_bytes
        base = pc & ~(line - 1)
        for d in range(1, 4):
            nxt = base + d * line
            if not self.l1i.lookup(nxt):
                self._miss_latency(nxt, is_write=False)  # install in L2/L3
                self.l1i.fill(nxt, prefetched=True)
        if self._ifetch_memo_ok:
            self._ifetch_block = block
        return ready

    # ------------------------------------------------------------------
    # Warmup interface (sampled simulation).  ``fill`` installs a block
    # without demand hit/miss accounting, so warming a checkpoint's memory
    # footprint does not pollute the region's cache statistics; prefetcher
    # state machines are trained so they start the region mid-stride.
    # ------------------------------------------------------------------
    def warm_load(self, pc: int, addr: int) -> None:
        self.l3.fill(addr)
        self.l2.fill(addr)
        self.l1d.fill(addr)
        targets = []
        if self.l1_prefetcher is not None:
            targets.extend(self.l1_prefetcher.train_and_predict(pc, addr))
        if self.l2_prefetcher is not None:
            targets.extend(self.l2_prefetcher.train_and_predict(addr))
        for t in targets:
            if not self.l1d.lookup(t):
                self.l1d.fill(t, prefetched=True)

    def warm_store(self, pc: int, addr: int) -> None:
        self.l3.fill(addr)
        self.l2.fill(addr)
        self.l1d.fill(addr)

    def warm_ifetch(self, pc: int) -> None:
        self._ifetch_block = -1
        self.l3.fill(pc)
        self.l2.fill(pc)
        self.l1i.fill(pc)

    # ------------------------------------------------------------------
    def _train_prefetchers(self, pc: int, addr: int, now: int) -> None:
        cfg = self.config
        targets = []
        if self.l1_prefetcher is not None:
            targets.extend(self.l1_prefetcher.train_and_predict(pc, addr))
        if self.l2_prefetcher is not None:
            targets.extend(self.l2_prefetcher.train_and_predict(addr))
        for t in targets:
            block = self.l1d.block_addr(t)
            if self.l1d.lookup(t) or block in self._inflight:
                continue
            latency = cfg.l1d_latency + self._miss_latency(t, is_write=False)
            self._inflight[block] = now + latency
            self.l1d.fill(t, prefetched=True)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "l1i": self.l1i.stats,
            "l1d": self.l1d.stats,
            "l2": self.l2.stats,
            "l3": self.l3.stats,
            "mshr_merges": self.mshrs.merges,
            "mshr_full_stalls": self.mshrs.full_stalls,
            "l1_prefetches": self.l1_prefetcher.issued if self.l1_prefetcher else 0,
            "l2_prefetches": self.l2_prefetcher.issued if self.l2_prefetcher else 0,
        }
