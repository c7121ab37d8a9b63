"""TAGE-SC-L-lite: the core's default direction predictor.

A scaled-down but structurally faithful TAGE-SC-L (Seznec, CBP-5):

* ``TAGE``: a bimodal base table plus ``num_tables`` partially-tagged
  tables with geometrically increasing history lengths, usefulness
  counters, alt-prediction, and use-alt-on-newly-allocated policy.
* ``SC`` (statistical corrector lite): perceptron-style bias tables that
  can override a weak TAGE prediction when the statistical evidence
  disagrees.
* ``L`` (loop predictor): detects constant trip counts and predicts the
  loop-exit instance exactly.

The paper's evaluation uses the 64 KB championship configuration; ours is
scaled to match the scaled workload footprints (see DESIGN.md §3).  What
matters for reproducing the paper is preserved: branches whose outcomes are
regular functions of control history are predicted nearly perfectly, while
*delinquent* branches (outcomes driven by arbitrary data values) stay
unpredictable no matter the history length.
"""

from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.frontend.base import BranchPredictor, PredictorMeta
from repro.utils.bits import fold_bits


@dataclass
class TageConfig:
    """Geometry of the TAGE-SC-L-lite predictor."""

    num_tables: int = 6
    table_entries: int = 1024
    base_entries: int = 4096
    tag_bits: int = 9
    min_history: int = 4
    max_history: int = 128
    counter_bits: int = 3
    useful_bits: int = 2
    use_sc: bool = True
    use_loop: bool = True
    loop_entries: int = 64
    loop_confidence: int = 2
    useful_reset_period: int = 32768

    def history_lengths(self) -> List[int]:
        """Geometric series of history lengths, one per tagged table."""
        if self.num_tables == 1:
            return [self.min_history]
        ratio = (self.max_history / self.min_history) ** (1.0 / (self.num_tables - 1))
        lengths = []
        for i in range(self.num_tables):
            lengths.append(max(1, int(round(self.min_history * (ratio ** i)))))
        return lengths


class _TaggedTable:
    """One TAGE component table: tag/counter/useful columns.

    A probe's (index, tag) XORs a PC fold with two differently-folded
    images of the table's history, one shifted, so that short histories
    cannot cancel out of the index.  The history images are the owning
    :class:`TageSCL`'s :class:`_FoldedHistories` registers.
    """

    __slots__ = ("entries", "index_bits", "tag_bits", "history_len",
                 "tags", "ctrs", "useful", "_mask", "_tag_mask")

    def __init__(self, entries: int, tag_bits: int, history_len: int):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        self.tag_bits = tag_bits
        self.history_len = history_len
        self._mask = entries - 1
        self._tag_mask = (1 << tag_bits) - 1
        self.tags = [0] * entries
        self.ctrs = [4] * entries  # 3-bit, 0..7, taken when >= 4
        self.useful = [0] * entries

    def __getstate__(self):
        return {
            "entries": self.entries,
            "tag_bits": self.tag_bits,
            "history_len": self.history_len,
            "tags": array("i", self.tags).tobytes(),
            "ctrs": bytes(self.ctrs),
            "useful": bytes(self.useful),
        }

    def __setstate__(self, state):
        self.__init__(state["entries"], state["tag_bits"], state["history_len"])
        tags = array("i")
        tags.frombytes(state["tags"])
        self.tags = tags.tolist()
        self.ctrs = list(state["ctrs"])
        self.useful = list(state["useful"])


class _FoldedHistories:
    """Folded-history registers (Seznec & Michaud, JILP 2006).

    There is one register per distinct (history length, output width) pair
    the tagged tables hash with, updated incrementally on every history
    shift instead of refolding the whole history on every probe.  Register
    ``(hist, width)`` always equals ``fold_bits(ghr & ((1 << hist) - 1),
    width)``; ``fold_bits`` truncates its input to 64 bits, so history
    lengths are clamped to 64.

    All registers live in one Python int, ``bits``: a ``stride``-bit lane
    per register, grouped by width, so a shift updates every register with
    a handful of big-int operations.  Within a width's group, lane ``i``
    holds the ``i``-th shortest history length.
    """

    __slots__ = ("hists", "widths", "stride", "ones", "bits", "_all_ones",
                 "_carry", "_wraps", "_out_sel", "_out_masks", "_plan")

    def __init__(self, hists: List[int], widths: Tuple[int, ...]):
        self.hists = tuple(sorted({min(h, 64) for h in hists}))
        self.widths = tuple(sorted(set(widths)))
        # Room per lane for the widest fold, its carry out of a shift, and
        # the extra bit of a fold shifted left by one when hashing.
        self.stride = max(self.widths) + 2
        # Bit 0 of every lane in one width's group, and in all groups.
        self.ones = sum(1 << (self.stride * lane)
                        for lane in range(len(self.hists)))
        self._all_ones = sum(self.ones << self.group_base(w) for w in self.widths)
        # Each group's carry bits, and the shift that wraps them to bit 0.
        self._wraps = tuple((self.ones << (self.group_base(w) + w), w)
                            for w in self.widths)
        self._carry = sum(mask for mask, _ in self._wraps)
        self._out_sel = sum(1 << (h - 1) for h in self.hists)
        self._out_masks: Dict[int, int] = {}
        # (history mask, width, bit offset) of every register, for refold.
        self._plan = tuple(
            ((1 << h) - 1, w, self.group_base(w) + self.lane_shift(h))
            for w in self.widths for h in self.hists)
        self.bits = 0

    def group_base(self, width: int) -> int:
        """Bit offset of the lanes of the registers of width ``width``."""
        return self.stride * len(self.hists) * self.widths.index(width)

    def lane_shift(self, hist: int) -> int:
        """Bit offset of history length ``hist``'s lane within a group."""
        return self.stride * self.hists.index(min(hist, 64))

    def refold(self, ghr: int) -> None:
        self.bits = sum(fold_bits(ghr & mask, w) << offset
                        for mask, w, offset in self._plan)

    def shift_in(self, ghr: int, taken: bool) -> None:
        """Shift one outcome into every register; ``ghr`` is the history
        before the shift.  Each lane rotates left by one, takes the new
        outcome in bit 0 and cancels the outcome leaving its window."""
        key = ghr & self._out_sel
        out = self._out_masks.get(key)
        if out is None:
            out = self._out_masks[key] = sum(
                1 << (self.group_base(w) + self.lane_shift(h) + h % w)
                for w in self.widths for h in self.hists if key >> (h - 1) & 1)
        bits = (self.bits << 1) ^ out
        if taken:
            bits ^= self._all_ones
        carry = bits & self._carry
        bits ^= carry
        for mask, width in self._wraps:
            bits ^= (carry & mask) >> width
        self.bits = bits


class _LoopEntry:
    __slots__ = ("pc", "trip", "confidence", "arch_iter")

    def __init__(self, pc: int):
        self.pc = pc
        self.trip = -1
        self.confidence = 0
        self.arch_iter = 0


class TageSCL(BranchPredictor):
    """TAGE + statistical corrector + loop predictor."""

    def __init__(self, config: Optional[TageConfig] = None):
        self.config = config or TageConfig()
        cfg = self.config
        self._tables = [
            _TaggedTable(cfg.table_entries, cfg.tag_bits, hist)
            for hist in cfg.history_lengths()
        ]
        self._base = [2] * cfg.base_entries  # 2-bit counters
        self._base_mask = cfg.base_entries - 1
        self._ghr = 0
        self._ghr_mask = (1 << cfg.max_history) - 1
        self._init_folds()
        self._use_alt_on_na = 7  # 4-bit centered counter, 0..15 (>=8 favours alt)
        self._update_count = 0
        # Statistical corrector: two tables of centered weights.
        self._sc_pc = [0] * 1024
        self._sc_hist = [0] * 1024
        self._sc_threshold = 6
        # Loop predictor: committed state per PC, speculative iteration dict.
        self._loops: Dict[int, _LoopEntry] = {}
        self._loop_spec_iter: Dict[int, int] = {}
        # Copy-on-write checkpoint cache: the pipeline checkpoints the
        # predictor at every fetch group and after every branch, but
        # speculative state only mutates on branches, so consecutive
        # checkpoints share one frozen (ghr, dict-copy, folded registers)
        # tuple.  Invalidated by every mutation of the ghr or the
        # speculative loop iterators; ``restore`` copies, so a shared
        # checkpoint is never mutated through the live dict.
        self._ckpt = None
        # Per-PC fold memo for the statistical corrector (pure function).
        self._sc_fold: Dict[int, int] = {}
        # Stats observable by tests.
        self.predictions = 0
        self.provider_hits = 0

    # ------------------------------------------------------------------
    # Prediction.
    # ------------------------------------------------------------------
    def predict(self, pc: int) -> PredictorMeta:
        """TAGE, then the statistical corrector, then the loop predictor,
        in one pass.  The payload is the flat tuple ``update`` unpacks:
        the two lane words (every table's index and tag hash, see
        :meth:`_table_lookups`), the provider and alt (table, index), the
        base index, the provider/alt/TAGE predictions and the SC state."""
        self.predictions += 1
        pc_folds = self._pc_folds.get(pc)
        if pc_folds is None:
            # The PC folds, repeated in every lane.
            t0, ones = self._tables[0], self._folds.ones
            pc_folds = self._pc_folds[pc] = (
                fold_bits(pc >> 2, t0.index_bits) * ones,
                fold_bits(pc >> 2, t0.tag_bits) * ones)
        bits = self._folds.bits
        b_idx, b_idx2, b_tag, b_tag2, idx_mask, tag_mask = self._hash
        # Every lane's index and tag hash at once; each table reads its
        # history length's lane.
        idx_lanes = pc_folds[0] ^ (bits >> b_idx) ^ ((bits >> b_idx2) << 1)
        tag_lanes = pc_folds[1] ^ (bits >> b_tag) ^ ((bits >> b_tag2) << 1)
        # Longest history first: provider = longest-history hit, alt =
        # next-longest.  A tag of 0 means "invalid", so hashes map 0 to 1.
        provider = alt = p_idx = a_idx = None
        for t, tags, shift in self._probes:
            idx = (idx_lanes >> shift) & idx_mask
            if tags[idx] == (((tag_lanes >> shift) & tag_mask) or 1):
                if provider is None:
                    provider, p_idx = t, idx
                else:
                    alt, a_idx = t, idx
                    break
        base_idx = (pc >> 2) & self._base_mask
        base_pred = self._base[base_idx] >= 2
        tables = self._tables
        alt_pred = base_pred if alt is None else tables[alt].ctrs[a_idx] >= 4
        if provider is None:
            provider_pred = pred = base_pred
        else:
            self.provider_hits += 1
            table = tables[provider]
            ctr = table.ctrs[p_idx]
            provider_pred = pred = ctr >= 4
            # A newly allocated provider defers to the alt prediction
            # while the use-alt-on-newly-allocated counter favours it.
            if ((ctr == 3 or ctr == 4) and table.useful[p_idx] == 0
                    and self._use_alt_on_na >= 8):
                pred = alt_pred
        tage_pred = pred
        cfg = self.config
        if cfg.use_sc:
            # Statistical corrector: may invert a weak TAGE prediction.
            # fold_bits(v, 10) is the identity for v < 1024, so the folded
            # 8-bit history image is just the raw low history byte.
            sc_i1 = self._sc_fold.get(pc)
            if sc_i1 is None:
                sc_i1 = self._sc_fold[pc] = fold_bits(pc >> 2, 10)
            sc_i2 = (sc_i1 ^ (self._ghr & 0xFF)) & 1023
            sc_total = (self._sc_pc[sc_i1] + self._sc_hist[sc_i2]
                        + (5 if pred else -5))
            use_sc = ((sc_total >= 0) != pred
                      and abs(sc_total) > self._sc_threshold)
            if use_sc:
                pred = not pred
        else:
            sc_i1 = sc_i2 = sc_total = None
            use_sc = False
        if cfg.use_loop:
            # Loop predictor: a confident entry predicts the exit exactly.
            entry = self._loops.get(pc)
            if entry is not None and entry.confidence >= cfg.loop_confidence:
                pred = self._loop_spec_iter.get(pc, entry.arch_iter) < entry.trip
        return PredictorMeta(pred, (
            idx_lanes, tag_lanes, provider, p_idx, alt, a_idx, base_idx,
            provider_pred, alt_pred, tage_pred, sc_i1, sc_i2, sc_total, use_sc))

    def _table_lookups(self, idx_lanes: int,
                       tag_lanes: int) -> List[Tuple[int, int]]:
        """Every tagged table's ``(index, tag)``, in table order, from a
        prediction's two lane words."""
        _, _, _, _, idx_mask, tag_mask = self._hash
        return [((idx_lanes >> shift) & idx_mask,
                 ((tag_lanes >> shift) & tag_mask) or 1)
                for _, _, shift in reversed(self._probes)]

    # ------------------------------------------------------------------
    # Speculative history.
    # ------------------------------------------------------------------
    def _init_folds(self) -> None:
        """Lay out the folded-history registers and fill them from the GHR.

        Every table hashes its history with folds of four widths: the
        index, its shifted twin, the tag and its shifted twin.  All tables
        share one geometry, so the widths are the same for each.
        """
        t0 = self._tables[0]
        widths = (t0.index_bits, max(1, t0.index_bits - 2),
                  t0.tag_bits, t0.tag_bits - 1)
        fh = self._folds = _FoldedHistories(
            [table.history_len for table in self._tables], widths)
        # The four roles' group offsets, then the index and tag masks.
        self._hash = tuple(fh.group_base(w) for w in widths) + (
            t0._mask, t0._tag_mask)
        # (table number, tag column, lane offset), longest history first.
        self._probes = tuple(
            (t, table.tags, fh.lane_shift(table.history_len))
            for t, table in reversed(list(enumerate(self._tables))))
        self._pc_folds: Dict[int, Tuple[int, int]] = {}
        fh.refold(self._ghr)

    def spec_update(self, pc: int, taken: bool) -> None:
        self._ckpt = None
        ghr = self._ghr
        self._folds.shift_in(ghr, taken)
        self._ghr = ((ghr << 1) | int(taken)) & self._ghr_mask
        if self.config.use_loop and pc in self._loops:
            entry = self._loops[pc]
            cur = self._loop_spec_iter.get(pc, entry.arch_iter)
            self._loop_spec_iter[pc] = cur + 1 if taken else 0

    def checkpoint(self) -> Any:
        # The folded registers are a function of the GHR; carrying them
        # lets ``restore`` adopt them instead of refolding.
        ckpt = self._ckpt
        if ckpt is None:
            ckpt = self._ckpt = (self._ghr, dict(self._loop_spec_iter),
                                 self._folds.bits)
        return ckpt

    def restore(self, state: Any) -> None:
        self._ghr, spec_iter, self._folds.bits = state
        self._loop_spec_iter = dict(spec_iter)
        # The live state now equals ``state`` again, and ``state`` is
        # never mutated, so it serves as the next checkpoint.
        self._ckpt = state

    # ------------------------------------------------------------------
    # Retire-time training.
    # ------------------------------------------------------------------
    def _allocate(self, provider: Optional[int], taken: bool,
                  idx_lanes: int, tag_lanes: int) -> None:
        start = 0 if provider is None else provider + 1
        if start >= len(self._tables):
            return
        lookups = self._table_lookups(idx_lanes, tag_lanes)
        # Find an entry with useful == 0 in a longer table; decay otherwise.
        for t in range(start, len(self._tables)):
            idx, tag = lookups[t]
            table = self._tables[t]
            if table.useful[idx] == 0:
                table.tags[idx] = tag
                table.ctrs[idx] = 4 if taken else 3
                return
        for t in range(start, len(self._tables)):
            idx, _ = lookups[t]
            if self._tables[t].useful[idx] > 0:
                self._tables[t].useful[idx] -= 1

    @staticmethod
    def _train_ctr(ctrs: List[int], idx: int, taken: bool) -> None:
        ctr = ctrs[idx]
        if taken:
            if ctr < 7:
                ctrs[idx] = ctr + 1
        elif ctr > 0:
            ctrs[idx] = ctr - 1

    def _train_base(self, idx: int, taken: bool) -> None:
        v = self._base[idx]
        self._base[idx] = min(3, v + 1) if taken else max(0, v - 1)

    def _update_loop(self, pc: int, taken: bool) -> None:
        entry = self._loops.get(pc)
        if entry is None:
            if not taken:
                return  # only start tracking branches seen taken (loop-like)
            if len(self._loops) >= self.config.loop_entries:
                # Evict an unconfident entry if possible.
                victim = next((k for k, e in self._loops.items() if e.confidence == 0), None)
                if victim is None:
                    return
                del self._loops[victim]
                self._loop_spec_iter.pop(victim, None)
                self._ckpt = None  # the checkpointed iterators changed
            entry = _LoopEntry(pc)
            self._loops[pc] = entry
        if taken:
            entry.arch_iter += 1
            if entry.trip >= 0 and entry.arch_iter > entry.trip:
                # Ran past the learned trip count: trip is not constant.
                entry.confidence = 0
                entry.trip = -1
        else:
            if entry.arch_iter == entry.trip:
                entry.confidence = min(15, entry.confidence + 1)
            else:
                entry.trip = entry.arch_iter
                entry.confidence = 0
            entry.arch_iter = 0

    def update(self, pc: int, taken: bool, meta: PredictorMeta) -> None:
        info = meta.payload
        if info is None:  # defensive: prediction made without lookup
            return
        (idx_lanes, tag_lanes, provider, p_idx, alt, a_idx, base_idx,
         provider_pred, alt_pred, tage_pred, sc_i1, sc_i2, sc_total,
         use_sc) = info
        if provider is not None:
            table = self._tables[provider]
            ctr = table.ctrs[p_idx]
            weak = ctr == 3 or ctr == 4
            # Use-alt-on-newly-allocated policy training.
            if weak and table.useful[p_idx] == 0 and provider_pred != alt_pred:
                if provider_pred == taken:
                    if self._use_alt_on_na > 0:
                        self._use_alt_on_na -= 1
                elif self._use_alt_on_na < 15:
                    self._use_alt_on_na += 1
        if tage_pred != taken:
            # Allocation only touches tables longer than the provider's.
            self._allocate(provider, taken, idx_lanes, tag_lanes)
        if provider is None:
            self._train_base(base_idx, taken)
        else:
            self._train_ctr(table.ctrs, p_idx, taken)
            if provider_pred != alt_pred:
                useful = table.useful[p_idx]
                if provider_pred == taken:
                    if useful < (1 << self.config.useful_bits) - 1:
                        table.useful[p_idx] = useful + 1
                elif useful > 0:
                    table.useful[p_idx] = useful - 1
            # Train the alt/base when the provider entry is weak.
            if weak:
                if alt is None:
                    self._train_base(base_idx, taken)
                else:
                    self._train_ctr(self._tables[alt].ctrs, a_idx, taken)
        self._update_count += 1
        if self._update_count % self.config.useful_reset_period == 0:
            for tagged in self._tables:
                tagged.useful = [u >> 1 for u in tagged.useful]

        if self.config.use_sc and (
                use_sc or abs(sc_total) <= self._sc_threshold * 2):
            # Perceptron-style: train on use or low confidence.
            delta = 1 if taken else -1
            self._sc_pc[sc_i1] = max(-31, min(31, self._sc_pc[sc_i1] + delta))
            self._sc_hist[sc_i2] = max(-31, min(31, self._sc_hist[sc_i2] + delta))
        if self.config.use_loop:
            self._update_loop(pc, taken)

    # ------------------------------------------------------------------
    # Compact serialization: counter columns pickle as packed bytes, the
    # pure-function memos and derived hashing tables are dropped (rebuilt
    # on demand or by ``_init_folds``), and the folded histories are
    # recomputed from the GHR.
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = dict(self.__dict__)
        state["_base"] = bytes(state["_base"])
        state["_sc_pc"] = array("b", state["_sc_pc"]).tobytes()
        state["_sc_hist"] = array("b", state["_sc_hist"]).tobytes()
        state["_sc_fold"] = {}
        state["_ckpt"] = None
        for key in ("_folds", "_hash", "_probes", "_pc_folds"):
            del state[key]
        return state

    def __setstate__(self, state):
        state["_base"] = list(state["_base"])
        for key in ("_sc_pc", "_sc_hist"):
            col = array("b")
            col.frombytes(state[key])
            state[key] = col.tolist()
        self.__dict__.update(state)
        self._init_folds()
