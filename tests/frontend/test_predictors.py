import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import (
    BimodalPredictor,
    GsharePredictor,
    TageConfig,
    TageSCL,
)
from repro.utils.bits import fold_bits


def _fold_bits_index_tag(table, pc, ghr):
    """A tagged table's (index, tag) hashed directly from the GHR with
    ``fold_bits`` (which truncates its input to 64 bits)."""
    h = ghr & ((1 << min(table.history_len, 64)) - 1)
    ib, tb = table.index_bits, table.tag_bits
    idx = (fold_bits(pc >> 2, ib) ^ fold_bits(h, ib)
           ^ (fold_bits(h, max(1, ib - 2)) << 1)) & (table.entries - 1)
    tag = (fold_bits(pc >> 2, tb) ^ fold_bits(h, tb)
           ^ (fold_bits(h, tb - 1) << 1)) & ((1 << tb) - 1)
    return idx, tag or 1


def _train_and_measure(predictor, stream, warmup=0):
    """Run (pc, taken) pairs through predict/spec_update/update; return accuracy.

    Models the hardware history-repair loop: the predicted direction is
    speculatively shifted into history, and on a misprediction the history
    is restored from the pre-branch checkpoint and the actual outcome is
    inserted (exactly what squash-recovery does in the core).
    """
    correct = 0
    total = 0
    for i, (pc, taken) in enumerate(stream):
        cp = predictor.checkpoint()
        meta = predictor.predict(pc)
        predictor.spec_update(pc, meta.taken)
        if meta.taken != taken:
            predictor.restore(cp)
            predictor.spec_update(pc, taken)
        predictor.update(pc, taken, meta)
        if i >= warmup:
            total += 1
            correct += int(meta.taken == taken)
    return correct / max(total, 1)


def _alternating(pc, n):
    return [(pc, bool(i % 2)) for i in range(n)]


def _biased(pc, n, rng, p_taken=0.95):
    return [(pc, rng.random() < p_taken) for i in range(n)]


def _random_stream(pc, n, rng):
    return [(pc, rng.random() < 0.5) for _ in range(n)]


class TestBimodal:
    def test_learns_always_taken(self):
        p = BimodalPredictor()
        acc = _train_and_measure(p, [(0x1000, True)] * 100, warmup=4)
        assert acc == 1.0

    def test_learns_always_not_taken(self):
        p = BimodalPredictor()
        acc = _train_and_measure(p, [(0x1000, False)] * 100, warmup=4)
        assert acc == 1.0

    def test_alternating_is_poor(self):
        p = BimodalPredictor()
        acc = _train_and_measure(p, _alternating(0x1000, 200), warmup=10)
        assert acc < 0.7

    def test_distinct_pcs_use_distinct_counters(self):
        p = BimodalPredictor()
        stream = [(0x1000, True), (0x2000, False)] * 50
        acc = _train_and_measure(p, stream, warmup=4)
        assert acc == 1.0

    def test_confidence_tracks_saturation(self):
        p = BimodalPredictor()
        for _ in range(4):
            p.update(0x1000, True)
        assert p.confidence(0x1000)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            BimodalPredictor(entries=1000)


class TestGshare:
    def test_learns_alternating_pattern(self):
        p = GsharePredictor()
        acc = _train_and_measure(p, _alternating(0x1000, 400), warmup=100)
        assert acc > 0.95

    def test_learns_period_4_pattern(self):
        p = GsharePredictor()
        pattern = [True, True, False, True]
        stream = [(0x1000, pattern[i % 4]) for i in range(800)]
        acc = _train_and_measure(p, stream, warmup=200)
        assert acc > 0.9

    def test_checkpoint_restore_roundtrip(self):
        p = GsharePredictor()
        for i in range(20):
            p.spec_update(0x1000, bool(i % 3))
        cp = p.checkpoint()
        before = p.predict(0x1000).taken
        p.spec_update(0x1000, True)
        p.spec_update(0x1000, False)
        p.restore(cp)
        assert p.predict(0x1000).taken == before


class TestTage:
    def test_learns_constant_direction_fast(self):
        p = TageSCL()
        acc = _train_and_measure(p, [(0x1000, True)] * 200, warmup=10)
        assert acc > 0.99

    def test_learns_alternating(self):
        p = TageSCL()
        acc = _train_and_measure(p, _alternating(0x1000, 600), warmup=200)
        assert acc > 0.95

    def test_learns_long_period_pattern(self):
        """A period-12 pattern needs > bimodal/gshare-short history."""
        p = TageSCL()
        pattern = [True] * 11 + [False]
        stream = [(0x1000, pattern[i % 12]) for i in range(3000)]
        acc = _train_and_measure(p, stream, warmup=1000)
        assert acc > 0.95

    def test_random_data_dependent_branch_stays_delinquent(self):
        """The defining property: arbitrary-data branches are unpredictable."""
        rng = random.Random(7)
        p = TageSCL()
        acc = _train_and_measure(p, _random_stream(0x1000, 4000, rng), warmup=500)
        assert acc < 0.65

    def test_biased_branch_tracks_bias(self):
        rng = random.Random(11)
        p = TageSCL()
        acc = _train_and_measure(p, _biased(0x1000, 3000, rng, 0.95), warmup=500)
        assert acc > 0.9

    def test_correlated_branches(self):
        """Branch B repeats branch A's outcome: global history captures it."""
        rng = random.Random(3)
        p = TageSCL()
        stream = []
        for _ in range(1500):
            a = rng.random() < 0.5
            stream.append((0x1000, a))
            stream.append((0x2000, a))
        correct_b = 0
        total_b = 0
        for i, (pc, taken) in enumerate(stream):
            cp = p.checkpoint()
            meta = p.predict(pc)
            p.spec_update(pc, meta.taken)
            if meta.taken != taken:
                p.restore(cp)
                p.spec_update(pc, taken)
            p.update(pc, taken, meta)
            if pc == 0x2000 and i > 600:
                total_b += 1
                correct_b += int(meta.taken == taken)
        assert correct_b / total_b > 0.95

    def test_loop_predictor_nails_constant_trip_count(self):
        cfg = TageConfig(use_loop=True)
        p = TageSCL(cfg)
        trip = 37  # too long for comfortable history capture
        stream = []
        for _ in range(60):
            stream.extend([(0x1000, True)] * trip)
            stream.append((0x1000, False))
        acc = _train_and_measure(p, stream, warmup=len(stream) // 2)
        assert acc > 0.98

    def test_loop_predictor_disabled_config(self):
        cfg = TageConfig(use_loop=False)
        p = TageSCL(cfg)
        assert p._loops == {}

    def test_checkpoint_restore_roundtrip(self):
        p = TageSCL()
        for i in range(50):
            p.spec_update(0x1000 + 4 * (i % 5), bool(i % 3))
        cp = p.checkpoint()
        ghr_before = p._ghr
        p.spec_update(0x1000, True)
        p.spec_update(0x1004, False)
        p.restore(cp)
        assert p._ghr == ghr_before

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([
               TageConfig(),
               # Histories shorter than a fold width, and one past 64 bits.
               TageConfig(num_tables=5, table_entries=64, tag_bits=7,
                          min_history=3, max_history=200)]),
           st.lists(st.tuples(
               st.sampled_from(("shift", "shift", "shift", "checkpoint",
                                "restore", "pickle")),
               st.booleans(), st.integers(0, 1 << 16)), max_size=300))
    def test_folded_histories_match_fold_bits(self, cfg, steps):
        p = TageSCL(cfg)
        ckpts = [p.checkpoint()]
        for op, taken, pick in steps:
            if op == "shift":
                p.spec_update(0x1000, taken)
            elif op == "checkpoint":
                ckpts.append(p.checkpoint())
            elif op == "restore":
                p.restore(ckpts[pick % len(ckpts)])
            else:
                p = pickle.loads(pickle.dumps(p))
            pc = 0x1000 + 4 * pick
            idx_lanes, tag_lanes = p.predict(pc).payload[:2]
            assert p._table_lookups(idx_lanes, tag_lanes) == [
                _fold_bits_index_tag(t, pc, p._ghr) for t in p._tables]

    def test_history_lengths_are_geometric(self):
        cfg = TageConfig(num_tables=6, min_history=4, max_history=128)
        lengths = cfg.history_lengths()
        assert lengths[0] == 4
        assert lengths[-1] == 128
        assert all(a < b for a, b in zip(lengths, lengths[1:]))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0x1000, 0x1100), st.booleans()), max_size=200))
    def test_never_crashes_on_random_streams(self, stream):
        p = TageSCL(TageConfig(table_entries=64, base_entries=128))
        for pc, taken in stream:
            pc &= ~3
            meta = p.predict(pc)
            p.spec_update(pc, meta.taken)
            p.update(pc, taken, meta)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32))
    def test_counters_stay_in_range_after_training(self, seed):
        rng = random.Random(seed)
        p = TageSCL(TageConfig(table_entries=64, base_entries=128))
        for _ in range(300):
            pc = rng.randrange(0x1000, 0x1100) & ~3
            taken = rng.random() < 0.5
            meta = p.predict(pc)
            p.spec_update(pc, meta.taken)
            p.update(pc, taken, meta)
        for table in p._tables:
            assert all(0 <= c <= 7 for c in table.ctrs)
            assert all(0 <= u <= 3 for u in table.useful)
        assert all(0 <= c <= 3 for c in p._base)
