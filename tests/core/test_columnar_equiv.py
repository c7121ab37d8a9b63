"""Storage structures against recorded behaviour digests.

Each test drives one storage class (PRF, predicate PRF, shared pool,
rename map, BTB, cache, TAGE-SC-L predictor) through a seeded random
operation sequence and folds every observable result — return values,
``free_count``/``held_by``, ``mapped_physical``, the final columns, cache
stats — into a sha256.  The digest must equal the one in :data:`DIGESTS`.
The storage values were recorded while the pre-columnar object-graph
twins still existed, and both implementations produced them, so a match
means the class still behaves exactly like the object-graph design it
replaced: same allocation order, same LRU order, same wakeup lists, same
stats.  The ``regfile`` digest
was re-recorded when ``PhysRegFile.drop_waiters`` was deleted and its
operation left the drive: the implementation that had matched the old
digest produced the new one before the deletion.  The two ``tage``
digests were recorded on the multi-pass predictor (per-stage lookup
dicts, checkpoints refolded from the GHR on restore) that the one-pass
``TageSCL.predict`` replaced, so a match means the same predictions,
checkpoints and final tables.

The whole-core half of the exactness argument is the recorded run fixture
(``tests/core/test_exactness_fixture.py``).
"""

import dataclasses
import hashlib
import pickle
import random

from repro.core.freelist import SharedPhysPool
from repro.core.regfile import PhysRegFile, PredRegFile
from repro.core.rename import RenameMapTable
from repro.frontend.tage import TageConfig, TageSCL
from repro.frontend.targets import BranchTargetBuffer
from repro.memory.cache import Cache

DIGESTS = {
    "regfile":
        "a33cf969b5fd5bb64c339ee901c725ee3139e954de072c2e21fd102e5392cd19",
    "pred_regfile":
        "b0d3d6e3083c23b053b1f3adfc14a305d206e40763f0aacb1cdf1704d799690d",
    "shared_pool":
        "dfb21286dc9ada284dbe368a520577146eb30f68a00c2f29cda79ca24f4b4069",
    "rename_map":
        "12d4ce0a7fda3705700963b961e5335f66bf4516579bc04c57f06e34e25f0da3",
    "btb":
        "40c3dffa3ce5f9b3878e4323e33429cd3ecb1ee934b0a2413874006335656dfa",
    "cache":
        "b8ef721ffc8bbef84a84e46941c99f09c26a3fac493a21b3b94266ca9fc89a81",
    "tage":
        "0eee78a3b51cc2594bd2dbeb83ae091f5416f05c0b3a9d54148cebcad51ce962",
    "tage_small":
        "a1e0bcacbd1644c79507de2c26888460529f16bdf8671c9568fa2f4c5632aa35",
}

# A small TAGE geometry without the SC and L components; its short
# usefulness-reset period lets the drive cross several resets.
SMALL_TAGE = TageConfig(num_tables=4, table_entries=64, base_entries=256,
                        tag_bits=7, min_history=3, max_history=200,
                        use_sc=False, use_loop=False, useful_reset_period=512)


class _Trace:
    """sha256 over the ``repr`` of every observed value, in order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def __call__(self, *observed) -> None:
        self._h.update((repr(observed) + "\n").encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def drive_regfile(rf) -> str:
    rng = random.Random(7)
    trace = _Trace()
    for step in range(3000):
        op = rng.randrange(4)
        reg = rng.randrange(64)
        if op == 0:
            trace("write", rf.write(reg, step))
        elif op == 1:
            trace("subscribe", rf.subscribe(reg, f"w{step}"))
        elif op == 2:
            rf.mark_not_ready(reg)
        else:
            trace("read", rf.read(reg))
        trace("ready", rf.ready[reg])
    trace("final", list(rf.value), list(rf.ready), sorted(rf._waiters.items()))
    return trace.hexdigest()


def drive_pred_regfile(rf) -> str:
    rng = random.Random(19)
    trace = _Trace()
    for step in range(1500):
        reg = rng.randrange(1, 32)
        op = rng.randrange(3)
        if op == 0:
            enabled, taken = rng.random() < 0.5, rng.random() < 0.5
            trace("write_pred", rf.write_pred(reg, enabled, taken))
        elif op == 1:
            direction = rng.random() < 0.5
            probe = rng.randrange(32)  # includes pred0
            trace("enabled", rf.consumer_enabled(probe, direction))
        else:
            trace("read", rf.read(reg))
    trace("final", list(rf.value))
    return trace.hexdigest()


def drive_shared_pool(pool) -> str:
    rng = random.Random(11)
    trace = _Trace()
    quota = {0: 48, 1: 24, 2: 12}
    held = {0: [], 1: [], 2: []}
    for _ in range(5000):
        tid = rng.randrange(3)
        if rng.random() < 0.55 or not held[tid]:
            reg = pool.allocate(tid, quota[tid])
            trace("allocate", reg)  # same register, same order, same refusals
            if reg is not None:
                held[tid].append(reg)
        else:
            reg = held[tid].pop(rng.randrange(len(held[tid])))
            pool.release(tid, reg)
        trace("counts", pool.free_count(), pool.held_by(tid), pool.held_total())
    trace("final", list(pool.free_list()))
    return trace.hexdigest()


def drive_rename_map(rmt) -> str:
    rng = random.Random(3)
    trace = _Trace()
    snaps = []
    for _ in range(2000):
        op = rng.randrange(4)
        if op == 0:
            logical = rng.randrange(1, rmt.num_logical)
            phys = rng.randrange(1, 300)
            trace("set", rmt.set(logical, phys))
        elif op == 1:
            logical = rng.randrange(rmt.num_logical)
            trace("lookup", rmt.lookup(logical))
        elif op == 2 or not snaps:
            snaps.append(rmt.snapshot())
        else:
            snap = snaps.pop(rng.randrange(len(snaps)))
            trace("restore", list(snap))
            rmt.restore(snap)
        trace("mapped", list(rmt.mapped_physical()))
    trace("final", list(rmt.map))
    return trace.hexdigest()


def drive_btb(btb) -> str:
    rng = random.Random(5)
    trace = _Trace()
    pcs = [rng.randrange(1 << 18) * 4 for _ in range(200)]
    for _ in range(5000):
        pc = rng.choice(pcs)
        if rng.random() < 0.5:
            btb.insert(pc, rng.randrange(1 << 18) * 4)
        else:
            # lookup also exercises the MRU promotion
            trace("lookup", btb.lookup(pc))
    return trace.hexdigest()


def drive_cache(cache) -> str:
    rng = random.Random(13)
    trace = _Trace()
    addrs = [rng.randrange(1 << 18) for _ in range(400)]
    for _ in range(6000):
        addr = rng.choice(addrs)
        roll = rng.random()
        if roll < 0.6:
            is_write = rng.random() < 0.3
            trace("access", cache.access(addr, is_write=is_write))
        elif roll < 0.8:
            prefetched = rng.random() < 0.5
            trace("fill", cache.fill(addr, prefetched=prefetched))
        else:
            trace("lookup", cache.lookup(addr))
    trace("stats", dataclasses.astuple(cache.stats))
    cache.invalidate_all()
    assert not any(cache.lookup(a) for a in addrs)
    return trace.hexdigest()


def drive_tage(config) -> str:
    """Fetch-order predictions with speculative history, retire-order
    training, squash recovery to an in-flight branch's checkpoint, and
    pickle round trips of the live predictor."""
    rng = random.Random(17)
    trace = _Trace()
    p = TageSCL(config)
    pcs = [0x4000 + 4 * rng.randrange(1024) for _ in range(96)]
    # Per-PC behaviour: a loop trip count, a taken bias, or random (0).
    kinds = {pc: rng.choice((3, 7, 20, 0.9, 0.1, 0)) for pc in pcs}
    visits = dict.fromkeys(pcs, 0)
    inflight = []  # (pc, meta, checkpoint before the prediction), oldest first

    def outcome(pc):
        kind, n = kinds[pc], visits[pc]
        visits[pc] = n + 1
        if isinstance(kind, int) and kind:
            return n % (kind + 1) != kind
        return rng.random() < (kind or 0.5)

    for _ in range(8000):
        roll = rng.random()
        if roll < 0.45 or not inflight:
            pc = rng.choice(pcs)
            ckpt = p.checkpoint()
            meta = p.predict(pc)
            # A checkpoint's history and loop iterators; the folded
            # registers it may also carry are a function of the history.
            trace("predict", pc, meta.taken, ckpt[0], sorted(ckpt[1].items()))
            p.spec_update(pc, meta.taken)
            inflight.append((pc, meta, ckpt))
        elif roll < 0.8:
            pc, meta, _ = inflight.pop(0)
            p.update(pc, outcome(pc), meta)
        elif roll < 0.87:
            # A fetch group without a branch: a checkpoint and no shift.
            ckpt = p.checkpoint()
            trace("checkpoint", ckpt[0], sorted(ckpt[1].items()))
        elif roll < 0.97:
            # Mispredict recovery: drop the younger branches, restore the
            # pre-fetch state and shift in the other direction.
            i = rng.randrange(len(inflight))
            pc, meta, ckpt = inflight[i]
            del inflight[i + 1:]
            p.restore(ckpt)
            p.spec_update(pc, not meta.taken)
            trace("restored", p._ghr)
        else:
            p = pickle.loads(pickle.dumps(p))
    trace("final", p._ghr, p._use_alt_on_na, p._update_count,
          p.predictions, p.provider_hits, p._base, p._sc_pc, p._sc_hist,
          sorted(p._loop_spec_iter.items()),
          sorted((pc, e.trip, e.confidence, e.arch_iter)
                 for pc, e in p._loops.items()))
    for table in p._tables:
        trace("table", table.tags, table.ctrs, table.useful)
    return trace.hexdigest()


def test_regfile_equivalence():
    assert drive_regfile(PhysRegFile(64)) == DIGESTS["regfile"]


def test_pred_regfile_equivalence():
    assert drive_pred_regfile(PredRegFile(32)) == DIGESTS["pred_regfile"]


def test_shared_pool_equivalence():
    pool = SharedPhysPool(96, reserved=2)
    assert drive_shared_pool(pool) == DIGESTS["shared_pool"]


def test_rename_map_equivalence():
    assert drive_rename_map(RenameMapTable()) == DIGESTS["rename_map"]


def test_btb_equivalence():
    btb = BranchTargetBuffer(sets=16, ways=4)
    assert drive_btb(btb) == DIGESTS["btb"]


def test_cache_equivalence():
    cache = Cache(4096, ways=4, name="equiv")
    assert drive_cache(cache) == DIGESTS["cache"]


def test_tage_equivalence():
    assert drive_tage(TageConfig()) == DIGESTS["tage"]


def test_tage_small_equivalence():
    assert drive_tage(SMALL_TAGE) == DIGESTS["tage_small"]
