"""Storage structures against recorded behaviour digests.

Each test drives one storage class (PRF, predicate PRF, shared pool,
rename map, BTB, cache) through a seeded random operation sequence and
folds every observable result — return values, ``free_count``/``held_by``,
``mapped_physical``, the final columns, cache stats — into a sha256.  The
digest must equal the one in :data:`DIGESTS`.  Those values were recorded
while the pre-columnar object-graph twins still existed, and both
implementations produced them, so a match means the class still behaves
exactly like the object-graph design it replaced: same allocation order,
same LRU order, same wakeup lists, same stats.  The ``regfile`` digest
was re-recorded when ``PhysRegFile.drop_waiters`` was deleted and its
operation left the drive: the implementation that had matched the old
digest produced the new one before the deletion.

The whole-core half of the exactness argument is the recorded run fixture
(``tests/core/test_exactness_fixture.py``).
"""

import dataclasses
import hashlib
import random

from repro.core.freelist import SharedPhysPool
from repro.core.regfile import PhysRegFile, PredRegFile
from repro.core.rename import RenameMapTable
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
}


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
