import pytest

from repro.core import CoreConfig, PartitionPlan, PhysRegFile, PredRegFile, RenameMapTable, SharedPhysPool
from repro.core.lsq import LoadQueue, StoreQueue
from repro.core.uop import Uop
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode


def _uop(seq, op=Opcode.ADD, addr=None, value=None, pred_enabled=None):
    u = Uop(Instruction(opcode=op, rd=1, rs1=2, rs2=3, pc=0x1000), 0, seq, 0)
    u.mem_addr = addr
    u.store_value = value
    u.pred_enabled = pred_enabled
    return u


class TestPartitionPlan:
    def test_table1_mt_ito(self):
        plan = PartitionPlan(CoreConfig(), "MT_ITO")
        mt, ito = plan.share("MT"), plan.share("ITO")
        assert mt.fetch_width == ito.fetch_width == 4
        assert mt.rob == ito.rob == 316
        assert mt.lq == ito.lq == 72

    def test_table1_mt_ot_it(self):
        plan = PartitionPlan(CoreConfig(), "MT_OT_IT")
        mt, ot, it = plan.share("MT"), plan.share("OT"), plan.share("IT")
        assert mt.fetch_width == 4
        assert ot.fetch_width == 1
        assert it.fetch_width == 3
        assert mt.rob == 316
        assert ot.rob == 79
        assert it.rob == 237

    def test_mt_only_gets_everything(self):
        plan = PartitionPlan(CoreConfig(), "MT_ONLY")
        assert plan.share("MT").rob == 632

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            PartitionPlan(CoreConfig(), "WAT")

    def test_inactive_role_rejected(self):
        plan = PartitionPlan(CoreConfig(), "MT_ONLY")
        with pytest.raises(ValueError):
            plan.share("OT")

    def test_rob_must_be_divisible_by_8(self):
        with pytest.raises(ValueError):
            CoreConfig(rob_size=100)

    def test_with_window_scales_companions(self):
        cfg = CoreConfig().with_window(1024)
        assert cfg.rob_size == 1024
        assert cfg.lq_size > CoreConfig().lq_size


class TestPhysRegFile:
    def test_zero_reg_constant(self):
        prf = PhysRegFile(8)
        assert prf.ready[0]
        assert prf.read(0) == 0
        prf.write(0, 99)
        assert prf.read(0) == 0

    def test_write_wakes_subscribers(self):
        prf = PhysRegFile(8)
        prf.mark_not_ready(3)
        u = _uop(0)
        assert prf.subscribe(3, u)
        waiters = prf.write(3, 42)
        assert waiters == [u]
        assert prf.read(3) == 42

    def test_subscribe_ready_reg_returns_false(self):
        prf = PhysRegFile(8)
        prf.write(3, 1)
        assert not prf.subscribe(3, _uop(0))


class TestPredRegFile:
    def test_pred0_always_enables(self):
        p = PredRegFile(8)
        assert p.consumer_enabled(0, True)
        assert p.consumer_enabled(0, False)

    def test_enabled_requires_direction_match(self):
        p = PredRegFile(8)
        p.write_pred(3, enabled=True, taken=True)
        assert p.consumer_enabled(3, enabling_direction=True)
        assert not p.consumer_enabled(3, enabling_direction=False)

    def test_disabled_producer_disables_consumer(self):
        """Transitive predication: a suppressed producer suppresses its
        consumers regardless of its comparison outcome (Section V-H)."""
        p = PredRegFile(8)
        p.write_pred(3, enabled=False, taken=True)
        assert not p.consumer_enabled(3, enabling_direction=True)
        assert not p.consumer_enabled(3, enabling_direction=False)

    def test_pred0_not_writable(self):
        p = PredRegFile(8)
        with pytest.raises(ValueError):
            p.write_pred(0, True, True)


class TestSharedPool:
    def test_quota_enforced(self):
        pool = SharedPhysPool(16, reserved=1)
        got = [pool.allocate(0, quota=3) for _ in range(4)]
        assert got[:3] != [None, None, None]
        assert got[3] is None

    def test_release_allows_reallocation(self):
        pool = SharedPhysPool(4, reserved=1)
        regs = [pool.allocate(0, 3) for _ in range(3)]
        assert pool.allocate(0, 3) is None
        pool.release(0, regs[0])
        assert pool.allocate(0, 3) is not None

    def test_two_threads_independent_quotas(self):
        pool = SharedPhysPool(16, reserved=1)
        for _ in range(5):
            pool.allocate(0, 5)
        assert pool.allocate(0, 5) is None
        assert pool.allocate(1, 5) is not None

    def test_over_release_detected(self):
        pool = SharedPhysPool(8, reserved=1)
        r = pool.allocate(0, 4)
        pool.release(0, r)
        with pytest.raises(RuntimeError):
            pool.release(0, r)

    def test_reserved_regs_never_allocated(self):
        pool = SharedPhysPool(4, reserved=2)
        got = {pool.allocate(0, 10) for _ in range(2)}
        assert 0 not in got and 1 not in got


class TestRenameMapTable:
    def test_initial_maps_to_zero(self):
        rmt = RenameMapTable()
        assert rmt.lookup(5) == 0

    def test_set_returns_old(self):
        rmt = RenameMapTable()
        assert rmt.set(5, 10) == 0
        assert rmt.set(5, 11) == 10

    def test_logical_zero_immutable(self):
        rmt = RenameMapTable()
        with pytest.raises(ValueError):
            rmt.set(0, 5)

    def test_snapshot_restore(self):
        rmt = RenameMapTable()
        rmt.set(1, 7)
        snap = rmt.snapshot()
        rmt.set(1, 9)
        rmt.restore(snap)
        assert rmt.lookup(1) == 7

    def test_mapped_physical_excludes_zero(self):
        rmt = RenameMapTable()
        rmt.set(1, 7)
        rmt.set(2, 8)
        assert sorted(rmt.mapped_physical()) == [7, 8]


class TestStoreQueue:
    def test_forwarding_picks_youngest_older(self):
        sq = StoreQueue(8)
        s1 = _uop(1, Opcode.SD, addr=0x100, value=10)
        s2 = _uop(3, Opcode.SD, addr=0x100, value=20)
        s3 = _uop(7, Opcode.SD, addr=0x100, value=30)  # younger than load
        for s in (s1, s2, s3):
            sq.insert(s)
        fwd = sq.forward_source(load_seq=5, addr=0x100)
        assert fwd is s2

    def test_no_forward_from_different_address(self):
        sq = StoreQueue(8)
        sq.insert(_uop(1, Opcode.SD, addr=0x200, value=10))
        assert sq.forward_source(5, 0x100) is None

    def test_no_forward_from_suppressed_store(self):
        sq = StoreQueue(8)
        sq.insert(_uop(1, Opcode.SD, addr=0x100, value=10, pred_enabled=False))
        assert sq.forward_source(5, 0x100) is None

    def test_overflow_raises(self):
        sq = StoreQueue(1)
        sq.insert(_uop(1, Opcode.SD))
        with pytest.raises(RuntimeError):
            sq.insert(_uop(2, Opcode.SD))


class TestLoadQueue:
    def test_violation_detects_younger_executed_load(self):
        lq = LoadQueue(8)
        ld = _uop(5, Opcode.LD, addr=0x100)
        ld.result = 0  # executed
        lq.insert(ld)
        st = _uop(2, Opcode.SD, addr=0x100, value=9)
        assert lq.find_violation(st) is ld

    def test_no_violation_when_load_forwarded_from_store(self):
        lq = LoadQueue(8)
        ld = _uop(5, Opcode.LD, addr=0x100)
        ld.result = 9
        ld.forward_seq = 2
        lq.insert(ld)
        st = _uop(2, Opcode.SD, addr=0x100, value=9)
        assert lq.find_violation(st) is None

    def test_no_violation_for_older_load(self):
        lq = LoadQueue(8)
        ld = _uop(1, Opcode.LD, addr=0x100)
        ld.result = 0
        lq.insert(ld)
        assert lq.find_violation(_uop(2, Opcode.SD, addr=0x100)) is None

    def test_no_violation_for_unexecuted_load(self):
        lq = LoadQueue(8)
        lq.insert(_uop(5, Opcode.LD, addr=0x100))
        assert lq.find_violation(_uop(2, Opcode.SD, addr=0x100)) is None

    def test_oldest_violating_load_chosen(self):
        lq = LoadQueue(8)
        ld1 = _uop(5, Opcode.LD, addr=0x100)
        ld1.result = 0
        ld2 = _uop(7, Opcode.LD, addr=0x100)
        ld2.result = 0
        lq.insert(ld2)
        lq.insert(ld1)
        st = _uop(2, Opcode.SD, addr=0x100)
        assert lq.find_violation(st) is ld1


class TestRetireHead:
    @pytest.mark.parametrize("queue_cls,op", [(LoadQueue, Opcode.LD),
                                              (StoreQueue, Opcode.SD)])
    def test_retire_drops_the_head_and_refuses_anything_else(self, queue_cls,
                                                             op):
        q = queue_cls(8)
        older, younger = _uop(1, op), _uop(2, op)
        q.insert(older)
        q.insert(younger)
        with pytest.raises(RuntimeError, match="queue head"):
            q.retire(younger)
        assert q.entries == [older, younger]
        q.retire(older)
        assert q.entries == [younger]
        q.retire(younger)
        with pytest.raises(RuntimeError, match="queue head"):
            q.retire(younger)

    def test_a_load_missing_from_its_queue_stops_the_run(self):
        """The core's retire must notice an LSQ that stopped mirroring the
        ROB, not pass over the missing load."""
        from repro.isa import Assembler
        from tests.core.conftest import small_core

        a = Assembler("loads")
        buf = a.data("buf", list(range(16)))
        a.li("x5", buf)
        a.li("x6", 0)
        a.li("x7", 200)
        a.label("loop")
        a.ld("x8", "x5", 0)
        a.addi("x6", "x6", 1)
        a.blt("x6", "x7", "loop")
        a.halt()
        core = small_core(a.build())
        lq = core.main.lq
        for _ in range(10_000):
            if lq.entries:
                break
            core.tick()
        assert lq.entries, "no load reached the load queue"
        del lq.entries[0]
        with pytest.raises(RuntimeError, match="load queue head"):
            core.run()
