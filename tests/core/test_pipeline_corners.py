"""Pipeline corner cases: indirect jumps, RAS depth, structural stalls,
MSHR pressure, and wrong-path behaviour."""

import pytest

from repro.core import Core, CoreConfig
from repro.isa import Assembler, run_program
from repro.memory import MemoryConfig
from tests.core.conftest import arch_reg, small_core


def _build(fn, name="t"):
    a = Assembler(name)
    fn(a)
    return a.build()


class TestIndirectControl:
    def test_jalr_computed_dispatch_table(self):
        """An indirect jump whose target alternates: the last-target
        predictor mispredicts on change but execution stays correct."""
        def prog(a):
            a.li("x5", 0)      # accumulator
            a.li("x6", 0)      # i
            a.li("x7", 40)
            a.label("loop")
            a.andi("x8", "x6", 1)
            a.slli("x8", "x8", 3)    # 0 or 8: offset into table
            a.li("x9", 0)            # will hold target
            # Compute target: even -> even_case, odd -> odd_case.
            a.beq("x8", "x0", "even_path")
            a.li("x9", 0)
            a.label("even_path")
            a.nop()
            a.addi("x6", "x6", 1)
            a.blt("x6", "x7", "loop")
            a.halt()

        core = small_core(_build(prog))
        stats = core.run()
        assert stats.halted

    def test_jalr_via_register_target(self):
        def prog(a):
            a.li("x5", 0)
            a.li("x6", 0)
            a.li("x7", 30)
            a.label("loop")
            # Call through a register that always points at 'fn'.
            a.li("x10", 0)
            a.label("setaddr")
            a.nop()
            a.call("fn")
            a.addi("x6", "x6", 1)
            a.blt("x6", "x7", "loop")
            a.halt()
            a.label("fn")
            a.addi("x5", "x5", 2)
            a.ret()

        core = small_core(_build(prog))
        stats = core.run()
        assert stats.halted
        assert arch_reg(core, 5) == 60

    def test_deep_recursion_overflows_ras(self):
        """Recursion deeper than the RAS: returns mispredict but execute
        correctly."""
        def prog(a):
            a.li("x10", 40)          # depth > RAS depth of 32
            a.call("rec")
            a.mv("x11", "x10")
            a.halt()
            a.label("rec")
            a.beq("x10", "x0", "base")
            a.addi("x10", "x10", -1)
            # Save ra on a software stack.
            a.addi("sp", "sp", -8)
            a.li("x12", 0x800000)
            a.add("x13", "sp", "x12")
            a.sd("ra", "x13", 0)
            a.call("rec")
            a.li("x12", 0x800000)
            a.add("x13", "sp", "x12")
            a.ld("ra", "x13", 0)
            a.addi("sp", "sp", 8)
            a.addi("x10", "x10", 1)
            a.ret()
            a.label("base")
            a.ret()

        p = _build(prog)
        ref = run_program(p, max_steps=100_000)
        core = small_core(p)
        stats = core.run(max_cycles=500_000)
        assert stats.halted
        assert arch_reg(core, 11) == ref.regs[11]


class TestStructuralStalls:
    def test_tiny_rob_still_correct(self):
        def prog(a):
            arr = a.data("arr", list(range(32)))
            a.li("x1", arr)
            a.li("x2", 32)
            a.li("x3", 0)
            a.li("x4", 0)
            a.label("loop")
            a.slli("x5", "x3", 3)
            a.add("x5", "x5", "x1")
            a.ld("x6", "x5", 0)
            a.add("x4", "x4", "x6")
            a.addi("x3", "x3", 1)
            a.blt("x3", "x2", "loop")
            a.halt()

        cfg = CoreConfig(rob_size=16, prf_size=48, lq_size=8, sq_size=8, iq_size=8)
        core = Core(_build(prog), config=cfg,
                    mem_config=MemoryConfig(enable_l1_prefetcher=False,
                                            enable_l2_prefetcher=False))
        stats = core.run()
        assert stats.halted
        assert arch_reg(core, 4) == sum(range(32))

    def test_tiny_iq_serializes_but_correct(self):
        def prog(a):
            for i in range(100):
                a.li(2 + (i % 6), i)
            a.halt()

        cfg = CoreConfig(rob_size=64, prf_size=96, lq_size=8, sq_size=8, iq_size=2)
        core = Core(_build(prog), config=cfg,
                    mem_config=MemoryConfig(enable_l1_prefetcher=False,
                                            enable_l2_prefetcher=False))
        stats = core.run()
        assert stats.halted
        assert stats.retired == 101

    def test_store_queue_pressure(self):
        def prog(a):
            buf = a.alloc("buf", 64)
            a.li("x1", buf)
            for i in range(64):
                a.li("x2", i * 3)
                a.sd("x2", "x1", i * 8)
            a.halt()

        cfg = CoreConfig(rob_size=64, prf_size=96, lq_size=8, sq_size=4, iq_size=16)
        core = Core(_build(prog), config=cfg,
                    mem_config=MemoryConfig(enable_l1_prefetcher=False,
                                            enable_l2_prefetcher=False))
        stats = core.run()
        assert stats.halted
        buf = core.program.addr_of("buf")
        for i in range(64):
            assert core.mem[buf + i * 8] == i * 3


class TestMemoryPressure:
    def test_many_parallel_misses_use_mshrs(self):
        """Independent loads spread over distant lines: MSHRs merge and
        overlap the misses."""
        def prog(a):
            a.li("x1", 0x400000)
            for i in range(32):
                a.slli("x5", "x0", 0)
                a.li("x5", 0x400000 + i * 4096)
                a.ld(8 + (i % 8), "x5", 0)
            a.halt()

        core = small_core(_build(prog))
        stats = core.run()
        assert stats.halted
        assert core.hierarchy.mshrs.allocations > 8

    def test_wrong_path_loads_do_not_corrupt_memory(self):
        def prog(a):
            arr = a.data("arr", [(i * 7) % 2 for i in range(64)])
            buf = a.alloc("buf", 4)
            a.li("x1", arr)
            a.li("x7", buf)
            a.li("x2", 64)
            a.li("x3", 0)
            a.label("loop")
            a.slli("x5", "x3", 3)
            a.add("x5", "x5", "x1")
            a.ld("x6", "x5", 0)
            a.beq("x6", "x0", "skip")     # mispredicts often
            a.li("x8", 0xdead)
            a.sd("x8", "x7", 0)           # store on the taken path
            a.label("skip")
            a.addi("x3", "x3", 1)
            a.blt("x3", "x2", "loop")
            a.halt()

        p = _build(prog)
        ref = run_program(p)
        core = small_core(p)
        stats = core.run()
        assert stats.mispredicts > 0
        buf = p.addr_of("buf")
        assert core.mem.get(buf, 0) == ref.mem.get(buf, 0)


class TestProgramImage:
    def test_out_of_range_words_load_signed(self):
        """The core copies the program image as given; a word at or past
        2**63 and a negative word load as the same signed values the
        in-order executor sees, and the commit guard agrees on every
        load and register write."""
        words = [(1 << 64) - 5, -7, 1 << 63, (1 << 63) - 1]

        def prog(a):
            base = a.data("words", words)
            a.li("x1", base)
            for i in range(len(words)):
                a.ld(f"x{5 + i}", "x1", 8 * i)
            a.add("x9", "x5", "x6")
            a.halt()

        program = _build(prog)
        assert program.data[min(program.data)] == words[0]  # not normalized
        core = small_core(program, guard_level="commit")
        stats = core.run()
        assert stats.halted and core.guard.checked == stats.retired
        golden = run_program(program)
        expected = [-5, -7, -(1 << 63), (1 << 63) - 1, -12]
        assert [golden.regs[r] for r in range(5, 10)] == expected
        assert [arch_reg(core, r) for r in range(5, 10)] == expected
