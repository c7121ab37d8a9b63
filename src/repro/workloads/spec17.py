"""SPEC CPU 2017-like synthetic kernels.

Each kernel is engineered to land in the misprediction-taxonomy bucket the
paper reports for its namesake (Fig. 14); see DESIGN.md §3.  They are not
the SPEC programs — they are the smallest programs whose branch/loop
structure drives Phelps down the same decision paths.
"""

import random

from repro.isa import Assembler, Program
from repro.workloads.registry import register


def _random_words(rng, n, lo=0, hi=2**16):
    if n > 0 and hi <= lo:
        raise ValueError(f"empty range [{lo}, {hi})")
    draw, width = rng._randbelow, hi - lo  # randrange(lo, hi)'s values
    return [lo + draw(width) for _ in range(n)]


@register("mcf")
def build_mcf(iterations: int = 6000, seed: int = 41) -> Program:
    """Delinquent branch inside a *non-inlined function* called from the
    loop: its PC is outside the loop's contiguous bounds, so Phelps classes
    it "del. but not in loop"."""
    rng = random.Random(seed)
    a = Assembler("mcf")
    arr = a.data("arcs", _random_words(rng, 2048, 0, 2))
    a.li("x15", arr)  # x1 is the link register (clobbered by call)
    a.li("x2", iterations)
    a.li("x3", 0)
    a.li("x20", 2047)
    a.li("x21", 2654435761)
    a.label("loop")
    a.mul("x5", "x3", "x21")
    a.srli("x5", "x5", 6)
    a.and_("x5", "x5", "x20")
    a.call("check_arc")              # the delinquent branch lives in here
    a.add("x8", "x8", "x10")
    a.addi("x3", "x3", 1)
    a.blt("x3", "x2", "loop")
    a.halt()

    a.label("check_arc")
    a.slli("x6", "x5", 3)
    a.add("x6", "x6", "x15")
    a.ld("x7", "x6", 0)
    a.li("x10", 0)
    a.bne("x7", "x0", "arc_done")    # delinquent, but not inside the loop's PCs
    a.li("x10", 1)
    a.label("arc_done")
    a.ret()
    return a.build()


@register("leela")
def build_leela(iterations: int = 4000, seed: int = 43) -> Program:
    """Many weakly-biased static branches, none individually delinquent
    enough; the one that qualifies drags a helper thread that is too big."""
    rng = random.Random(seed)
    a = Assembler("leela")
    board = a.data("board", _random_words(rng, 1024, 0, 16))
    a.li("x1", board)
    a.li("x2", iterations)
    a.li("x3", 0)
    a.li("x20", 1023)
    a.label("loop")
    a.mul("x5", "x3", "x3")
    a.addi("x5", "x5", 7)
    a.and_("x5", "x5", "x20")
    a.slli("x5", "x5", 3)
    a.add("x5", "x5", "x1")
    a.ld("x6", "x5", 0)
    # 12 mostly-biased pattern tests; each mispredicts occasionally.
    for k in range(12):
        a.andi("x7", "x6", (1 << (k % 4)))
        a.beq("x7", "x0", f"pat{k}")
        a.addi("x8", "x8", 1)
        a.xor("x6", "x6", "x8")
        a.label(f"pat{k}")
        a.addi("x6", "x6", 3)
    a.addi("x3", "x3", 1)
    a.blt("x3", "x2", "loop")
    a.halt()
    return a.build()


@register("deepsjeng")
def build_deepsjeng(iterations: int = 2200, seed: int = 47) -> Program:
    """Like leela: diffuse, weakly-biased branches over hashed state."""
    rng = random.Random(seed)
    a = Assembler("deepsjeng")
    tt = a.data("ttable", _random_words(rng, 2048, 0, 256))
    a.li("x1", tt)
    a.li("x2", iterations)
    a.li("x3", 0)
    a.li("x20", 2047)
    a.li("x21", 2654435761)
    a.label("loop")
    a.mul("x5", "x3", "x21")
    a.srli("x5", "x5", 8)
    a.and_("x5", "x5", "x20")
    a.slli("x5", "x5", 3)
    a.add("x5", "x5", "x1")
    a.ld("x6", "x5", 0)
    for k in range(8):
        # Each cut test depends on a long evaluation chain: the branch
        # slices cover nearly the whole body (helper thread too big).
        for j in range(5):
            a.xor("x6", "x6", "x3")
            a.addi("x6", "x6", 17 + j + k)
            a.andi("x6", "x6", 1023)
        a.slti("x7", "x6", 128 + 64 * (k % 3))
        a.beq("x7", "x0", f"cut{k}")
        a.addi("x8", "x8", 1)
        a.label(f"cut{k}")
    a.addi("x3", "x3", 1)
    a.blt("x3", "x2", "loop")
    a.halt()
    return a.build()


@register("omnetpp")
def build_omnetpp(iterations: int = 2500, seed: int = 53) -> Program:
    """One genuinely delinquent branch whose backward slice is nearly the
    whole (large) loop body: helper thread rejected as too big."""
    rng = random.Random(seed)
    a = Assembler("omnetpp")
    q = a.data("events", _random_words(rng, 1024, 0, 2**20))
    a.li("x1", q)
    a.li("x2", iterations)
    a.li("x3", 0)
    a.li("x20", 1023)
    a.label("loop")
    # A long computation chain that all feeds the branch.
    a.mul("x5", "x3", "x3")
    a.and_("x5", "x5", "x20")
    a.slli("x5", "x5", 3)
    a.add("x5", "x5", "x1")
    a.ld("x6", "x5", 0)
    for k in range(20):  # the slice: 40 dependent ALU ops
        a.xor("x6", "x6", "x3")
        a.addi("x6", "x6", 1 + k)
    a.andi("x7", "x6", 1)
    a.beq("x7", "x0", "skip")        # delinquent; slice = everything above
    a.addi("x8", "x8", 1)
    a.label("skip")
    a.addi("x3", "x3", 1)
    a.blt("x3", "x2", "loop")
    a.halt()
    return a.build()


@register("exchange2")
def build_exchange2(outer: int = 300, seed: int = 59) -> Program:
    """Fully predictable nested counting loops with high ILP (the paper's
    worst partitioning-slowdown case; Phelps never activates)."""
    a = Assembler("exchange2")
    a.li("x2", outer)
    a.li("x3", 0)
    a.label("outer")
    a.li("x4", 0)
    a.label("inner")
    a.addi("x5", "x4", 3)
    a.addi("x6", "x4", 5)
    a.mul("x7", "x5", "x6")
    a.add("x8", "x8", "x7")
    a.addi("x9", "x9", 2)
    a.addi("x10", "x10", 7)
    a.addi("x4", "x4", 1)
    a.slti("x11", "x4", 24)
    a.bne("x11", "x0", "inner")
    a.addi("x3", "x3", 1)
    a.blt("x3", "x2", "outer")
    a.halt()
    return a.build()


@register("perlbench")
def build_perlbench(iterations: int = 4000, seed: int = 61) -> Program:
    """String-scan-like loop with highly biased branches (~2% slowdown
    territory: predictable, Phelps idle)."""
    rng = random.Random(seed)
    a = Assembler("perlbench")
    # Mostly 'a' characters with rare delimiters: biased branch.
    text = a.data("text", [0 if rng.random() < 0.995 else rng.randrange(1, 4) for _ in range(2048)])
    a.li("x1", text)
    a.li("x2", iterations)
    a.li("x3", 0)
    a.li("x20", 2047)
    a.label("loop")
    a.and_("x5", "x3", "x20")
    a.slli("x5", "x5", 3)
    a.add("x5", "x5", "x1")
    a.ld("x6", "x5", 0)
    # Four rare character classes: each branch is individually far below
    # the delinquency threshold.
    for k in range(4):
        a.addi("x7", "x6", -k)
        a.bne("x7", "x0", f"noclass{k}")
        a.addi("x8", "x8", 1)
        a.label(f"noclass{k}")
    # Character transformation work (prunable, predictable).
    for j in range(8):
        a.xori("x10", "x6", 0x20 + j)
        a.add("x11", "x11", "x10")
        a.srli("x10", "x10", 1)
    a.addi("x9", "x9", 1)
    a.addi("x3", "x3", 1)
    a.blt("x3", "x2", "loop")
    a.halt()
    return a.build()


@register("xz")
def build_xz(blocks: int = 5000, seed: int = 67) -> Program:
    """Match-finder idiom: the delinquent branch lives in a short-trip
    loop inside a non-inlined helper function, so the only loop Phelps can
    target does not iterate enough per visit ("ot/ito not iterating
    enough"); the outer block loop contributes non-delinquent
    mispredictions."""
    rng = random.Random(seed)
    a = Assembler("xz")
    data = a.data("stream", _random_words(rng, 2048, 0, 4))
    lens = a.data("match_lens", [rng.randrange(1, 5) for _ in range(512)])
    a.li("x15", data)
    a.li("x2", blocks)
    a.li("x3", 0)
    a.li("x20", 2047)
    a.li("x21", lens)
    a.li("x22", 511)
    a.label("outer")
    a.and_("x5", "x3", "x22")
    a.slli("x5", "x5", 3)
    a.add("x5", "x5", "x21")
    a.ld("x6", "x5", 0)              # trip count for this visit (1..4)
    a.call("match")
    a.addi("x3", "x3", 1)
    a.blt("x3", "x2", "outer")
    a.halt()

    a.label("match")
    a.li("x7", 0)
    a.label("inner")                  # short delinquent loop, not PC-nested
    a.add("x8", "x3", "x7")           # in the block loop (function call)
    a.and_("x8", "x8", "x20")
    a.slli("x8", "x8", 3)
    a.add("x8", "x8", "x15")
    a.ld("x9", "x8", 0)
    a.beq("x9", "x0", "miss")        # delinquent match test
    a.addi("x10", "x10", 1)
    a.label("miss")
    a.addi("x7", "x7", 1)
    a.blt("x7", "x6", "inner")
    a.ret()
    return a.build()


@register("x264")
def build_x264(iterations: int = 5000, seed: int = 71) -> Program:
    """Memory-bound motion-search-like loop: branches are predictable, so a
    helper thread (if any) cannot help — BP is not the bottleneck."""
    rng = random.Random(seed)
    a = Assembler("x264")
    frame = a.data("frame", _random_words(rng, 65536, 0, 65536))
    a.li("x1", frame)
    a.li("x2", iterations)
    a.li("x3", 0)
    a.li("x20", 65535)
    a.li("x21", 2654435761)
    a.label("loop")
    # Pointer-chase-flavoured accesses over a 512 KB frame: dependent
    # cache misses dominate -> branch prediction is not the bottleneck.
    a.mul("x5", "x3", "x21")
    a.srli("x5", "x5", 7)
    a.and_("x5", "x5", "x20")
    a.slli("x5", "x5", 3)
    a.add("x5", "x5", "x1")
    a.ld("x6", "x5", 0)
    a.and_("x6", "x6", "x20")
    a.slli("x6", "x6", 3)
    a.add("x6", "x6", "x1")
    a.ld("x7", "x6", 0)
    a.and_("x22", "x7", "x20")
    a.slli("x22", "x22", 3)
    a.add("x22", "x22", "x1")
    a.ld("x7", "x22", 0)
    a.add("x8", "x8", "x7")
    a.sub("x10", "x7", "x6")
    a.sra("x11", "x10", 5)
    a.xor("x10", "x10", "x11")
    a.sub("x10", "x10", "x11")       # abs() of the pixel difference
    a.add("x12", "x12", "x10")       # SAD accumulation (prunable)
    a.addi("x13", "x13", 1)
    a.max_("x14", "x14", "x10")
    a.andi("x9", "x7", 15)
    a.bne("x9", "x0", "sad_ok")      # delinquent-ish (~6% taken), but the
    a.addi("x8", "x8", 100)          # loop is memory-bound, not BP-bound
    a.label("sad_ok")
    a.addi("x3", "x3", 1)
    a.blt("x3", "x2", "loop")
    a.halt()
    return a.build()


@register("gcc")
def build_gcc(iterations: int = 60, seed: int = 73) -> Program:
    """Hundreds of static branches spread over a huge code footprint: DBT
    eviction thrash keeps everything in the "gathering" bucket."""
    rng = random.Random(seed)
    a = Assembler("gcc")
    flags = a.data("flags", _random_words(rng, 1024, 0, 2))
    a.li("x1", flags)
    a.li("x2", iterations)
    a.li("x3", 0)
    a.li("x20", 1023)
    a.label("loop")
    # 300 distinct static branches touched per iteration.
    for k in range(300):
        a.addi("x5", "x3", k * 7)
        a.and_("x5", "x5", "x20")
        a.slli("x5", "x5", 3)
        a.add("x5", "x5", "x1")
        a.ld("x6", "x5", 0)
        a.beq("x6", "x0", f"pass{k}")
        a.addi("x8", "x8", 1)
        a.label(f"pass{k}")
    a.addi("x3", "x3", 1)
    a.blt("x3", "x2", "loop")
    a.halt()
    return a.build()


@register("xalanc")
def build_xalanc(iterations: int = 4000, seed: int = 79) -> Program:
    """Tree-walk flavour: many moderately-biased branches, none clearing
    the delinquency threshold ("not delinquent")."""
    rng = random.Random(seed)
    a = Assembler("xalanc")
    nodes = a.data("nodes", [7 if rng.random() < 0.93 else rng.randrange(0, 3) for _ in range(2048)])
    a.li("x1", nodes)
    a.li("x2", iterations)
    a.li("x3", 0)
    a.li("x20", 2047)
    a.label("loop")
    a.and_("x5", "x3", "x20")
    a.slli("x5", "x5", 3)
    a.add("x5", "x5", "x1")
    a.ld("x6", "x5", 0)
    for k in range(12):
        a.addi("x7", "x6", -(k % 3))
        a.bne("x7", "x0", f"elem{k}")    # heavily biased per site
        a.addi("x8", "x8", 1)
        a.label(f"elem{k}")
        a.addi("x5", "x5", 8)
        a.and_("x7", "x5", "x20")
        a.add("x7", "x7", "x1")
        a.ld("x6", "x7", 0)
        a.andi("x6", "x6", 7)
    a.addi("x3", "x3", 1)
    a.blt("x3", "x2", "loop")
    a.halt()
    return a.build()
