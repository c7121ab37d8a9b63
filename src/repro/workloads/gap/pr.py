"""PageRank-like score propagation (GAP ``pr``).

Integer fixed-point variant: each outer iteration accumulates neighbour
contributions; a data-dependent *active* test per neighbour (delinquent)
and a guarded score update that influences future reads of ``score``.
"""

import random
from typing import List, Optional

from repro.isa import Assembler, Program
from repro.workloads.gap.common import (
    embed_graph,
    init_prunable,
    make_worklist,
    outer_loop_header,
    outer_loop_footer,
    prunable_block,
)
from repro.workloads.graphs import road_network
from repro.workloads.registry import register


def build_pr(adj: Optional[List[List[int]]] = None, worklist_len: int = 4096,
             seed: int = 17) -> Program:
    if adj is None:
        adj = road_network(8192, seed=seed)
    rng = random.Random(seed + 1)
    n = len(adj)

    a = Assembler("pr")
    off_base, nbr_base = embed_graph(a, adj)
    score_init = [rng._randbelow(200) for _ in range(n)]  # randrange(0, 200)
    score = a.data("score", score_init)
    worklist = a.data("worklist", make_worklist(n, worklist_len, seed + 2))

    a.li("x6", score)
    init_prunable(a)
    a.li("x7", 100)             # activity threshold
    outer_loop_header(a, worklist, worklist_len, off_base, nbr_base)
    a.bge("x10", "x11", "outer_inc")   # header: dangling node
    a.li("x8", 0)               # sum
    prunable_block(a, "pr", 0, "x9", n_alu=5)

    a.label("inner")
    a.slli("x12", "x10", 3)
    a.add("x12", "x12", "x5")
    a.ld("x13", "x12", 0)       # v
    a.slli("x14", "x13", 3)
    a.add("x14", "x14", "x6")
    a.ld("x15", "x14", 0)       # score[v]
    a.blt("x15", "x7", "skip_contrib")  # delinquent: contribution test
    a.srai("x15", "x15", 1)
    a.add("x8", "x8", "x15")
    a.label("skip_contrib")
    a.addi("x10", "x10", 1)
    a.blt("x10", "x11", "inner")

    # Guarded influential store: score[u] updated only when it changed.
    a.slli("x12", "x9", 3)
    a.add("x12", "x12", "x6")
    a.ld("x13", "x12", 0)       # old score[u]
    a.beq("x13", "x8", "outer_inc")     # delinquent: convergence test
    a.srai("x14", "x8", 1)
    a.addi("x14", "x14", 30)
    a.andi("x14", "x14", 255)
    a.sd("x14", "x12", 0)       # score[u] = damped sum (influential)
    outer_loop_footer(a)
    a.halt()
    return a.build()


@register("pr")
def _pr() -> Program:
    return build_pr()
