"""Single-source shortest paths, Bellman-Ford style (GAP ``sssp``).

Relaxation loop: the ``dist[u] + w < dist[v]`` test is delinquent (two
arbitrary values), and the guarded ``dist[v]`` update influences future
relaxations — the classic guarded influential store.
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


def build_sssp(adj: Optional[List[List[int]]] = None, worklist_len: int = 4096,
               seed: int = 37) -> Program:
    if adj is None:
        adj = road_network(8192, seed=seed)
    rng = random.Random(seed + 1)
    n = len(adj)

    a = Assembler("sssp")
    off_base, nbr_base = embed_graph(a, adj)
    dist_init = [rng._randbelow(1000) for _ in range(n)]  # randrange(0, 1000)
    dist = a.data("dist", dist_init)
    worklist = a.data("worklist", make_worklist(n, worklist_len, seed + 2))

    a.li("x6", dist)
    init_prunable(a)
    a.li("x7", 13)                      # uniform edge weight
    outer_loop_header(a, worklist, worklist_len, off_base, nbr_base)
    a.bge("x10", "x11", "outer_inc")    # header
    a.slli("x12", "x9", 3)
    a.add("x12", "x12", "x6")
    a.ld("x8", "x12", 0)                # dist[u]
    a.add("x8", "x8", "x7")             # candidate = dist[u] + w
    prunable_block(a, "sssp", 0, "x9", n_alu=5)

    a.label("inner")
    a.slli("x12", "x10", 3)
    a.add("x12", "x12", "x5")
    a.ld("x13", "x12", 0)               # v
    a.slli("x14", "x13", 3)
    a.add("x14", "x14", "x6")
    a.ld("x15", "x14", 0)               # dist[v]
    a.bge("x8", "x15", "skip_relax")    # delinquent relaxation test
    a.sd("x8", "x14", 0)                # influential guarded store dist[v]
    prunable_block(a, "sssp_in", 0, "x13", n_alu=2)
    a.label("skip_relax")
    a.addi("x10", "x10", 1)
    a.blt("x10", "x11", "inner")

    outer_loop_footer(a)
    a.halt()
    return a.build()


@register("sssp")
def _sssp() -> Program:
    return build_sssp()
