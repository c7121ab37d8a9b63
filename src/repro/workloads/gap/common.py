"""Shared scaffolding for the GAP-like graph kernels.

Register conventions used by every kernel:

  x1  worklist/frontier base   x2  worklist length   x3  i (outer induction)
  x4  CSR offsets base         x5  CSR neighbors base
  x6..x8 kernel-specific arrays / counters
  x9  u (current node)         x10 j (inner induction) x11 end offset
  x12..x15 scratch
"""

import random
from typing import List, Tuple

from repro.isa import Assembler
from repro.workloads.graphs import to_csr


def embed_graph(a: Assembler, adj: List[List[int]]) -> Tuple[int, int]:
    """Embed a CSR representation; returns (offsets_base, neighbors_base)."""
    offsets, neighbors = to_csr(adj)
    off_base = a.data("csr_offsets", offsets)
    nbr_base = a.data("csr_neighbors", neighbors if neighbors else [0])
    return off_base, nbr_base


def make_worklist(n_nodes: int, length: int, seed: int) -> List[int]:
    """A frontier-like worklist (nodes may repeat, as across BFS levels)."""
    if length > 0 and n_nodes < 1:
        raise ValueError(f"make_worklist needs n_nodes >= 1, got {n_nodes}")
    rng = random.Random(seed)
    draw = rng._randbelow  # randrange(n)'s values (see graphs.py)
    return [draw(n_nodes) for _ in range(length)]


def make_walk_worklist(adj: List[List[int]], length: int, seed: int) -> List[int]:
    """A BFS-wavefront-like worklist: consecutive entries are adjacent
    nodes, so their neighbourhoods overlap and per-node updates (sigma,
    dist, ...) influence later iterations within the store-detect window."""
    rng = random.Random(seed)
    n = len(adj)
    u = rng.randrange(n)
    out = []
    for i in range(length):
        out.append(u)
        if adj[u] and i % 53 != 52:
            u = rng.choice(adj[u])
        else:
            u = rng.randrange(n)
    return out


def outer_loop_header(a: Assembler, worklist_base: int, worklist_len: int,
                      off_base: int, nbr_base: int) -> None:
    """Common prologue + outer-loop head: loads u and its CSR range.

    Leaves: x9 = u, x10 = offsets[u] (inner induction), x11 = offsets[u+1].
    The caller must emit the header branch, inner loop, outer increment,
    and the outer backward branch (label ``outer``).
    """
    a.li("x1", worklist_base)
    a.li("x2", worklist_len)
    a.li("x4", off_base)
    a.li("x5", nbr_base)
    a.li("x3", 0)
    a.label("outer")
    a.slli("x12", "x3", 3)
    a.add("x12", "x12", "x1")
    a.ld("x9", "x12", 0)        # u = worklist[i]
    a.slli("x12", "x9", 3)
    a.add("x12", "x12", "x4")
    a.ld("x10", "x12", 0)       # start = offsets[u]
    a.ld("x11", "x12", 8)       # end   = offsets[u+1]


def outer_loop_footer(a: Assembler) -> None:
    a.label("outer_inc")
    a.addi("x3", "x3", 1)
    a.blt("x3", "x2", "outer")


def prunable_block(a: Assembler, tag: str, stats_base: int, key_reg: str,
                   n_alu: int = 4) -> None:
    """Bookkeeping work that real kernels carry but pre-execution prunes:
    a short computation over ``key_reg`` stored into a stats array.  Uses
    only scratch registers (x23..x25) that feed no branch slices."""
    a.slli("x23", key_reg, 3)
    a.andi("x23", "x23", 2047 * 8)
    a.add("x23", "x23", "x25")
    a.mul("x24", key_reg, key_reg)
    for k in range(n_alu):
        a.xori("x24", "x24", 0x33 + k)
        a.addi("x24", "x24", 7)
    a.sd("x24", "x23", 0)


def init_prunable(a: Assembler) -> None:
    """Reserve the stats array used by :func:`prunable_block` (x25 = base)."""
    base = a.alloc("kernel_stats", 2048)
    a.li("x25", base)
