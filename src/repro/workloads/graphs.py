"""Synthetic graph generators and CSR conversion.

Substitutes for the paper's input datasets (DESIGN.md §3):

* :func:`road_network` — perturbed grid: planar-ish, mean degree ≈ 2.8,
  large diameter (stands in for roadNet-CA);
* :func:`web_graph` — preferential-attachment power law: heavy-tailed
  degrees, small diameter (stands in for web-google);
* :func:`uniform_graph` — Erdős–Rényi-style uniform random graph.

All return adjacency lists; :func:`to_csr` flattens to (offsets, neighbors)
arrays suitable for embedding in a workload's data segment.

The generators (and the workload builders) draw ``rng._randbelow(n)``
where the natural call is ``rng.randrange(n)``: CPython's ``randrange``
returns exactly ``_randbelow(n)`` for ``n > 0`` (and ``lo + _randbelow(hi
- lo)`` for two arguments), so the values are the same at a fraction of
the per-call cost.  ``tests/workloads/test_program_digests.py`` pins every
built image.  ``_randbelow`` is defined for ``n > 0`` only (it never
returns for an empty range), so each caller raises ``ValueError`` where
``randrange`` would have, before its first draw.
"""

import random
from typing import Dict, List, Tuple


def _dedup_sorted(adj: List[List[int]]) -> List[List[int]]:
    """Each node's neighbours, deduplicated, sorted, self-loops dropped."""
    out = []
    for i, ns in enumerate(adj):
        unique = set(ns)
        unique.discard(i)
        out.append(sorted(unique))
    return out


def road_network(nodes: int = 1024, seed: int = 1) -> List[List[int]]:
    """Grid graph with random edge deletions and a few shortcuts.

    Matches road networks' signature properties: low, narrow degree
    distribution and long shortest paths.
    """
    rng = random.Random(seed)
    coin = rng.random
    side = int(nodes ** 0.5)
    n = side * side
    if n < 1:
        raise ValueError(f"road_network needs nodes >= 1, got {nodes}")
    adj: List[List[int]] = [[] for _ in range(n)]
    for r in range(side):
        for c in range(side):
            u = r * side + c
            ns = adj[u]
            if c + 1 < side and coin() < 0.7:
                ns.append(u + 1)
                adj[u + 1].append(u)
            if r + 1 < side and coin() < 0.7:
                ns.append(u + side)
                adj[u + side].append(u)
    # A few long-range shortcuts (highways).
    for _ in range(max(1, n // 100)):
        u, v = rng._randbelow(n), rng._randbelow(n)
        adj[u].append(v)
        adj[v].append(u)
    return _dedup_sorted(adj)


def web_graph(nodes: int = 1024, out_degree: int = 4, seed: int = 2) -> List[List[int]]:
    """Preferential attachment: heavy-tailed degree distribution."""
    rng = random.Random(seed)
    adj: List[List[int]] = [[] for _ in range(nodes)]
    targets: List[int] = [0]
    for u in range(1, nodes):
        picks = set()
        for _ in range(min(out_degree, u)):
            picks.add(targets[rng._randbelow(len(targets))])
        for v in picks:
            adj[u].append(v)
            adj[v].append(u)
            targets.extend([u, v])
    return _dedup_sorted(adj)


def uniform_graph(nodes: int = 1024, avg_degree: float = 4.0, seed: int = 3) -> List[List[int]]:
    rng = random.Random(seed)
    adj: List[List[int]] = [[] for _ in range(nodes)]
    edges = int(nodes * avg_degree / 2)
    if edges > 0 and nodes < 1:
        raise ValueError(f"uniform_graph needs nodes >= 1, got {nodes}")
    for _ in range(edges):
        u, v = rng._randbelow(nodes), rng._randbelow(nodes)
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return _dedup_sorted(adj)


GRAPHS = {
    "road": road_network,
    "web": web_graph,
    "uniform": uniform_graph,
}


def to_csr(adj: List[List[int]]) -> Tuple[List[int], List[int]]:
    """(offsets, neighbors): offsets has len(adj)+1 entries."""
    offsets = [0]
    neighbors: List[int] = []
    for ns in adj:
        neighbors.extend(ns)
        offsets.append(len(neighbors))
    return offsets, neighbors


def graph_stats(adj: List[List[int]]) -> Dict[str, float]:
    degrees = [len(ns) for ns in adj]
    n = len(adj)
    return {
        "nodes": n,
        "edges": sum(degrees) // 2,
        "avg_degree": sum(degrees) / n if n else 0.0,
        "max_degree": max(degrees) if degrees else 0,
    }
