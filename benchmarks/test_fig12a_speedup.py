"""Figure 12a: speedups of perfBP, Phelps, and Branch Runahead (+BR-12w)
over the baseline core, across GAP + astar + SPEC2017-like workloads.

Shape targets: big Phelps wins on bfs/bc-class graph kernels and astar;
Phelps ~1.0 on SPEC2017-likes (helper threads ineligible or branches not
delinquent); BR at or below 1.0 on most workloads with BR-12w recovering;
perfBP as the ceiling.
"""

from repro.harness import ascii_table, speedup

from benchmarks.common import (ALL_WORKLOADS, GAP_WORKLOADS, config_for,
                               emit, run_figure)

ENGINES = ["perfbp", "phelps", "br", "br12"]


def _collect():
    configs = {(w, e): config_for(w, e)
               for w in ALL_WORKLOADS for e in ["baseline"] + ENGINES}
    entries = run_figure("fig12a_speedup", list(configs.values()))
    table = {w: {} for w in ALL_WORKLOADS}
    for (w, e), config in configs.items():
        table[w][e] = entries[config.cache_key()]
    return table


def test_fig12a_speedups(benchmark):
    table = benchmark.pedantic(_collect, rounds=1, iterations=1)
    rows = []
    for w in ALL_WORKLOADS:
        base = table[w]["baseline"]
        rows.append([w] + [speedup(table[w][e], base) for e in ENGINES])
    emit("fig12a_speedup", ascii_table(["workload"] + ENGINES, rows))

    sp = {w: {e: speedup(table[w][e], table[w]["baseline"]) for e in ENGINES}
          for w in ALL_WORKLOADS}

    # perfBP is (near) the ceiling everywhere.
    for w in ALL_WORKLOADS:
        assert sp[w]["perfbp"] >= sp[w]["phelps"] * 0.95, w

    # Phelps: significant speedups on the delinquent graph kernels + astar.
    assert sp["bfs"]["phelps"] > 1.3
    assert sp["bc"]["phelps"] > 1.1
    assert sp["astar"]["phelps"] > 1.05
    gap_wins = sum(1 for w in GAP_WORKLOADS if sp[w]["phelps"] > 1.1)
    assert gap_wins >= 4

    # Phelps never activates (or stays neutral) on predictable SPEC-likes.
    for w in ["exchange2", "x264", "mcf", "gcc", "leela", "omnetpp"]:
        assert 0.93 <= sp[w]["phelps"] <= 1.07, w

    # Phelps beats BR on the delinquent workloads.
    for w in GAP_WORKLOADS + ["astar"]:
        assert sp[w]["phelps"] >= sp[w]["br"] * 0.98, w

    # BR-12w >= BR (the main thread keeps baseline resources).
    br12_wins = sum(1 for w in ALL_WORKLOADS if sp[w]["br12"] >= sp[w]["br"] * 0.97)
    assert br12_wins >= len(ALL_WORKLOADS) * 2 // 3

    benchmark.extra_info["phelps_speedups"] = {w: round(sp[w]["phelps"], 3)
                                               for w in ALL_WORKLOADS}
