"""Figure 12b: Phelps with and without helper-thread stores.

Shape targets: predicated stores are critical on astar and bc (workloads
whose delinquent branches are influenced by guarded stores); bfs loses
less accuracy because its store-to-load distances are long (the main
thread usually retires the store first).
"""

from repro.harness import ascii_table, speedup

from benchmarks.common import (GAP_WORKLOADS, PHELPS, config_for, emit,
                               run_figure)

WORKLOADS = GAP_WORKLOADS + ["astar"]


def _collect():
    configs = {(w, label): config_for(w, engine, phelps_config=pcfg)
               for w in WORKLOADS
               for label, engine, pcfg in [
                   ("baseline", "baseline", None),
                   ("with", "phelps", None),
                   ("without", "phelps", PHELPS.without_stores())]}
    entries = run_figure("fig12b_stores", list(configs.values()))
    table = {w: {} for w in WORKLOADS}
    for (w, label), config in configs.items():
        table[w][label] = entries[config.cache_key()]
    return table


def test_fig12b_store_importance(benchmark):
    table = benchmark.pedantic(_collect, rounds=1, iterations=1)
    rows = []
    for w in WORKLOADS:
        base = table[w]["baseline"]
        rows.append([
            w,
            speedup(table[w]["with"], base),
            speedup(table[w]["without"], base),
            table[w]["with"]["mpki"],
            table[w]["without"]["mpki"],
        ])
    emit("fig12b_stores", ascii_table(
        ["workload", "speedup w/ stores", "speedup w/o stores",
         "MPKI w/", "MPKI w/o"], rows))

    # astar: the doubly-guarded s1 is essential.
    astar = table["astar"]
    assert astar["with"]["mpki"] < astar["without"]["mpki"] * 0.95
    # bc: sigma updates influence future sigma reads (at worst neutral).
    bc = table["bc"]
    assert bc["with"]["mpki"] <= bc["without"]["mpki"] * 1.1
    # Stores help or stay neutral overall on the majority.
    better = sum(1 for w in WORKLOADS
                 if table[w]["with"]["mpki"] <= table[w]["without"]["mpki"] * 1.05)
    assert better >= len(WORKLOADS) - 2
