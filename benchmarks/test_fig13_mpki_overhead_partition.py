"""Figure 13: (a) MPKI reduction, (b) retired helper-thread instructions,
(c) impact of partitioning alone on the main thread.

Shape targets: (a) large MPKI reductions on most GAP kernels + astar;
(b) nontrivial helper-instruction overhead (paper: mean 34.7 M per 100 M);
(c) partitioning alone costs a few percent to tens of percent, worst for
high-ILP kernels (the paper's exchange2: 31%).
"""

from repro.harness import ascii_table, speedup

from benchmarks.common import GAP_WORKLOADS, config_for, emit, run_figure

WORKLOADS = GAP_WORKLOADS + ["astar"]


def _engine_table(figure, workloads, engines):
    """``table[workload][engine]`` entries of one figure run."""
    configs = {(w, e): config_for(w, e) for w in workloads for e in engines}
    entries = run_figure(figure, list(configs.values()))
    table = {w: {} for w in workloads}
    for (w, e), config in configs.items():
        table[w][e] = entries[config.cache_key()]
    return table


def _collect_a_b(figure):
    return _engine_table(figure, WORKLOADS, ("baseline", "phelps"))


def test_fig13a_mpki_reduction(benchmark):
    table = benchmark.pedantic(_collect_a_b, args=("fig13a_mpki",),
                               rounds=1, iterations=1)
    rows = []
    reductions = {}
    for w in WORKLOADS:
        base, ph = table[w]["baseline"], table[w]["phelps"]
        red = 1 - ph["mpki"] / base["mpki"] if base["mpki"] else 0.0
        reductions[w] = red
        rows.append([w, base["mpki"], ph["mpki"], f"{100 * red:.1f}%"])
    emit("fig13a_mpki", ascii_table(
        ["workload", "baseline MPKI", "Phelps MPKI", "reduction"], rows))

    # Paper: 72-91% on four of six GAP kernels (large regions); our scaled
    # regions include the training epochs, so expect >= 25% on at least
    # four kernels and >= 40% on the best ones.
    big = sum(1 for w in WORKLOADS if reductions[w] >= 0.25)
    assert big >= 4
    assert max(reductions.values()) >= 0.4
    benchmark.extra_info["reductions"] = {w: round(r, 3) for w, r in reductions.items()}


def test_fig13b_helper_overhead(benchmark):
    table = benchmark.pedantic(_collect_a_b, args=("fig13b_overhead",),
                               rounds=1, iterations=1)
    rows = []
    for w in WORKLOADS:
        ph = table[w]["phelps"]
        per100 = 100.0 * ph["helper_retired"] / max(ph["retired"], 1)
        rows.append([w, ph["helper_retired"], f"{per100:.1f}"])
    emit("fig13b_overhead", ascii_table(
        ["workload", "helper insts retired", "per 100 MT insts"], rows))

    # Paper: mean overhead 34.7 helper instructions per 100 retired.
    overheads = [100.0 * table[w]["phelps"]["helper_retired"]
                 / max(table[w]["phelps"]["retired"], 1) for w in WORKLOADS]
    mean = sum(overheads) / len(overheads)
    assert 10 <= mean <= 120
    benchmark.extra_info["mean_overhead_per_100"] = round(mean, 1)


def test_fig13c_partitioning_cost(benchmark):
    def collect():
        return _engine_table("fig13c_partition",
                             WORKLOADS + ["exchange2", "perlbench"],
                             ("baseline", "partition_only"))

    table = benchmark.pedantic(collect, rounds=1, iterations=1)
    rows = []
    slowdowns = {}
    for w, entry in table.items():
        part = entry["partition_only"]
        slow = 1 - speedup(part, entry["baseline"])
        slowdowns[w] = slow
        rows.append([w, entry["baseline"]["ipc"], part["ipc"],
                     f"{100 * slow:.1f}%"])
    emit("fig13c_partition", ascii_table(
        ["workload", "IPC full", "IPC half", "slowdown"], rows))

    # Everything slows down somewhat; high-ILP exchange2 hurts most among
    # the predictable kernels (paper: 2%..31%).
    assert all(s > -0.02 for s in slowdowns.values())
    assert slowdowns["exchange2"] > 0.10
    assert slowdowns["exchange2"] > slowdowns["perlbench"]
    assert max(slowdowns.values()) < 0.60
