"""Figure 15: (a) window-size and pipeline-depth sensitivity;
(b) bfs speedups on different input graphs.

Shape targets: Phelps speedups persist (or grow) at ROB 1024 on bc/bfs;
deeper pipelines increase Phelps' advantage (bigger misprediction
penalty); bfs wins on all three input graphs.
"""

from repro.core import CoreConfig
from repro.harness import ascii_table, speedup

from benchmarks.common import config_for, emit, run_figure

WINDOWS = [316, 632, 1024]
DEPTHS = [11, 15, 19]
WINDOW_WORKLOADS = ["bc", "bfs", "astar"]
BFS_INPUTS = ["bfs", "bfs_web", "bfs_uniform"]
ENGINES = ("baseline", "phelps")


def _window_core(rob: int, depth: int = 11) -> CoreConfig:
    cfg = CoreConfig(pipeline_stages=depth)
    rob_rounded = rob // 8 * 8
    return cfg.with_window(rob_rounded)


def _engine_table(figure, workloads, settings, core_of):
    """``table[workload][setting][engine]`` entries of one figure run."""
    configs = {(w, s, e): config_for(w, e, core=core_of(s))
               for w in workloads for s in settings for e in ENGINES}
    entries = run_figure(figure, list(configs.values()))
    table = {w: {s: {} for s in settings} for w in workloads}
    for (w, s, e), config in configs.items():
        table[w][s][e] = entries[config.cache_key()]
    return table


def test_fig15a_window_size(benchmark):
    def collect():
        return _engine_table("fig15a_window", WINDOW_WORKLOADS, WINDOWS,
                             _window_core)

    table = benchmark.pedantic(collect, rounds=1, iterations=1)
    rows = []
    sp = {}
    for w in WINDOW_WORKLOADS:
        sp[w] = {rob: speedup(table[w][rob]["phelps"], table[w][rob]["baseline"])
                 for rob in WINDOWS}
        rows.append([w] + [sp[w][rob] for rob in WINDOWS])
    emit("fig15a_window", ascii_table(["workload"] + [f"ROB {r}" for r in WINDOWS], rows))

    # Phelps keeps winning across window sizes on the delinquent kernels.
    for w in WINDOW_WORKLOADS:
        assert sp[w][632] > 1.02, w
        assert sp[w][1024] > 1.0, w
    benchmark.extra_info["speedups"] = {w: {str(r): round(v, 3) for r, v in d.items()}
                                        for w, d in sp.items()}


def test_fig15a_pipeline_depth(benchmark):
    def collect():
        return _engine_table("fig15a_depth", ["bfs", "astar"], DEPTHS,
                             lambda depth: CoreConfig(pipeline_stages=depth))

    table = benchmark.pedantic(collect, rounds=1, iterations=1)
    rows = []
    sp = {}
    for w in table:
        sp[w] = {d: speedup(table[w][d]["phelps"], table[w][d]["baseline"])
                 for d in DEPTHS}
        rows.append([w] + [sp[w][d] for d in DEPTHS])
    emit("fig15a_depth", ascii_table(["workload"] + [f"{d} stages" for d in DEPTHS], rows))

    # Deeper pipelines raise the misprediction penalty: Phelps' advantage
    # grows monotonically-ish (paper: astar 15/22/27%, bfs 64/70/74%).
    for w in sp:
        assert sp[w][19] > sp[w][11] * 0.98, w
        assert sp[w][19] > 1.05, w


def test_fig15b_bfs_inputs(benchmark):
    def collect():
        table = _engine_table("fig15b_bfs_inputs", BFS_INPUTS, [None],
                              lambda _: None)
        return {w: table[w][None] for w in BFS_INPUTS}

    table = benchmark.pedantic(collect, rounds=1, iterations=1)
    rows = []
    sp = {}
    for w in BFS_INPUTS:
        sp[w] = speedup(table[w]["phelps"], table[w]["baseline"])
        rows.append([w, sp[w], table[w]["baseline"]["mpki"], table[w]["phelps"]["mpki"]])
    emit("fig15b_bfs_inputs", ascii_table(
        ["input", "speedup", "baseline MPKI", "Phelps MPKI"], rows))

    # bfs speeds up on every input graph (paper Fig. 15b).
    for w in BFS_INPUTS:
        assert sp[w] > 1.1, w
