"""Design-choice ablations (beyond the paper's figures).

DESIGN.md commits to ablating the key structural parameters Phelps fixes
by fiat in Table II: prediction-queue depth (32 iterations), speculative
store-cache geometry (16x2 doublewords), and the epoch length.  These
sweeps justify the paper's choices on our substrate.
"""

import dataclasses

from repro.harness import ascii_table, speedup

from benchmarks.common import PHELPS, config_for, emit, run_figure


def _sweep(figure, workload, settings, phelps_of):
    """``{"baseline": entry, setting: phelps entry}`` of one figure run."""
    configs = {"baseline": config_for(workload, "baseline")}
    for s in settings:
        configs[s] = config_for(workload, "phelps",
                                phelps_config=phelps_of(s))
    entries = run_figure(figure, list(configs.values()))
    return {s: entries[c.cache_key()] for s, c in configs.items()}


def test_queue_depth_sweep(benchmark):
    """Shallow queues cap how far the helper thread can run ahead."""
    depths = [4, 32, 128]

    def collect():
        return _sweep("ablation_queue_depth", "astar", depths,
                      lambda d: dataclasses.replace(PHELPS, queue_depth=d))

    table = benchmark.pedantic(collect, rounds=1, iterations=1)
    base = table["baseline"]
    rows = [[d, speedup(table[d], base), table[d]["mpki"],
             table[d]["engine"]["queue"]["not_timely"]] for d in depths]
    emit("ablation_queue_depth", ascii_table(
        ["queue depth", "speedup", "MPKI", "not timely"], rows))

    # Depth 4 strangles runahead relative to the paper's 32.
    assert table[4]["engine"]["queue"]["not_timely"] >= \
        table[32]["engine"]["queue"]["not_timely"]
    assert speedup(table[32], base) >= speedup(table[4], base) * 0.98
    # Diminishing returns beyond 32 (the paper's choice is near the knee).
    assert speedup(table[128], base) <= speedup(table[32], base) * 1.10


def test_spec_cache_geometry_sweep(benchmark):
    """The 16x2 speculative cache loses data (stale helper reads);
    a larger cache reduces wrong outcomes."""
    geometries = [(2, 2), (16, 2), (64, 4)]

    def collect():
        return _sweep("ablation_spec_cache", "astar", geometries,
                      lambda g: dataclasses.replace(
                          PHELPS, spec_cache_sets=g[0], spec_cache_ways=g[1]))

    table = benchmark.pedantic(collect, rounds=1, iterations=1)
    base = table["baseline"]
    rows = []
    for g in geometries:
        e = table[g]
        rows.append([f"{g[0]}x{g[1]}", speedup(e, base), e["mpki"],
                     e["engine"]["queue_wrong"], e["engine"]["spec_cache_losses"]])
    emit("ablation_spec_cache", ascii_table(
        ["geometry", "speedup", "MPKI", "wrong outcomes", "evictions"], rows))

    tiny, paper, big = (table[g] for g in geometries)
    assert tiny["engine"]["spec_cache_losses"] >= paper["engine"]["spec_cache_losses"]
    assert big["engine"]["queue_wrong"] <= tiny["engine"]["queue_wrong"]


def test_epoch_length_sweep(benchmark):
    """Short epochs deploy helper threads sooner but train CDFSM/slices on
    fewer iterations; long epochs delay deployment."""
    epochs = [8_000, 20_000, 50_000]

    def collect():
        return _sweep("ablation_epoch_length", "bfs", epochs,
                      lambda ep: dataclasses.replace(PHELPS,
                                                     epoch_length=ep))

    table = benchmark.pedantic(collect, rounds=1, iterations=1)
    base = table["baseline"]
    rows = [[ep, speedup(table[ep], base), table[ep]["mpki"],
             table[ep]["engine"]["activations"]] for ep in epochs]
    emit("ablation_epoch_length", ascii_table(
        ["epoch length", "speedup", "MPKI", "activations"], rows))

    # All three deploy and win; 50k deploys at 100k-instruction regions
    # only just in time, so the mid value should be at least competitive.
    assert all(speedup(table[ep], base) > 1.0 for ep in epochs[:2])
    assert speedup(table[20_000], base) >= speedup(table[50_000], base) * 0.95
