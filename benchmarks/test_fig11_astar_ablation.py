"""Figure 11: Phelps vs Branch Runahead on astar, plus feature ablations.

Paper: BR-non-spec < BR-spec (29%) < Phelps full (47%); MPKI 29.5 -> 2.68
(full), 13.4 (b1->b2), 22.9 (b1), 24.5 (b1->s1).  Shape targets: the same
ordering, with b1->s1 no better than b1 (unsuppressed stores poison b1).
"""

from repro.harness import ascii_table, speedup

from benchmarks.common import PHELPS, config_for, emit, run_figure

CONFIGS = [
    ("BR-non-spec", "br_nonspec", None),
    ("BR-spec", "br", None),
    ("Phelps:b1->b2->s1", "phelps", PHELPS),
    ("Phelps:b1->b2", "phelps", PHELPS.ablation_b1_b2()),
    ("Phelps:b1", "phelps", PHELPS.ablation_b1()),
    ("Phelps:b1->s1", "phelps", PHELPS.ablation_b1_s1()),
]


def _collect():
    base_cfg = config_for("astar", "baseline")
    configs = {label: config_for("astar", engine, phelps_config=pcfg)
               for label, engine, pcfg in CONFIGS}
    entries = run_figure("fig11_astar_ablation",
                         [base_cfg, *configs.values()])
    base = entries[base_cfg.cache_key()]
    rows = []
    results = {}
    for label, config in configs.items():
        r = entries[config.cache_key()]
        results[label] = r
        rows.append([label, speedup(r, base), r["mpki"], r["ipc"]])
    rows.insert(0, ["baseline", 1.0, base["mpki"], base["ipc"]])
    return base, results, rows


def test_fig11_astar_ablation(benchmark):
    base, results, rows = benchmark.pedantic(_collect, rounds=1, iterations=1)
    emit("fig11_astar_ablation",
         ascii_table(["config", "speedup", "MPKI", "IPC"], rows))

    full = results["Phelps:b1->b2->s1"]
    b1b2 = results["Phelps:b1->b2"]
    b1 = results["Phelps:b1"]
    b1s1 = results["Phelps:b1->s1"]
    br = results["BR-spec"]
    br_ns = results["BR-non-spec"]

    # Shape assertions from the paper:
    assert full["mpki"] < b1b2["mpki"] < b1["mpki"]          # feature order
    assert b1s1["mpki"] >= b1["mpki"] * 0.9                  # s1 w/o b2 hurts
    assert speedup(full, base) > speedup(br, base)     # Phelps > BR
    assert speedup(br, base) >= speedup(br_ns, base) * 0.98  # spec >= non-spec
    assert full["mpki"] < base["mpki"] * 0.75                # big MPKI cut

    benchmark.extra_info["full_speedup"] = speedup(full, base)
    benchmark.extra_info["full_mpki"] = full["mpki"]
    benchmark.extra_info["baseline_mpki"] = base["mpki"]
