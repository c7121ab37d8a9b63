"""Figure 14: misprediction taxonomy under Phelps.

For every workload, the Phelps run's retired mispredictions are classified
by why they were not eliminated (training phases, helper ineligibility,
non-delinquency), plus the eliminated share vs the baseline run.

Shape targets (paper):
  * GAP + astar: most mispredictions eliminated;
  * mcf: dominated by "del. but not in loop" (callee branch);
  * leela/deepsjeng/omnetpp: "too big" / "not delinquent";
  * xz: split between "not delinquent" and "not iterating";
  * gcc: DBT thrash -> "gathering";
  * xalanc/exchange2/x264: predictable or not delinquent.
"""

from repro.harness import ascii_table

from benchmarks.common import ALL_WORKLOADS, config_for, emit, run_figure

CLASSES = ["eliminated", "gathering", "being_constructed", "not_chosen",
           "too_big", "not_iterating", "ot_depends_on_it", "not_in_loop",
           "not_delinquent", "deployed_residual", "installed_not_active"]


def _collect():
    configs = {(w, e): config_for(w, e)
               for w in ALL_WORKLOADS for e in ("baseline", "phelps")}
    entries = run_figure("fig14_breakdown", list(configs.values()))
    table = {}
    for w in ALL_WORKLOADS:
        base = entries[configs[w, "baseline"].cache_key()]
        ph = entries[configs[w, "phelps"].cache_key()]
        classes = dict(ph["engine"].get("misp_classes", {}))
        eliminated = max(0, base["mispredicts"] - ph["mispredicts"])
        classes["eliminated"] = eliminated
        table[w] = {"classes": classes, "base": base, "phelps": ph}
    return table


def test_fig14_misp_breakdown(benchmark):
    table = benchmark.pedantic(_collect, rounds=1, iterations=1)
    rows = []
    for w in ALL_WORKLOADS:
        classes = table[w]["classes"]
        total = sum(classes.values()) or 1
        rows.append([w] + [f"{100 * classes.get(c, 0) / total:.0f}%" for c in CLASSES])
    emit("fig14_breakdown", ascii_table(["workload"] + CLASSES, rows))

    def share(w, cls):
        classes = table[w]["classes"]
        total = sum(classes.values()) or 1
        return classes.get(cls, 0) / total

    # GAP + astar: eliminated is the biggest single cause of change.  (The
    # paper's SimPoints are steady-state; our regions include the two
    # training epochs, which caps the whole-region eliminated share.)
    for w in ["bfs", "pr", "cc", "astar"]:
        assert share(w, "eliminated") > 0.25, w

    # mcf: delinquent but not inside contiguous loop bounds.
    assert share("mcf", "not_in_loop") > 0.3

    # leela / omnetpp / deepsjeng: helper thread too big.
    for w in ["leela", "omnetpp", "deepsjeng"]:
        assert share(w, "too_big") > 0.2, w

    # xz: short-trip loops -> not iterating enough (plus non-delinquent).
    assert share("xz", "not_iterating") + share("xz", "not_delinquent") > 0.3

    # gcc: DBT thrash keeps branches "gathering".
    assert share("gcc", "gathering") > 0.5

    # xalanc: individually non-delinquent branches.
    assert share("xalanc", "not_delinquent") > 0.3
