#!/usr/bin/env python
"""Re-draw the paper's figures as ASCII charts from the figure journals.

Run ``pytest benchmarks/ --benchmark-only`` first (it journals every
figure under ``benchmarks/results/campaigns/<figure>/``), then:

    PYTHONPATH=src python examples/render_figures.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.common import RESULTS_DIR  # noqa: E402
from repro.harness import CampaignJournal  # noqa: E402
from repro.harness.plots import (grouped_bars, hbar_chart,  # noqa: E402
                                 stacked_percent_rows)

GAP = ["bc", "bfs", "pr", "cc", "cc_sv", "sssp", "astar"]
ENGINES = ["perfbp", "phelps", "br", "br12"]
# Both journals hold default-config points only.
JOURNALS = ["fig12a_speedup", "fig14_breakdown"]


def _journal_entries():
    """``workload -> engine -> entry`` for every done journal point."""
    out = {}
    for figure in JOURNALS:
        journal = CampaignJournal(RESULTS_DIR / "campaigns" / figure)
        for point in (journal.load_manifest() or {}).get("points", ()):
            doc = journal.read_point(point["key"])
            if doc and doc.get("status") == "done":
                out.setdefault(point["workload"], {})[point["engine"]] = \
                    doc["entry"]
    return out


def main() -> int:
    journaled = _journal_entries()
    if not journaled:
        print("No figure journals yet — run: pytest benchmarks/ "
              "--benchmark-only")
        return 1

    print("=== Fig. 12a: speedup over baseline (|:baseline) ===\n")
    groups = {}
    for w in GAP:
        entries = journaled.get(w, {})
        base = entries.get("baseline")
        if not base:
            continue
        base_rate = base["retired"] / base["cycles"]
        series = {}
        for e in ENGINES:
            if e in entries:
                rate = entries[e]["retired"] / entries[e]["cycles"]
                series[e] = rate / base_rate
        groups[w] = series
    print(grouped_bars(groups, width=44, reference=1.0))

    print("\n=== Fig. 13a: MPKI, baseline vs Phelps ===\n")
    series = {}
    for w in GAP:
        entries = journaled.get(w, {})
        if "baseline" in entries and "phelps" in entries:
            series[f"{w} base"] = entries["baseline"]["mpki"]
            series[f"{w} phelps"] = entries["phelps"]["mpki"]
    print(hbar_chart(series, width=44))

    print("\n=== Fig. 14: misprediction taxonomy (stacked) ===\n")
    order = ["eliminated", "gathering", "being_constructed", "too_big",
             "not_iterating", "not_in_loop", "not_delinquent",
             "deployed_residual"]
    rows = {}
    for w in GAP + ["mcf", "xz", "gcc", "leela", "xalanc"]:
        entries = journaled.get(w, {})
        if "baseline" not in entries or "phelps" not in entries:
            continue
        classes = dict(entries["phelps"]["engine"].get("misp_classes", {}))
        classes["eliminated"] = max(
            0, entries["baseline"]["mispredicts"] - entries["phelps"]["mispredicts"])
        rows[w] = {k: float(v) for k, v in classes.items()}
    print(stacked_percent_rows(rows, order=order, width=50))
    return 0


if __name__ == "__main__":
    sys.exit(main())
