"""Engine comparisons of one workload (``repro compare``); sweeps of many
points run as campaigns (:func:`~repro.harness.campaign.run_campaign`)."""

import dataclasses
from typing import Dict, Iterable, Optional

from repro.harness.simulator import RunConfig, SimResult, simulate


def compare_engines(workload: str, engines: Iterable[str],
                    max_instructions: int = 120_000,
                    base_config: Optional[RunConfig] = None) -> Dict[str, SimResult]:
    """Run one workload under several engines with identical parameters."""
    results: Dict[str, SimResult] = {}
    for engine in engines:
        if base_config is not None:
            cfg = dataclasses.replace(base_config, workload=workload, engine=engine)
        else:
            cfg = RunConfig(workload=workload, engine=engine,
                            max_instructions=max_instructions)
        results[engine] = simulate(cfg)
    return results


def speedup(result: SimResult, baseline: SimResult) -> float:
    """Cycles ratio at equal retired-instruction counts.

    When one run retires slightly fewer instructions (max_cycles guard),
    normalize by instructions to keep the comparison fair.
    """
    base_rate = baseline.stats.retired / max(baseline.stats.cycles, 1)
    this_rate = result.stats.retired / max(result.stats.cycles, 1)
    return this_rate / base_rate if base_rate else 0.0


def mpki_reduction(result: SimResult, baseline: SimResult) -> float:
    """Fractional MPKI reduction vs the baseline (Fig. 13a)."""
    if baseline.mpki <= 0:
        return 0.0
    return 1.0 - result.mpki / baseline.mpki
