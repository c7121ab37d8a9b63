"""Simulation harness: run configuration, campaigns, reporting."""

from repro.harness.simulator import RunConfig, SimResult, simulate
from repro.harness.experiment import compare_engines, speedup
from repro.harness.parallel import (Progress, SimulationFailed,
                                    SweepInterrupted, interrupt_guard,
                                    poll_interrupt)
from repro.harness.campaign import (CampaignJournal, activate,
                                    entry_fingerprint, run_campaign)
from repro.harness.runcache import RunCache, entry_from_result
from repro.harness.reporting import (ascii_table, epoch_table, format_series,
                                     metrics_report)
from repro.harness.plots import grouped_bars, hbar_chart, line_plot, stacked_percent_rows
from repro.harness.regions import (DegenerateRegionError, Region,
                                   evaluate_regions, region_config,
                                   regions_for, weighted_harmonic_ipc,
                                   weighted_mpki)

__all__ = [
    "RunConfig",
    "SimResult",
    "simulate",
    "Progress",
    "SimulationFailed",
    "SweepInterrupted",
    "interrupt_guard",
    "poll_interrupt",
    "CampaignJournal",
    "activate",
    "entry_fingerprint",
    "run_campaign",
    "RunCache",
    "entry_from_result",
    "compare_engines",
    "speedup",
    "ascii_table",
    "epoch_table",
    "format_series",
    "metrics_report",
    "grouped_bars",
    "hbar_chart",
    "line_plot",
    "stacked_percent_rows",
    "Region",
    "DegenerateRegionError",
    "evaluate_regions",
    "region_config",
    "regions_for",
    "weighted_harmonic_ipc",
    "weighted_mpki",
]
