"""Unified observability layer.

One opt-in hub (:class:`Observability`) bundles four concerns:

* :mod:`repro.obs.metrics` — a hierarchical counter/gauge/histogram
  registry with dotted names and lazy providers;
* :mod:`repro.obs.timeseries` — per-epoch sampling of selected counters
  (MPKI / IPC / queue-timeliness trajectories, not just totals);
* :mod:`repro.obs.events` — a typed event ring buffer with a Chrome
  trace-event exporter (open the JSON in Perfetto);
* :mod:`repro.obs.profile` — wall-clock attribution per pipeline stage,
  for optimizing the simulator itself.

Enable via ``RunConfig(observe=True)`` (or any CLI flag that implies it:
``--metrics-json``, ``--trace-out``, the ``stats`` verb).  Disabled runs
pay one ``is None`` test per cycle and nothing else.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs.events import (EventTrace, Event, pipeline_trace_events,
                              to_chrome_trace, write_chrome_trace)
from repro.obs.live import (HeartbeatTicker, live_view, read_campaign,
                            render_watch)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               NullRegistry, WeakProvider, flatten)
from repro.obs.profile import StageProfiler
from repro.obs.promtext import render_prometheus
from repro.obs.timeseries import DEFAULT_WATCHES, EpochSampler

__all__ = [
    "ObserveConfig",
    "Observability",
    "MetricsRegistry",
    "NullRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "flatten",
    "EventTrace",
    "Event",
    "EpochSampler",
    "StageProfiler",
    "to_chrome_trace",
    "write_chrome_trace",
    "pipeline_trace_events",
    "DEFAULT_WATCHES",
    "HeartbeatTicker",
    "live_view",
    "read_campaign",
    "render_watch",
    "render_prometheus",
]


@dataclass
class ObserveConfig:
    """Knobs for one run's observability.

    ``epoch_instructions=None`` means "align with the engine's epoch
    length" (resolved by ``simulate``; 20 000 for engines without epochs).
    """

    epoch_instructions: Optional[int] = None
    event_capacity: int = 65_536
    watches: Optional[Sequence[str]] = None
    profile: bool = False
    pipeline_trace: bool = False
    pipeline_trace_limit: int = 20_000


def _core_metrics(core) -> Dict:
    return {
        "cycles": core.cycle,
        "retired": core.main.retired,
        "retired_branches": core.main.retired_branches,
        "mispredicts": core.main.mispredicts,
        "load_violations": core.main.load_violations,
        "helper_retired": core.stats.helper_retired,
        "helper_stores_suppressed": core.stats.helper_stores_suppressed,
        "full_squashes": core.stats.full_squashes,
        "idle_cycles_skipped": core.stats.idle_cycles_skipped,
        "threads": len(core.threads),
        # Idle-skip self-diagnosis (flattens to core.skip.*): walks run,
        # engine vetoes, and successful clock jumps — the data behind
        # ``perf --explain-skip``.
        "skip": {
            "walk_cycles": core.stats.skip_walk_cycles,
            "vetoes": core.stats.skip_vetoes,
            "bulk_advances": core.stats.skip_bulk_advances,
        },
    }


class Observability:
    """Per-run telemetry hub handed to :class:`~repro.core.pipeline.Core`."""

    def __init__(self, config: Optional[ObserveConfig] = None):
        self.config = config or ObserveConfig()
        cfg = self.config
        self.registry = MetricsRegistry()
        self.events = EventTrace(cfg.event_capacity)
        self.sampler = EpochSampler(
            self.registry,
            epoch_instructions=cfg.epoch_instructions or 20_000,
            watches=cfg.watches)
        self.profiler: Optional[StageProfiler] = None
        self.tracer = None  # PipelineTracer when pipeline_trace is on
        self._finalized = False

    # ------------------------------------------------------------------
    def attach_core(self, core) -> None:
        """Register core-level providers and install opt-in wrappers.

        Called once at the end of ``Core.__init__`` (after the engine has
        attached, so the profiler wraps the engine's final ``on_cycle``).
        The ``core`` and ``memory`` providers hold the core weakly, so a
        kept hub (``SimResult.obs``) does not keep the machine alive.
        """
        self.registry.register_provider(
            "core", WeakProvider(core, _core_metrics))
        self.registry.register_provider(
            "memory", WeakProvider(core, lambda c: c.hierarchy.stats()))
        if self.config.pipeline_trace:
            from repro.core.trace import PipelineTracer
            self.tracer = PipelineTracer(core,
                                         limit=self.config.pipeline_trace_limit)
        if self.config.profile:
            self.profiler = StageProfiler(core)

    # ------------------------------------------------------------------
    def on_cycle(self, core) -> None:
        """Cheap per-cycle hook: epoch-boundary sampling."""
        sampler = self.sampler
        if core.main.retired >= sampler._next_boundary:
            sampler.sample(core)
            self.events.epoch(core.cycle, len(sampler.samples) - 1)

    def finalize(self, core) -> None:
        """End-of-run bookkeeping: close the partial epoch, fold profiler
        results into the registry."""
        self.sampler.sample(core, final=True)
        if self._finalized:
            return
        self._finalized = True
        if self.profiler is not None:
            self.registry.register_provider("profile", self.profiler.to_dict)
        self.registry.register_provider("obs.events", self.events.stats)

    # ------------------------------------------------------------------
    def chrome_trace(self, pid: int = 0) -> List[Dict]:
        return to_chrome_trace(self.events.events(), pid=pid,
                               tracer=self.tracer)
