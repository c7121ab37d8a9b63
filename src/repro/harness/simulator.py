"""Top-level simulation entry point.

``simulate(RunConfig(...))`` wires a workload, a core configuration, and a
pre-execution engine together, runs the simulation, and returns a
:class:`SimResult`.  The ``engine`` field selects the paper's compared
configurations:

* ``baseline``       — the Table III core alone;
* ``perfbp``         — perfect (oracle) branch prediction;
* ``phelps``         — full Phelps (flags on ``phelps_config`` select the
                       Fig. 11 ablations and Fig. 12b's no-stores variant);
* ``br`` / ``br12``  — Branch Runahead with speculative triggering, on the
                       baseline core or the widened BR-12w core;
* ``br_nonspec``     — Branch Runahead with non-speculative triggering;
* ``partition_only`` — the main thread running alone but with half the
                       frontend/resources (Fig. 13c).
"""

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core import Core, CoreConfig, SimStats
from repro.guard.errors import DivergenceError
from repro.memory import MemoryConfig
from repro.obs import Observability, ObserveConfig
from repro.phelps import PhelpsConfig, PhelpsEngine
from repro.workloads import build_workload

ENGINES = ("baseline", "perfbp", "phelps", "br", "br12", "br_nonspec", "partition_only")


@dataclass
class RunConfig:
    workload: str
    engine: str = "baseline"
    max_instructions: int = 120_000
    max_cycles: int = 5_000_000
    core: Optional[CoreConfig] = None
    memory: Optional[MemoryConfig] = None
    phelps_config: Optional[PhelpsConfig] = None
    # Observability: ``observe=True`` enables the metric registry, epoch
    # timeseries, and event trace for this run (``repro.obs``); the
    # optional ``observe_config`` tunes capacities / profiling / pipeline
    # tracing and implies ``observe=True``.
    observe: bool = False
    observe_config: Optional[ObserveConfig] = None
    # Sampled simulation (``repro.sampling``): fast-forward the functional
    # executor ``start_instruction`` instructions, boot the core from the
    # resulting architectural checkpoint, and only then simulate
    # ``max_instructions`` cycle-accurately.  ``warmup_instructions`` of
    # pre-region branch/memory footprint warm the predictor and caches at
    # boot.  ``checkpoint_dir`` names a shard store so repeated runs (and
    # other engines) reuse checkpoints instead of re-fast-forwarding.
    start_instruction: int = 0
    warmup_instructions: int = 0
    checkpoint_dir: Optional[str] = None
    # Mid-run snapshot/resume (``repro.core.snapshot``): with
    # ``snapshot_interval`` > 0 the core drains and snapshots every that
    # many retired instructions; ``snapshot_dir`` names a store so a
    # killed run resumes from its last snapshot instead of cycle 0.  The
    # interval is timing-visible (each drain is a full squash), so it
    # participates in ``cache_key``; the directory does not.
    snapshot_interval: int = 0
    snapshot_dir: Optional[str] = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; known: {ENGINES}")
        if self.observe_config is not None:
            self.observe = True
        if self.start_instruction < 0:
            raise ValueError("start_instruction must be >= 0")
        if self.warmup_instructions > self.start_instruction:
            raise ValueError("warmup_instructions cannot exceed "
                             "start_instruction (warmup replays the tail of "
                             "the skipped prefix)")
        if self.snapshot_interval < 0:
            raise ValueError("snapshot_interval must be >= 0")
        if self.snapshot_interval and self.start_instruction:
            raise ValueError("snapshot_interval cannot be combined with "
                             "start_instruction (sampled regions already "
                             "resume from architectural checkpoints)")

    def to_dict(self) -> dict:
        """The full nested-dataclass serialization (JSON-ready)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Inverse of :meth:`to_dict` (JSON round trip included; same
        ``cache_key()``).  Omitted fields take their defaults; an unknown
        field raises ``TypeError``."""
        doc = dict(doc)
        for name, sub in _NESTED_CONFIGS.items():
            if doc.get(name) is not None:
                doc[name] = sub(**doc[name])
        return cls(**doc)

    def cache_key(self) -> str:
        """Filename-safe key derived from the *complete* configuration.

        Every field participates — including ``memory``, ``core``, engine
        configs, and ``max_cycles`` — so two runs that could produce
        different stats never share a cache entry.  The one exception is
        ``checkpoint_dir``: it only says *where* checkpoints are stored,
        never changes their (deterministic) content, and two runs
        differing only in storage location must share an entry.
        ``snapshot_dir`` is excluded for the same reason; the snapshot
        *interval* stays in the key when non-zero (each snapshot drain is
        a timing-visible event) and is dropped when zero so keys minted
        before the field existed remain valid.
        """
        doc = self.to_dict()
        doc.pop("checkpoint_dir", None)
        doc.pop("snapshot_dir", None)
        if not doc.get("snapshot_interval"):
            doc.pop("snapshot_interval", None)
        payload = json.dumps(doc, sort_keys=True, default=str)
        digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
        return f"{self.workload}-{self.engine}-{digest}"


_NESTED_CONFIGS = {"core": CoreConfig, "memory": MemoryConfig,
                   "phelps_config": PhelpsConfig,
                   "observe_config": ObserveConfig}


@dataclass
class SimResult:
    config: RunConfig
    stats: SimStats
    wall_seconds: float
    # The run's observability hub (None when observe was off): registry,
    # sampler, events, profiler, and the chrome_trace() exporter.
    obs: Optional[Observability] = None
    # Snapshot/resume provenance: the retired-instruction count of the
    # snapshot this run resumed from (None when it started at cycle 0).
    resumed_at: Optional[int] = None

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def mpki(self) -> float:
        return self.stats.mpki

    @property
    def cycles(self) -> int:
        return self.stats.cycles


def _widened_core(core_cfg: CoreConfig) -> CoreConfig:
    """The BR-12w configuration: 4 extra lanes and enough extra frontend
    width/resources that the main thread keeps baseline allocations after
    the 50/50 split (paper Section VII)."""
    return dataclasses.replace(
        core_cfg,
        fetch_width=core_cfg.fetch_width * 12 // 8,
        dispatch_width=core_cfg.dispatch_width * 12 // 8,
        retire_width=core_cfg.retire_width * 12 // 8,
        rob_size=core_cfg.rob_size * 2,
        prf_size=core_cfg.prf_size * 3 // 2,
        lq_size=core_cfg.lq_size * 3 // 2 // 8 * 8,
        sq_size=core_cfg.sq_size * 3 // 2 // 8 * 8,
        lanes_simple=core_cfg.lanes_simple + 2,
        lanes_mem=core_cfg.lanes_mem + 1,
        lanes_complex=core_cfg.lanes_complex + 1,
    )


def _build_obs(config: RunConfig) -> Optional[Observability]:
    if not config.observe:
        return None
    ocfg = config.observe_config or ObserveConfig()
    if ocfg.epoch_instructions is None:
        # Align sampling epochs with the engine's training epochs so the
        # timeseries lines up with construct/deploy events.
        if config.engine in ("phelps", "br", "br12", "br_nonspec"):
            phelps_cfg = config.phelps_config or PhelpsConfig()
            ocfg = dataclasses.replace(ocfg,
                                       epoch_instructions=phelps_cfg.epoch_length)
    return Observability(ocfg)


def _boot_from_checkpoint(core: Core, config: RunConfig, program) -> None:
    """Fast-forward (or load) the region-start checkpoint and boot the core.

    Imported lazily: ``repro.sampling`` depends on the harness for its
    validation half, so the dependency must stay runtime-only here.
    """
    from repro.sampling.checkpoint import CheckpointStore, capture_checkpoint
    from repro.sampling.warmup import apply_warmup

    store = (CheckpointStore(config.checkpoint_dir)
             if config.checkpoint_dir else None)
    ckpt = capture_checkpoint(config.workload, config.start_instruction,
                              config.warmup_instructions, store=store,
                              program=program)
    core.boot_state(ckpt.regs, ckpt.mem, ckpt.pc)
    if config.warmup_instructions:
        apply_warmup(core, ckpt.warmup)


def _build_core(config: RunConfig):
    """Construct the (core, obs) pair for one run, engine selected and
    partition mode applied, but before any checkpoint/snapshot boot."""
    program = build_workload(config.workload)
    core_cfg = config.core or CoreConfig()
    engine = None

    if config.engine == "perfbp":
        core_cfg = dataclasses.replace(core_cfg, perfect_branch_prediction=True)
    elif config.engine == "phelps":
        engine = PhelpsEngine(config.phelps_config or PhelpsConfig())
    elif config.engine in ("br", "br12", "br_nonspec"):
        from repro.runahead import BranchRunaheadEngine, BRConfig

        br_cfg = BRConfig(speculative_triggering=config.engine != "br_nonspec")
        engine = BranchRunaheadEngine(br_cfg)
        if config.engine == "br12":
            core_cfg = _widened_core(core_cfg)

    obs = _build_obs(config)
    core = Core(program, config=core_cfg, mem_config=config.memory,
                engine=engine, obs=obs)
    if config.engine == "partition_only":
        core.set_partition_mode("MT_ITO")
    return core, obs, program


def _replay_divergence(config: RunConfig, blob: bytes) -> dict:
    """Rewind-and-replay: re-run from the preceding snapshot with full
    pipeline tracing and return a focused diagnostic bundle.

    The replay drives ``core.run`` directly (never :func:`simulate`), so a
    divergence inside the replay cannot recurse into another replay.
    Observability is passive, so turning the tracer on does not perturb
    timing — the divergence reproduces at the same cycle.
    """
    from repro.core.snapshot import SnapshotError, load_state
    from repro.guard.errors import recent_events

    try:
        state = load_state(blob)
    except SnapshotError as exc:
        return {"reproduced": False, "error": str(exc)}
    ocfg = config.observe_config or ObserveConfig()
    replay_cfg = dataclasses.replace(
        config, observe=True,
        observe_config=dataclasses.replace(ocfg, pipeline_trace=True))
    core, obs, _ = _build_core(replay_cfg)
    try:
        core.restore(state)
    except SnapshotError as exc:
        return {"reproduced": False, "error": str(exc)}
    bundle = {
        "reproduced": False,
        "snapshot_cycle": state["cycle"],
        "snapshot_retired": state["thread"]["retired"],
    }
    try:
        core.run(max_instructions=config.max_instructions,
                 max_cycles=config.max_cycles,
                 snapshot_interval=config.snapshot_interval)
    except DivergenceError as exc:
        r = exc.report
        bundle.update({
            "reproduced": True,
            "cycle": r.cycle,
            "kind": r.kind,
            "expected": r.expected,
            "actual": r.actual,
            "uop": r.uop,
            "pc": f"{r.pc:#x}",
            "events": recent_events(core, limit=48),
            "trace": (obs.tracer.render(last=40)
                      if obs is not None and obs.tracer is not None else None),
        })
    return bundle


def simulate(config: RunConfig,
             on_heartbeat=None,
             heartbeat_interval: float = 1.0) -> SimResult:
    """Run one config; optionally stream progress heartbeats.

    ``on_heartbeat(payload)`` fires at most every ``heartbeat_interval``
    seconds with a :class:`~repro.obs.live.HeartbeatTicker` payload
    (retired, cycles, cycles/sec, phase, guard).  Heartbeats are
    out-of-band telemetry: they read core state but never touch it, so a
    heartbeat-enabled run is bit-identical to a silent one and nothing
    heartbeat-related participates in ``cache_key()``.
    """
    core, obs, program = _build_core(config)
    if config.start_instruction > 0:
        _boot_from_checkpoint(core, config, program)

    resumed_at: Optional[int] = None
    last_blob: Optional[bytes] = None
    on_snapshot = None
    if config.snapshot_interval > 0 and config.snapshot_dir:
        from repro.core.snapshot import SnapshotError, SnapshotStore, load_state

        store = SnapshotStore(config.snapshot_dir)
        key = config.cache_key()
        blob = store.get(key)
        if blob is not None:
            try:
                state = load_state(blob)
                core.restore(state)
            except SnapshotError:
                # Unreadable or mismatched blob: keep it for post-mortem,
                # start the run from cycle 0.
                store.quarantine(key)
            else:
                resumed_at = state["thread"]["retired"]
                last_blob = blob

        def on_snapshot(b, _store=store, _key=key):
            nonlocal last_blob
            last_blob = b
            _store.put(_key, b)
    elif config.snapshot_interval > 0:
        # No store: keep the latest blob in memory so a guard divergence
        # can still rewind-and-replay.
        def on_snapshot(b):
            nonlocal last_blob
            last_blob = b

    hb_hook = None
    if on_heartbeat is not None:
        from repro.obs.live import HeartbeatTicker

        ticker = HeartbeatTicker(config.max_instructions)

        def hb_hook(c, _ticker=ticker, _emit=on_heartbeat):
            _emit(_ticker.payload(c))

    start = time.time()
    try:
        stats = core.run(max_instructions=config.max_instructions,
                         max_cycles=config.max_cycles,
                         snapshot_interval=config.snapshot_interval,
                         on_snapshot=on_snapshot,
                         on_heartbeat=hb_hook,
                         heartbeat_interval=heartbeat_interval)
    except DivergenceError as exc:
        if last_blob is not None and exc.report.replay is None:
            exc.report.replay = _replay_divergence(config, last_blob)
        raise
    return SimResult(config=config, stats=stats,
                     wall_seconds=time.time() - start, obs=obs,
                     resumed_at=resumed_at)
