"""The two in-process simulator workloads.

``sim-phelps-astar`` runs astar under Phelps for the whole program (it
halts before the instruction cap), with observability on and the default
``PhelpsConfig`` -- the helper thread deploys, so the engine hooks, fetch
and the per-cycle observability hooks carry most of the work.  The
legacy 30k-instruction ``perf`` point never leaves Phelps' training
epoch, which is why this one runs to the end.

``sim-baseline-slowdram`` runs sssp on the baseline core with 400-cycle
DRAM and no prefetchers: the null engine and no observability, so the
``phelps`` and ``obs`` layers do zero work while the memory hierarchy
and the idle-skip path dominate.

Programs are the workload registry's fixed-seed builds; ``--seed`` has
nothing to vary here and the reference results never change with it.
"""

import dataclasses
import hashlib
import json
import time

from repro.core import Core, CoreConfig
from repro.core.engine_api import NullEngine
from repro.harness import RunCache, RunConfig, entry_from_result, simulate
from repro.harness.campaign import (CampaignJournal, entry_fingerprint,
                                    run_campaign)
from repro.memory import MemoryConfig
from repro.obs import Observability, ObserveConfig
from repro.phelps import PhelpsConfig, PhelpsEngine
from repro.workloads import build_workload

from common import (Checker, Samples, fresh_dir, load_json, own_cpu_s,
                    wrap_harness, zero_layers)
from tracer import Tracer

SIMS = {
    "sim-phelps-astar": RunConfig(
        workload="astar", engine="phelps", max_instructions=120_000,
        phelps_config=PhelpsConfig(), observe=True),
    "sim-baseline-slowdram": RunConfig(
        workload="sssp", engine="baseline", max_instructions=60_000,
        memory=MemoryConfig(dram_latency=400, enable_l1_prefetcher=False,
                            enable_l2_prefetcher=False)),
}

SETUP_REPS = 3     # set-ups timed before every simulation
WARM_REPS = 25     # cache-served reruns timed in a traced run

_STAGES = {"_fetch_thread": "fetch", "_dispatch_thread": "dispatch",
           "_issue": "issue", "_writeback": "writeback", "_retire": "retire",
           "run": "loop"}
_SIM_LAYERS = ("core", "frontend", "memory", "phelps", "obs")
_ENGINE_HOOKS = ("fetch_override", "note_fetched", "checkpoint", "restore",
                 "on_squash", "note_refetched",
                 "on_helper_branch_mispredicted", "retire_blocked",
                 "on_retire", "on_cycle", "idle_skip", "quiesce")


def build_core(config: RunConfig) -> Core:
    """The core ``simulate`` builds for a baseline or phelps config."""
    program = build_workload(config.workload)
    engine = None
    if config.engine == "phelps":
        engine = PhelpsEngine(config.phelps_config or PhelpsConfig())
    obs = None
    if config.observe:
        ocfg = config.observe_config or ObserveConfig()
        if engine is not None and ocfg.epoch_instructions is None:
            ocfg = dataclasses.replace(
                ocfg, epoch_instructions=engine.cfg.epoch_length)
        obs = Observability(ocfg)
    return Core(program, config=config.core or CoreConfig(),
                mem_config=config.memory, engine=engine, obs=obs)


def stats_digest(stats) -> str:
    doc = json.dumps(dataclasses.asdict(stats), sort_keys=True, default=str)
    return hashlib.sha256(doc.encode()).hexdigest()


def summary(stats) -> dict:
    return {"cycles": stats.cycles, "retired": stats.retired,
            "helper_retired": stats.helper_retired,
            "stats_digest": stats_digest(stats)}


def _time_setups(config: RunConfig, samples: Samples) -> None:
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        build_core(config)
        samples.add("setup_s", time.perf_counter() - t0)
        t0 = time.perf_counter()
        build_workload(config.workload)
        samples.add("build_s", time.perf_counter() - t0)


def _timed_simulate(config, samples: Samples, checker: Checker):
    cpu0 = own_cpu_s()
    t0 = time.perf_counter()
    result = simulate(config)
    wall = time.perf_counter() - t0
    samples.add("cpu_s", own_cpu_s() - cpu0)
    samples.add("wall_s", wall)
    samples.add("run_s", result.wall_seconds)
    samples.add("sim_kips", result.stats.retired / wall / 1000.0)
    samples.add("points_per_hour", 3600.0 / wall)
    checker.check("simulated result", summary(result.stats),
                  checker.reference)
    return result, wall


def _warm_reruns(config, entry, samples: Samples, checker: Checker,
                 tracer: Tracer) -> None:
    """The point again through ``run_campaign`` over a filled RunCache:
    ``WARM_REPS`` plain reruns, then one traced."""
    work = fresh_dir("sim-warm")
    cache = RunCache(work / "cache")
    cache.put(config, entry)
    for i in range(WARM_REPS + 1):
        journal = CampaignJournal(work / f"journal{i}")
        if i == WARM_REPS:
            wrap_harness(tracer, cache, journal)
        t0 = time.perf_counter()
        got = run_campaign([config], journal=journal, cache=cache, jobs=1)
        if i < WARM_REPS:
            samples.add("warm_wall_s", time.perf_counter() - t0)
        checker.check("warm entry", entry_fingerprint(
            got[config.cache_key()]), entry_fingerprint(entry))


def run(name: str, seconds: float, traced: bool):
    config = SIMS[name]
    checker = Checker(load_json("reference.json")["sims"][name])
    samples = Samples()
    if traced:
        _time_setups(config, samples)
        return _traced(name, config, samples, checker)
    deadline = time.perf_counter() + seconds
    while not samples.data or time.perf_counter() < deadline:
        _time_setups(config, samples)
        _timed_simulate(config, samples, checker)
    return None, checker, samples, None, {}


def _traced(name: str, config: RunConfig, samples: Samples,
            checker: Checker):
    result, wall = _timed_simulate(config, samples, checker)
    tracer = Tracer()
    with tracer.span("setup", "core"):
        core = build_core(config)
    for method, stage in _STAGES.items():
        tracer.wrap(core, method, f"core.{stage}")
    tracer.wrap_all(core.hierarchy, "memory", ("load", "store", "ifetch"))
    tracer.wrap_all(core.predictor, "frontend.predictor",
                    ("predict", "spec_update", "checkpoint", "restore",
                     "update"))
    tracer.wrap_all(core.ras, "frontend.ras",
                    ("push", "pop", "checkpoint", "restore"))
    tracer.wrap_all(core.indirect, "frontend.indirect", ("predict", "update"))
    tracer.wrap(core.btb, "insert", "frontend.btb.insert")
    if not isinstance(core.engine, NullEngine):
        tracer.wrap_all(core.engine, "phelps", _ENGINE_HOOKS)
    if core.obs is not None:
        tracer.wrap_all(core.obs, "obs", ("on_cycle", "finalize"))
    run_start = time.time()
    stats = core.run(max_instructions=config.max_instructions,
                     max_cycles=config.max_cycles)
    run_end = time.time()
    traced_run_s = tracer.total_s("core.loop")
    checker.check("traced run", summary(stats), summary(result.stats))
    _warm_reruns(config, entry_from_result(result), samples, checker, tracer)

    retired = stats.retired or 1
    fetched = core.main.next_seq or 1
    l1d = stats.memory["l1d"]
    queue = stats.engine.get("queue") or {}
    m = zero_layers()
    m.update({
        "core.fetch_s": tracer.self_s("core.fetch"),
        "core.dispatch_s": tracer.self_s("core.dispatch"),
        "core.issue_s": tracer.self_s("core.issue"),
        "core.writeback_s": tracer.self_s("core.writeback"),
        "core.retire_s": tracer.self_s("core.retire"),
        "core.loop_s": tracer.self_s("core.loop"),
        "core.uops_fetched_per_retired": fetched / retired,
        "core.wrong_path_frac": 1.0 - stats.retired / fetched,
        "core.idle_skip_frac": stats.idle_cycles_skipped / stats.cycles,
        "core.cycles": stats.cycles,
        "core.ipc": stats.ipc,
        "frontend.s": tracer.self_s("frontend"),
        "frontend.checkpoints": (tracer.count("frontend.predictor.checkpoint")
                                 + tracer.count("frontend.ras.checkpoint")),
        "frontend.mpki": stats.mpki,
        "memory.s": tracer.self_s("memory"),
        "memory.accesses": sum(tracer.count(f"memory.{op}")
                               for op in ("load", "store", "ifetch")),
        "memory.l1d_miss_frac": l1d.misses / max(l1d.accesses, 1),
        "memory.dram_accesses": stats.memory["l3"].misses,
        "phelps.s": tracer.self_s("phelps"),
        "phelps.helper_uops_per_retired": stats.helper_retired / retired,
        # Main-thread queue reads (timely or not) that were consumed and
        # not found wrong at retire.
        "phelps.queue_useful_frac": (
            (queue.get("consumed", 0) - queue.get("consumed_wrong", 0))
            / max(queue.get("consumed", 0) + queue.get("not_timely", 0), 1)),
        "phelps.activations": stats.engine.get("activations", 0),
        "obs.s": tracer.self_s("obs"),
        "workloads.build_s": samples.median("build_s"),
        "harness.warm_wall_s": samples.median("warm_wall_s"),
        "harness.simulate_s": result.wall_seconds,
        "harness.cache_get_s": tracer.self_s("harness.cache_get"),
        "harness.cache_put_s": tracer.self_s("harness.cache_put"),
        "harness.journal_s": tracer.self_s("harness.journal"),
        "bench.trace_overhead_frac": traced_run_s / result.wall_seconds - 1.0,
    })
    # One point, no cache or journal on the timed path: the harness
    # overhead is everything ``simulate`` does around ``core.run``.
    m["harness.overhead_s_per_point"] = wall - result.wall_seconds
    # The run's span carries the layers' self seconds (traced time).
    tracer.add_span("core.run", run_start, run_end, "core", point=name,
                    **{k: v for k, v in m.items()
                       if k.split(".")[0] in _SIM_LAYERS and k.endswith("s")})
    return m, checker, samples, tracer, {}
