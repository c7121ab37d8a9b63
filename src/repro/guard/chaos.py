"""Chaos suite: inject every fault class and check the promised behavior.

Each case either **recovers** (the run completes, with the golden-model
guard proving the architectural results stayed correct — degraded IPC is
allowed, wrong values are not) or **fails fast** with one of the typed
guard errors.  Anything else — an untyped exception, a silent wrong
result — marks the case ``failed`` and the suite (and the ``guard
--chaos`` CLI verb, and the CI chaos-smoke job) goes red.

The suite is deterministic: every injector decision derives from the
``seed`` argument, so a red case replays exactly.
"""

import shutil
import tempfile
from typing import Dict, List, Optional

from repro.guard.errors import GuardError
from repro.guard.inject import (FaultInjector, corrupt_dbt,
                                corrupt_loop_table,
                                corrupt_prediction_queues, truncate_file,
                                worker_fault_env)

__all__ = ["ENGINE_FAULTS", "STORAGE_FAULTS", "WORKER_FAULTS",
           "run_chaos_suite"]

# Faults wrapped around live Phelps structures, applied per workload.
ENGINE_FAULTS = ("queue-flip", "queue-drop", "dbt-flip", "loop-table-drop")
# Shard-store faults, workload-independent (run once per suite).
STORAGE_FAULTS = ("runcache-truncate", "checkpoint-truncate")
# Local-sweep worker faults, workload-independent (run once per suite).
WORKER_FAULTS = ("worker-kill", "worker-hang")


def _engine_case(fault: str, workload: str, instructions: int,
                 seed: int) -> Dict:
    from repro.core import Core, CoreConfig
    from repro.phelps import PhelpsConfig, PhelpsEngine
    from repro.workloads import build_workload

    # The short-epoch config the phelps integration tests deploy with:
    # install after ~2 epochs, leaving most of the run under a helper.
    engine = PhelpsEngine(PhelpsConfig(epoch_length=8000,
                                       min_iterations_per_visit=8))
    injector = FaultInjector(seed)
    if fault == "queue-flip":
        corrupt_prediction_queues(engine, injector, rate=0.25, mode="flip")
    elif fault == "queue-drop":
        corrupt_prediction_queues(engine, injector, rate=0.25, mode="drop")
    elif fault == "dbt-flip":
        corrupt_dbt(engine, injector, rate=0.2)
    elif fault == "loop-table-drop":
        corrupt_loop_table(engine, injector, drop_rate=0.5)
    else:
        raise ValueError(f"unknown engine fault {fault!r}")

    # guard_level="commit" is the teeth of the case: a fault that leaks
    # into architectural state diverges from the golden model and the run
    # fails typed instead of completing with a silently wrong result.
    core = Core(build_workload(workload),
                config=CoreConfig(guard_level="commit"), engine=engine)
    stats = core.run(max_instructions=instructions)
    qstats = engine.queues.stats()
    return {
        "outcome": "recovered",
        "details": {
            "injected": len(injector.log),
            "retired": stats.retired,
            "ipc": round(stats.ipc, 4),
            "guard_checked": core.guard.checked,
            "activations": engine.activations,
            "desync_terminations": engine.desync_terminations,
            "queue_consumed_wrong": qstats["consumed_wrong"],
            "queue_not_timely": qstats["not_timely"],
        },
    }


def _runcache_case(workload: str, seed: int, workdir: str) -> Dict:
    from repro.harness.runcache import RunCache, entry_from_result
    from repro.harness.simulator import RunConfig, simulate

    injector = FaultInjector(seed)
    cache = RunCache(workdir)
    config = RunConfig(workload=workload, max_instructions=1500)
    entry = entry_from_result(simulate(config))
    cache.put(config, entry)
    removed = truncate_file(cache.path_for(config), injector)
    after = cache.get(config)
    corrupt = cache.path_for(config).with_suffix(".json.corrupt")
    if after is not None:
        raise RuntimeError("truncated shard was served as a cache hit")
    if cache.quarantined != 1 or not corrupt.exists():
        raise RuntimeError("truncated shard was not quarantined")
    cache.put(config, entry)          # heal: recompute and rewrite
    healed = cache.get(config)
    if healed != entry:
        raise RuntimeError("rewritten shard did not round-trip")
    return {
        "outcome": "recovered",
        "details": {"bytes_removed": removed, "quarantined": cache.quarantined,
                    "corrupt_shard": corrupt.name, "healed": True},
    }


def _checkpoint_case(workload: str, seed: int, workdir: str) -> Dict:
    from repro.sampling.checkpoint import CheckpointStore, capture_checkpoint

    injector = FaultInjector(seed)
    store = CheckpointStore(workdir)
    before = capture_checkpoint(workload, 2000, 500, store=store)
    removed = truncate_file(store.path_for(workload, 2000, 500), injector)
    healed = capture_checkpoint(workload, 2000, 500, store=store)
    corrupt = store.path_for(workload, 2000, 500).with_suffix(".json.corrupt")
    if store.quarantined != 1 or not corrupt.exists():
        raise RuntimeError("truncated checkpoint was not quarantined")
    if (healed.pc, healed.regs, healed.mem) != (before.pc, before.regs,
                                                before.mem):
        raise RuntimeError("re-captured checkpoint diverged from original")
    if store.get(workload, 2000, 500) is None:
        raise RuntimeError("healed checkpoint shard not readable")
    return {
        "outcome": "recovered",
        "details": {"bytes_removed": removed,
                    "quarantined": store.quarantined,
                    "corrupt_shard": corrupt.name, "healed": True},
    }


def _worker_case(fault: str, workload: str, workdir: str) -> Dict:
    from repro.harness.campaign import CampaignJournal, run_campaign
    from repro.harness.simulator import RunConfig

    configs = [RunConfig(workload=workload, max_instructions=1500),
               RunConfig(workload=workload, max_instructions=2000)]
    journal = CampaignJournal(workdir)
    if fault == "worker-kill":
        with worker_fault_env("kill", [0]):
            entries = run_campaign(configs, journal=journal, jobs=2)
    else:
        with worker_fault_env("hang", [0], hang_seconds=120.0):
            entries = run_campaign(configs, journal=journal, jobs=2,
                                   timeout=5.0)
    faulted, clean = (journal.read_point(c.cache_key()) for c in configs)
    if faulted["attempts_taken"] != 2 or not faulted.get("last_error"):
        raise RuntimeError(
            f"retry not journaled: attempts_taken="
            f"{faulted['attempts_taken']} "
            f"last_error={faulted.get('last_error')!r}")
    if clean["attempts_taken"] != 1 or clean.get("last_error"):
        raise RuntimeError("clean point carried retry provenance")
    return {
        "outcome": "recovered",
        "details": {"attempts_taken": faulted["attempts_taken"],
                    "last_error": faulted["last_error"],
                    "failed_workers": faulted["failed_workers"],
                    "cycles": entries[configs[0].cache_key()]["cycles"]},
    }


def run_chaos_suite(workloads: List[str], instructions: int = 30_000,
                    seed: int = 1,
                    workdir: Optional[str] = None) -> Dict:
    """Run every fault class; returns the suite report (JSON-ready)."""
    own_dir = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    cases: List[Dict] = []

    def _run(fault: str, workload: str, fn, *args) -> None:
        case = {"fault": fault, "workload": workload, "error": None}
        try:
            case.update(fn(*args))
        except GuardError as exc:
            # Typed fail-fast is an acceptable outcome *contract-wise* but
            # still fails the suite: these seeds are chosen to recover.
            case["outcome"] = "failed"
            case["error"] = f"{type(exc).__name__}: {exc}"
            case["bundle"] = exc.report.to_dict()
        except Exception as exc:
            case["outcome"] = "failed"
            case["error"] = f"{type(exc).__name__}: {exc}"
        cases.append(case)

    try:
        for workload in workloads:
            for fault in ENGINE_FAULTS:
                _run(fault, workload, _engine_case, fault, workload,
                     instructions, seed)
        first = workloads[0]
        _run("runcache-truncate", first, _runcache_case, first, seed,
             workdir + "/runcache")
        _run("checkpoint-truncate", first, _checkpoint_case, first, seed,
             workdir + "/checkpoints")
        for fault in WORKER_FAULTS:
            _run(fault, first, _worker_case, fault, first,
                 f"{workdir}/{fault}")
    finally:
        if own_dir:
            shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for c in cases if c["outcome"] != "recovered")
    return {
        "schema": 1,
        "seed": seed,
        "instructions": instructions,
        "workloads": list(workloads),
        "cases": cases,
        "failed": failed,
    }
