"""Simulator wall-clock trajectory (``BENCH_perf.json``).

Measures best-of-N wall-clock for a small fixed set of runs and records
simulated-instructions-per-second, so successive PRs have a number to
compare against.  Each point is measured twice — with the event-driven
idle fast path on (the default) and off — which documents how much the
cycle-skip is worth on that workload.

The record is written to ``BENCH_perf.json`` at the repo root by the
``perf`` CLI verb (or ``benchmarks/perf_smoke.py``); CI uploads it as an
artifact.  Numbers are host-dependent: compare trajectories on the same
machine, not across hosts.
"""

import dataclasses
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import CoreConfig
from repro.harness.simulator import RunConfig, simulate
from repro.memory.hierarchy import MemoryConfig
from repro.utils.shards import atomic_write_json

__all__ = ["PERF_POINTS", "SAMPLING_POINT", "explain_skip",
           "measure_guard_overhead", "measure_point", "measure_sampling",
           "perf_smoke", "write_perf_record"]

# Fixed measurement points: a helper-thread-heavy run (the engine hot
# path), a stall-heavy baseline run, and a slow-DRAM variant where more
# than half the cycles are idle (the cycle-skip showcase).
PERF_POINTS: List[Dict] = [
    {"workload": "astar", "engine": "phelps", "instructions": 30_000},
    {"workload": "sssp", "engine": "baseline", "instructions": 30_000},
    {"workload": "sssp", "engine": "baseline", "instructions": 20_000,
     "label": "sssp-slow-dram",
     "memory": {"dram_latency": 400,
                "enable_l1_prefetcher": False,
                "enable_l2_prefetcher": False}},
]


def _best_of(config: RunConfig, rounds: int) -> Tuple[float, object, List[float]]:
    """Best wall, its result, and every round's wall (the noise record).

    The per-round walls are what make regression comparison noise-aware
    (:mod:`repro.harness.perfhistory`): the spread of N identical runs is
    the measured noise floor of this host at this moment, so a later
    comparison knows how big a delta is *meaningful*.
    """
    best_wall, best_result = None, None
    walls: List[float] = []
    for _ in range(max(1, rounds)):
        result = simulate(config)
        walls.append(round(result.wall_seconds, 4))
        if best_wall is None or result.wall_seconds < best_wall:
            best_wall, best_result = result.wall_seconds, result
    return best_wall, best_result, walls


def measure_point(workload: str, engine: str, instructions: int,
                  rounds: int = 3, memory: Optional[Dict] = None,
                  label: Optional[str] = None) -> Dict:
    fast_cfg = RunConfig(workload=workload, engine=engine,
                         max_instructions=instructions,
                         memory=MemoryConfig(**memory) if memory else None)
    naive_cfg = dataclasses.replace(
        fast_cfg, core=CoreConfig(enable_cycle_skip=False))
    fast_wall, fast, fast_walls = _best_of(fast_cfg, rounds)
    naive_wall, naive, naive_walls = _best_of(naive_cfg, rounds)
    s = fast.stats
    assert (s.cycles, s.retired) == (naive.stats.cycles, naive.stats.retired), \
        "cycle-skip fast path diverged from the naive loop"
    return {
        "label": label or f"{workload}-{engine}",
        "workload": workload,
        "engine": engine,
        "instructions": instructions,
        "cycles": s.cycles,
        "retired": s.retired,
        "idle_cycles_skipped": s.idle_cycles_skipped,
        "skip_walk_cycles": s.skip_walk_cycles,
        "skip_vetoes": s.skip_vetoes,
        "skip_bulk_advances": s.skip_bulk_advances,
        "wall_seconds_best": round(fast_wall, 4),
        "wall_seconds_best_no_skip": round(naive_wall, 4),
        "wall_seconds_rounds": fast_walls,
        "wall_seconds_rounds_no_skip": naive_walls,
        "instr_per_sec": round(s.retired / fast_wall) if fast_wall else None,
        "cycles_per_sec": round(s.cycles / fast_wall) if fast_wall else None,
        "cycle_skip_speedup": round(naive_wall / fast_wall, 3) if fast_wall else None,
    }


def measure_guard_overhead(rounds: int = 3, workload: str = "astar",
                           instructions: int = 30_000) -> Dict:
    """Wall-clock cost of each ``CoreConfig.guard_level`` on one run.

    The acceptance bar is the *off* level: with the guard compiled out
    (``self.guard is None``) a guarded build must cost ~nothing over the
    seed simulator.  ``commit`` and ``full`` are recorded so their cost
    is a measured fact, not folklore.
    """
    walls: Dict[str, float] = {}
    for level in ("off", "commit", "full"):
        cfg = RunConfig(workload=workload, engine="baseline",
                        max_instructions=instructions,
                        core=CoreConfig(guard_level=level))
        wall, _, _ = _best_of(cfg, rounds)
        walls[level] = wall
    off = walls["off"]
    return {
        "label": f"{workload}-guard-overhead",
        "workload": workload,
        "engine": "baseline",
        "instructions": instructions,
        "wall_seconds_off": round(walls["off"], 4),
        "wall_seconds_commit": round(walls["commit"], 4),
        "wall_seconds_full": round(walls["full"], 4),
        "commit_overhead_pct": round((walls["commit"] / off - 1) * 100, 2)
        if off else None,
        "full_overhead_pct": round((walls["full"] / off - 1) * 100, 2)
        if off else None,
    }


def explain_skip(points: Optional[Sequence[Dict]] = None) -> List[Dict]:
    """Idle-skip self-diagnosis: one run per perf point, counters only.

    For each point (default :data:`PERF_POINTS`) this runs the fast path
    once and reports the quiescence-walk economics — walks attempted,
    engine vetoes, successful bulk advances, and cycles actually skipped.
    A point where ``skip_walk_cycles`` rivals ``idle_cycles_skipped`` is
    paying more for the walks than the skips buy back (the shape of the
    sssp-slow-dram 0.96x regression this diagnosed); healthy points skip
    hundreds of cycles per walk.
    """
    rows: List[Dict] = []
    for point in (points or PERF_POINTS):
        point = dict(point)
        label = point.pop("label", None)
        memory = point.pop("memory", None)
        cfg = RunConfig(workload=point["workload"], engine=point["engine"],
                        max_instructions=point["instructions"],
                        memory=MemoryConfig(**memory) if memory else None)
        s = simulate(cfg).stats
        walks = s.skip_walk_cycles
        rows.append({
            "label": label or f"{point['workload']}-{point['engine']}",
            "cycles": s.cycles,
            "idle_cycles_skipped": s.idle_cycles_skipped,
            "skipped_frac": round(s.idle_cycles_skipped / s.cycles, 3)
            if s.cycles else 0.0,
            "skip_walk_cycles": walks,
            "skip_vetoes": s.skip_vetoes,
            "skip_bulk_advances": s.skip_bulk_advances,
            "cycles_per_walk": round(s.idle_cycles_skipped / walks, 1)
            if walks else None,
        })
    return rows


# The sampled-vs-full measurement point: a GAP workload long enough that
# clustering has texture, sampled down to under half its instructions.
SAMPLING_POINT: Dict = {
    "workload": "bfs", "engine": "baseline",
    "full_instructions": 60_000, "interval_instructions": 6_000,
    "k": 4, "warmup_instructions": 2_000,
}


def measure_sampling(point: Optional[Dict] = None) -> Dict:
    """Sampled-vs-full wall-clock speedup and IPC error for one workload.

    Extends the perf trajectory with the sampling subsystem's headline
    numbers; deterministic modulo host wall-clock noise.
    """
    from repro.sampling import sampled_vs_full

    point = dict(point or SAMPLING_POINT)
    report = sampled_vs_full(**point)
    sampled = report["sampled"]
    return {
        "label": f"{point['workload']}-{point['engine']}-sampled",
        "workload": point["workload"],
        "engine": point["engine"],
        "full_instructions": report["full_instructions"],
        "interval_instructions": point["interval_instructions"],
        "clusters": point["k"],
        "regions": len(sampled["regions"]),
        "full_ipc": round(report["full_ipc"], 4),
        "sampled_ipc": round(sampled["ipc"], 4),
        "ipc_error_pct": report["ipc_error_pct"],
        "simulated_fraction": round(sampled["simulated_fraction"], 4),
        "full_wall_seconds": round(report["full_wall_seconds"], 4),
        "sampled_wall_seconds": round(sampled["wall_seconds"], 4),
        "wall_speedup": report["wall_speedup"],
    }


def perf_smoke(rounds: int = 3,
               points: Optional[Sequence[Dict]] = None,
               include_sampling: bool = False) -> Dict:
    record = {
        "schema": 1,
        "generated_unix": int(time.time()),
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "rounds": rounds,
        "points": [measure_point(rounds=rounds, **point)
                   for point in (points or PERF_POINTS)],
    }
    if include_sampling:
        record["sampling"] = measure_sampling()
    record["guard"] = measure_guard_overhead(rounds=rounds)
    return record


def write_perf_record(path, record: Dict) -> None:
    atomic_write_json(path, record, indent=1, sort_keys=True)
