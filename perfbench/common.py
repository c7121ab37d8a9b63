"""Shared helpers: checkout paths, timing statistics, process accounting."""

import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"   # scratch journals/caches, removed per run
OUT_DIR = BENCH_DIR / "_out"     # Chrome traces of traced runs

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def load_json(name: str):
    return json.loads((BENCH_DIR / name).read_text())


def fresh_dir(name: str) -> pathlib.Path:
    path = WORK_DIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def host() -> dict:
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "platform": platform.platform()}


# ---------------------------------------------------------------- stats
def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value) of the highest percentile that still has at
    least ten samples beyond it (nearest rank), or None when there are
    too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


class Samples:
    """Named timing samples of one run, summarised as median + tail."""

    def __init__(self):
        self.data = {}

    def add(self, name: str, value: float) -> None:
        self.data.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        return statistics.median(self.data[name])

    def lines(self):
        for name, values in sorted(self.data.items()):
            t = tail(values)
            extra = f"  p{t[0]:g}={t[1]:.6g}" if t else ""
            yield (f"  {name}: median={median(values):.6g}{extra}"
                   f"  n={len(values)}")


# ------------------------------------------------------- process usage
def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds of a live process (Linux /proc)."""
    stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def own_cpu_s() -> float:
    """CPU seconds of this process plus every child it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def spec() -> dict:
    """The benchmark definition (``BENCHMARK.json`` at the checkout root)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def zero_layers() -> dict:
    """Every per-layer metric at 0: a layer a workload does not exercise
    reads 0, since each traced run reports the full per-layer set."""
    return {m["name"]: 0.0 for m in spec()["per_layer"]}


class Checker:
    """Counts attempted/failed comparisons against stored references."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.problems.append(f"{what}: got {got}, want {want}")


def wrap_harness(tracer, cache=None, journal=None) -> None:
    """Attribute a RunCache's and a CampaignJournal's calls to ``harness``."""
    if cache is not None:
        tracer.wrap(cache, "get", "harness.cache_get")
        tracer.wrap(cache, "put", "harness.cache_put")
    if journal is not None:
        tracer.wrap_all(journal, "harness.journal",
                        ("prepare", "read_point", "mark", "write_point",
                         "note_attempt", "load_manifest", "write_manifest"))
