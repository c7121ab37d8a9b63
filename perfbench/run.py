"""The repository benchmark: simulator speed end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload once plainly and once with timing
wrappers on each layer, reports the per-layer metrics (seconds in them
are traced time) and writes the spans to ``perfbench/_out/<workload>-
trace.json`` (Chrome trace-event JSON; open it in Perfetto).  ``all``
runs every workload both ways, one process each.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (result comparisons against
``perfbench/reference.json``) and ``metrics``.  Exit status: 0 when every
result matched, 1 when any did not (the JSON line still prints), 2 when
the checkout lacks the program or the arguments are bad (nothing
printed on standard output).
"""

import argparse
import json
import pathlib
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sim-phelps-astar", "sim-baseline-slowdram", "campaign-local",
             "campaign-served")


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="simulator benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)], cwd=ROOT)
            status = status or proc.returncode
    return status


def _measure(name: str, args):
    """(per-layer metrics or None, checker, samples, tracer, digests)."""
    import campaigns
    import simwork

    traced = bool(args.trace)
    if name in simwork.SIMS:
        return simwork.run(name, args.seconds, traced)
    runner = (campaigns.run_local if name == "campaign-local"
              else campaigns.run_served)
    return runner(args.seconds, traced, args.seed)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from a repository checkout (needs src/repro "
              "and BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import campaigns
    import common

    # A SIGTERM unwinds through the clean-up below, so no daemon, worker
    # or pool process outlives the benchmark.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec = common.spec()
    t0 = time.perf_counter()
    try:
        metrics, checker, samples, tracer, info = _measure(args.workload,
                                                           args)
    finally:
        campaigns.stop_all()
        shutil.rmtree(common.WORK_DIR, ignore_errors=True)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if metrics is None:
        # End to end: the median of each metric's samples in this run.
        metrics = {name: samples.median(name) for name in units
                   if name != "peak_rss_mb"}
        metrics["peak_rss_mb"] = common.peak_rss_mb()
    if set(metrics) != set(units):
        raise AssertionError(
            f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"elapsed={time.perf_counter() - t0:.1f}s host={common.host()}")
    print("programs: the workload registry's fixed-seed builds "
          "(--seed orders campaign points only)")
    if info.get("order"):
        print(f"point order {info['order']}  results {info['results']}")
    print("timings (median, tail percentile with >=10 samples beyond it, n):")
    for line in samples.lines():
        print(line)
    if args.trace:
        print(f"per-layer metrics (seconds are traced time; tracing "
              f"overhead bench.trace_overhead_frac="
              f"{metrics['bench.trace_overhead_frac']:.3f}; shares are "
              f"diagnostics, only end-to-end metrics are evidence):")
    else:
        print("end-to-end metrics (untraced):")
    for m in declared:
        print(f"  {m['name']:34s} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(f"correctness: attempted={checker.attempted} "
          f"failed={checker.failed} "
          f"failed_frac={checker.failed / max(checker.attempted, 1):.4f}")
    for problem in checker.problems[:20]:
        print(f"  MISMATCH {problem}")
    if tracer is not None:
        path = common.OUT_DIR / f"{args.workload}-trace.json"
        print(f"trace: {tracer.write_chrome_trace(path)} events -> "
              f"{path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
