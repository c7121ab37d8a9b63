"""Command-line interface.

::

    python -m repro list
    python -m repro run astar --engine phelps -n 80000
    python -m repro run astar bfs sssp --engine phelps --jobs 4
    python -m repro run astar --engine phelps --metrics-json m.json --trace-out t.json
    python -m repro stats astar --engine phelps
    python -m repro compare bfs --engines baseline phelps perfbp
    python -m repro sweep -w astar bfs -e baseline phelps --jobs 4
    python -m repro sweep -w astar -e baseline phelps --manifest camp/
    python -m repro sweep --resume camp/
    python -m repro run astar -n 500000 --snapshot-interval 100000 --snapshot-dir snaps/
    python -m repro watch camp/
    python -m repro audit camp/ --rate 0.25 --seed 7
    python -m repro perf --out BENCH_perf.json
    python -m repro perf --record            # append to benchmarks/perf_history/
    python -m repro perf --compare           # newest vs previous history shard
    python -m repro perf --explain-skip
    python -m repro costs
    python -m repro inspect astar
    python -m repro guard --matrix -n 30000
    python -m repro guard --chaos -w astar bfs --bundle chaos.json
"""

import argparse
import sys

from repro.harness import (CampaignJournal, RunCache, RunConfig, ascii_table,
                           entry_from_result, epoch_table, interrupt_guard,
                           metrics_report, poll_interrupt, run_campaign,
                           simulate)
from repro.obs import ObserveConfig, write_chrome_trace
from repro.utils.shards import atomic_write_json
from repro.phelps import PhelpsConfig
from repro.phelps.budget import cost_table
from repro.workloads import workload_names

_ENGINE_CHOICES = ["baseline", "perfbp", "phelps", "br", "br_nonspec", "br12",
                   "partition_only"]

# Distinct nonzero exit codes so CI / scripts can tell the failure modes
# apart without parsing stderr (documented in ``guard --help``).  2 is
# argparse's usage-error code; 1 stays the generic failure.
EXIT_HANG = 3            # forward-progress watchdog fired (SimulationHang)
EXIT_DIVERGENCE = 4      # golden-model divergence (DivergenceError)
EXIT_WORKER_FAILURE = 5  # a sweep point failed every attempt
EXIT_INVARIANT = 6       # cycle-level sanitizer violation (InvariantViolation)
EXIT_PERF_REGRESSION = 7 # perf --compare found a same-host regression
EXIT_INTEGRITY = 8       # audit re-execution fingerprint-diverged from a
#                          published entry (result-integrity failure)
EXIT_INTERRUPTED = 130   # SIGINT/SIGTERM: graceful stop (128 + SIGINT)

_EXIT_CODE_DOC = """\
exit codes:
  0  success
  1  generic failure (e.g. a chaos case neither recovered nor failed fast)
  2  usage error
  3  simulation hang: the forward-progress watchdog saw no main-thread
     commit for CoreConfig.watchdog_cycles cycles (SimulationHang)
  4  golden-model divergence: committed architectural state disagreed
     with the oracle functional executor (DivergenceError)
  5  worker failure: a sweep point (or a point of run -w A B) failed
     on every attempt (SimulationFailed)
  6  invariant violation: the cycle-level sanitizer found inconsistent
     microarchitectural state (InvariantViolation)
  7  perf regression: perf --compare found a same-host slowdown past the
     measured noise floor plus margin
  8  integrity failure: an audit re-execution's fingerprint diverged
     from the published entry (repro audit, or a service campaign whose
     audits left unresolved mismatches / poisoned points)
130  interrupted: SIGINT/SIGTERM stopped a sweep/guard/sample gracefully
     after flushing completed results (128 + SIGINT; a second SIGINT
     hard-kills immediately)
"""


def _cmd_list(args) -> int:
    print("\n".join(workload_names()))
    return 0


def _metrics_payload(result) -> dict:
    """The ``--metrics-json`` document: run summary + full counter
    snapshot + per-epoch timeseries."""
    s = result.stats
    return {
        "workload": result.config.workload,
        "engine": result.config.engine,
        "cycles": s.cycles,
        "retired": s.retired,
        "ipc": s.ipc,
        "mpki": s.mpki,
        "mispredicts": s.mispredicts,
        "helper_retired": s.helper_retired,
        "halted": s.halted,
        "wall_seconds": result.wall_seconds,
        "counters": s.metrics,
        "epochs": s.epochs,
    }


def _print_run_summary(entry: dict, verbose: bool = False) -> None:
    """Summary of one result entry (:func:`entry_from_result`)."""
    cfg = entry["config"]
    print(f"{cfg['workload']} [{cfg['engine']}] "
          f"{entry['retired']:,} insts in {entry['cycles']:,} cycles "
          f"({entry['wall_seconds']:.1f}s wall)")
    print(f"  IPC {entry['ipc']:.3f}  MPKI {entry['mpki']:.2f}  "
          f"mispredicts {entry['mispredicts']:,}  "
          f"helper insts {entry['helper_retired']:,}")
    if verbose and entry["engine"]:
        for k, v in entry["engine"].items():
            print(f"  {k}: {v}")


def _cmd_run(args) -> int:
    if len(args.workloads) > 1:
        if args.metrics_json or args.trace_out or args.profile:
            print("run: --metrics-json/--trace-out/--profile need a single "
                  "workload", file=sys.stderr)
            return 2
        configs = [RunConfig(workload=w, engine=args.engine,
                             max_instructions=args.instructions,
                             observe=args.observe,
                             snapshot_interval=args.snapshot_interval,
                             snapshot_dir=args.snapshot_dir)
                   for w in args.workloads]
        entries = run_campaign(configs, jobs=args.jobs)
        for config in configs:
            _print_run_summary(entries[config.cache_key()],
                               verbose=args.verbose)
        return 0
    workload = args.workloads[0]
    observe = bool(args.observe or args.metrics_json or args.trace_out
                   or args.profile)
    ocfg = ObserveConfig(profile=args.profile,
                         pipeline_trace=bool(args.trace_out)) if observe else None
    cfg = RunConfig(workload=workload, engine=args.engine,
                    max_instructions=args.instructions,
                    observe=observe, observe_config=ocfg,
                    snapshot_interval=args.snapshot_interval,
                    snapshot_dir=args.snapshot_dir)
    result = simulate(cfg)
    s = result.stats
    if result.resumed_at is not None:
        print(f"  resumed from snapshot at {result.resumed_at:,} retired "
              f"instructions ({args.snapshot_dir})")
    _print_run_summary(entry_from_result(result), verbose=args.verbose)
    if args.metrics_json:
        atomic_write_json(args.metrics_json, _metrics_payload(result),
                          indent=1, default=str)
        print(f"  metrics -> {args.metrics_json} "
              f"({len(s.metrics)} counters, {len(s.epochs)} epoch samples)")
    if args.trace_out:
        n = write_chrome_trace(args.trace_out, result.obs.events.events(),
                               tracer=result.obs.tracer)
        print(f"  chrome trace -> {args.trace_out} ({n} events; open in "
              f"Perfetto / chrome://tracing)")
    if args.profile:
        print(result.obs.profiler.report())
    return 0


def _cmd_compare(args) -> int:
    rows = []
    base_rate = None
    for engine in args.engines:
        r = simulate(RunConfig(workload=args.workload, engine=engine,
                               max_instructions=args.instructions))
        # A run can halt (or wedge) with 0 cycles or 0 retired; report
        # "n/a" rather than dividing by zero.
        rate = r.stats.retired / r.cycles if r.cycles else 0.0
        if base_rate is None:
            base_rate = rate
        speedup = rate / base_rate if base_rate else None
        rows.append([engine, r.ipc, r.mpki,
                     speedup if speedup is not None else "n/a"])
    print(ascii_table(["engine", "IPC", "MPKI", "speedup"], rows))
    return 0


def _cmd_sweep(args) -> int:
    """Journaled sweep of a spec's points (a fresh ``-w x -e`` cross
    product, or a ``--resume``d manifest's spec in either form):
    process-pool fan-out, shard caching, kill-and-resume."""
    from repro.service.queue import configs_from_spec

    if args.resume:
        if args.workloads or args.engines or args.instructions is not None:
            print("sweep: --resume takes its points from the manifest "
                  "spec; drop -w/-e/-n", file=sys.stderr)
            return 2
        journal = CampaignJournal(args.resume)
        manifest = journal.load_manifest()
        if manifest is None:
            print(f"sweep: no campaign manifest under {args.resume} "
                  f"(expected {journal.manifest_path})", file=sys.stderr)
            return 2
        spec_doc = manifest.get("spec", {})
    elif not args.workloads or not args.engines:
        print("sweep: -w/-e are required unless resuming with --resume",
              file=sys.stderr)
        return 2
    else:
        spec_doc = {"workloads": args.workloads, "engines": args.engines,
                    "instructions": args.instructions or 100_000,
                    "cache_dir": args.cache_dir}
        journal = CampaignJournal(args.manifest) if args.manifest else None
    try:
        configs = configs_from_spec(spec_doc)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"sweep: manifest spec names no runnable points: {exc!r}",
              file=sys.stderr)
        return 2
    cache_dir = args.cache_dir or spec_doc.get("cache_dir")
    cache = RunCache(cache_dir) if cache_dir else None

    def _progress(p) -> None:
        label = f"{p.config.workload}/{p.config.engine}"
        if p.kind == "done":
            print(f"  [{p.done_count}/{p.total}] {label} "
                  f"({p.wall_seconds:.1f}s)")
        elif p.kind == "retry":
            print(f"  retry {label}")
        elif p.kind == "failed":
            print(f"  FAILED {label}: {p.error}", file=sys.stderr)

    print(f"sweep: {len(configs)} points (jobs={args.jobs or 'auto'}"
          + (f", journal={journal.root}" if journal is not None else "")
          + ")")
    entries = run_campaign(configs, journal=journal, cache=cache,
                           jobs=args.jobs, timeout=args.timeout,
                           progress=_progress if not args.quiet else None,
                           spec=spec_doc,
                           heartbeat_interval=args.heartbeat_interval)

    # Speedup is against the first point of the same workload.
    rows, base = [], {}
    for config in configs:
        entry = entries[config.cache_key()]
        rate = entry["retired"] / max(entry["cycles"], 1)
        first = base.setdefault(config.workload, rate)
        rows.append([config.workload, config.engine, entry["ipc"],
                     entry["mpki"], entry["cycles"],
                     rate / first if first else "n/a"])
    print(ascii_table(["workload", "engine", "IPC", "MPKI", "cycles",
                       "speedup"], rows))
    return 0


def _cmd_sample(args) -> int:
    """Sampled simulation: BBV profile -> cluster -> checkpointed regions."""
    from repro.sampling import profile_bbv, sampled_run, sampled_vs_full

    common = dict(
        engine=args.engine,
        full_instructions=args.instructions,
        interval_instructions=args.interval,
        k=args.clusters,
        seed=args.seed,
        warmup_instructions=args.warmup,
        checkpoint_dir=args.checkpoint_dir,
    )
    # Under the guard a SIGINT/SIGTERM lands at a region boundary (the
    # evaluate_regions poll point) instead of killing mid-simulation;
    # main() maps the resulting SweepInterrupted to exit code 130.
    with interrupt_guard():
        if args.validate:
            report = sampled_vs_full(args.workload, **common)
            sampled = report["sampled"]
        else:
            report = sampled_run(args.workload, **common)
            sampled = report

    print(f"{args.workload} [{args.engine}] sampled: "
          f"{sampled['intervals_profiled']} intervals of "
          f"{args.interval:,} insts -> {len(sampled['regions'])} regions")
    rows = [[r["label"], r["start"], r["instructions"], r["weight"]]
            for r in sampled["regions"]]
    print(ascii_table(["region", "start", "insts", "weight"], rows))
    frac = sampled["simulated_fraction"]
    print(f"  sampled IPC {sampled['ipc']:.3f}  MPKI {sampled['mpki']:.2f}  "
          f"({sampled['instructions_simulated']:,} of "
          f"{sampled['instructions_profiled']:,} insts cycle-accurate, "
          f"{frac:.0%})")
    if sampled.get("checkpoints_reused") is not None:
        print(f"  checkpoints: {sampled['checkpoints_reused']}/"
              f"{sampled['checkpoints_total']} reused from "
              f"{args.checkpoint_dir}")
    if args.validate:
        print(f"  full IPC {report['full_ipc']:.3f}  "
              f"error {report['ipc_error_pct']}%  "
              f"wall speedup {report['wall_speedup']}x "
              f"({report['full_wall_seconds']:.1f}s full vs "
              f"{sampled['wall_seconds']:.1f}s sampled)")
    if args.report:
        atomic_write_json(args.report, report, indent=1, sort_keys=True)
        print(f"  report -> {args.report}")
    return 0


def _cps_floor_failures(points, floor):
    """Perf points whose absolute simulation speed is below the floor."""
    fails = []
    for p in points or []:
        cps = p.get("cycles_per_sec")
        if cps is not None and cps < floor:
            fails.append(f"{p['label']}: {cps:,} cycles/s < floor {floor:,.0f}")
    return fails


def _cmd_perf(args) -> int:
    from repro.harness.perf import explain_skip, perf_smoke, write_perf_record
    from repro.harness.perfhistory import (append_record, compare_records,
                                           latest_record, list_records,
                                           load_record)

    if args.explain_skip:
        rows = explain_skip()
        print(ascii_table(
            ["point", "cycles", "skipped", "frac", "walks", "vetoes",
             "advances", "cyc/walk"],
            [[r["label"], r["cycles"], r["idle_cycles_skipped"],
              r["skipped_frac"], r["skip_walk_cycles"], r["skip_vetoes"],
              r["skip_bulk_advances"], r["cycles_per_walk"] or "n/a"]
             for r in rows]))
        sick = [r["label"] for r in rows
                if r["skip_walk_cycles"] > r["idle_cycles_skipped"] > 0]
        if sick:
            print(f"walks outweigh skipped cycles on: {', '.join(sick)} "
                  f"(the fast path costs more than it saves there)")
        return 0

    if args.compare is not None or args.against:
        # Pure comparison of existing records: never simulates.  The
        # history shards sort oldest-first, so with no explicit paths
        # this compares the two newest records.
        history = [(p, load_record(p)) for p in list_records(args.history_dir)]
        history = [(p, r) for p, r in history if r is not None]
        if args.against:
            new = load_record(args.against)
            if new is None:
                print(f"perf: cannot read record {args.against}",
                      file=sys.stderr)
                return 2
        elif history:
            _, new = history.pop()
        else:
            print(f"perf: no history under {args.history_dir} "
                  f"(record one with --record)", file=sys.stderr)
            return 2
        if args.compare:
            base = load_record(args.compare)
            if base is None:
                print(f"perf: cannot read baseline {args.compare}",
                      file=sys.stderr)
                return 2
        elif history:
            _, base = history[-1]
        else:
            print("perf: history has no record to use as baseline; pass "
                  "an explicit path to --compare", file=sys.stderr)
            return 2
        report = compare_records(base, new, margin_pct=args.margin)
        for d in report["points"]:
            if d.get("verdict") == "incomparable":
                print(f"  ?  {d['label']}: incomparable")
                continue
            mark = {"regression": "REG", "improvement": "imp",
                    "ok": "ok "}[d["verdict"]]
            print(f"  {mark} {d['label']}: {d['base_wall_seconds']:.2f}s -> "
                  f"{d['new_wall_seconds']:.2f}s ({d['delta_pct']:+.1f}%, "
                  f"noise {d['noise_pct']:.1f}% + margin "
                  f"{report['margin_pct']:.1f}%)")
        if not report["host_match"]:
            print("perf: records come from different hosts — wall-clock "
                  "deltas are advisory, not a gate", file=sys.stderr)
        if args.compare_out:
            atomic_write_json(args.compare_out, report, indent=1,
                              sort_keys=True)
            print(f"delta report -> {args.compare_out}")
        floor_fails = []
        if args.min_cycles_per_sec:
            floor_fails = _cps_floor_failures(new.get("points"),
                                              args.min_cycles_per_sec)
            for f in floor_fails:
                print(f"perf: FLOOR {f}", file=sys.stderr)
        if report["regressions"]:
            print(f"perf: REGRESSION on {', '.join(report['regressions'])}",
                  file=sys.stderr)
            if report["host_match"]:
                return EXIT_PERF_REGRESSION
        if floor_fails:
            return EXIT_PERF_REGRESSION
        return 0

    record = perf_smoke(rounds=args.rounds,
                        include_sampling=args.sampling)
    for p in record["points"]:
        print(f"{p['label']} n={p['instructions']:,}: "
              f"{p['instr_per_sec']:,} instr/s "
              f"(best of {record['rounds']}: {p['wall_seconds_best']:.2f}s; "
              f"no-skip {p['wall_seconds_best_no_skip']:.2f}s, "
              f"skip speedup {p['cycle_skip_speedup']}x, "
              f"{p['idle_cycles_skipped']:,} idle cycles skipped)")
    s = record.get("sampling")
    if s:
        print(f"{s['label']}: sampled-vs-full wall speedup "
              f"{s['wall_speedup']}x, IPC error {s['ipc_error_pct']}%, "
              f"{s['simulated_fraction']:.0%} of insts cycle-accurate")
    g = record.get("guard")
    if g:
        print(f"{g['label']}: off {g['wall_seconds_off']:.2f}s, "
              f"commit +{g['commit_overhead_pct']}%, "
              f"full +{g['full_overhead_pct']}%")
    if args.out:
        write_perf_record(args.out, record)
        print(f"perf record -> {args.out}")
    if args.record:
        shard = append_record(args.history_dir, record,
                              latest_path=args.out or "BENCH_perf.json")
        print(f"history shard -> {shard}")
    if args.min_cycles_per_sec:
        floor_fails = _cps_floor_failures(record["points"],
                                          args.min_cycles_per_sec)
        if floor_fails:
            for f in floor_fails:
                print(f"perf: FLOOR {f}", file=sys.stderr)
            return EXIT_PERF_REGRESSION
    return 0


def _remote_view(url: str):
    """One dashboard frame of a daemon campaign (``.../campaigns/<id>``),
    or None when the URL answers no campaign view."""
    import json as json_mod
    import urllib.error
    import urllib.request

    from repro.obs.live import live_view

    try:
        with urllib.request.urlopen(url.rstrip("/"), timeout=10) as resp:
            doc = json_mod.loads(resp.read().decode())
    except (urllib.error.URLError, OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("points") is None:
        return None
    return live_view(doc)


def _cmd_watch(args) -> int:
    """Terminal dashboard over a campaign's point shards: a journal
    directory, or — with --connect — a daemon campaign URL."""
    import time as time_mod

    from repro.obs.live import finished_count, journal_view, render_watch

    if not args.connect and not args.dir:
        print("watch: a campaign directory or --connect URL is required",
              file=sys.stderr)
        return 2
    if args.connect:
        def frame():
            return _remote_view(args.connect)
    else:
        def frame():
            return journal_view(args.dir)

    view = frame()
    if view is None:
        where = args.connect or args.dir
        print(f"watch: no campaign at {where} (expected campaign.json or "
              f"a .../campaigns/<id> URL)", file=sys.stderr)
        return 2
    while True:
        if not args.once:
            print("\x1b[2J\x1b[H", end="")  # clear screen, home cursor
        print(render_watch(view, limit=args.limit))
        total = view.get("total")
        if args.once or (total and finished_count(view) >= total):
            return 0
        time_mod.sleep(args.interval)
        view = frame() or view


def _parse_tenants(specs):
    """``name=weight[:max_leased]`` strings -> {name: TenantPolicy}."""
    from repro.service import TenantPolicy

    tenants = {}
    for spec in specs or ():
        name, _, policy = spec.partition("=")
        if not name or not policy:
            raise ValueError(f"bad --tenant {spec!r} "
                             f"(want name=weight[:max_leased])")
        weight, _, cap = policy.partition(":")
        tenants[name] = TenantPolicy(weight=float(weight),
                                     max_leased=int(cap) if cap else None)
    return tenants


def _cmd_service(args) -> int:
    """The campaign daemon: sweeps as a service over HTTP."""
    from repro.service import CampaignService, ServiceConfig

    try:
        tenants = _parse_tenants(args.tenant)
    except ValueError as exc:
        print(f"service: {exc}", file=sys.stderr)
        return 2
    config = ServiceConfig(
        root=args.root, host=args.host, port=args.port,
        workers=args.workers, lease_seconds=args.lease_seconds,
        cache_dir=args.cache_dir,
        max_queued_points=args.max_queued_points,
        max_active_campaigns=args.max_active,
        max_attempts=args.max_attempts,
        heartbeat_interval=args.heartbeat_interval,
        drain_seconds=args.drain_seconds,
        tenants=tenants,
        audit_rate=args.audit_rate,
        audit_seed=args.audit_seed,
        quarantine_threshold=args.quarantine_threshold,
        poison_workers=args.poison_workers)
    service = CampaignService(config).start()
    print(f"campaign service at {service.url} "
          f"(root={args.root}, workers={args.workers}; "
          f"POST /campaigns submits, Ctrl-C stops, "
          f"SIGTERM drains)")
    service.serve_forever()
    return 0


def _cmd_worker(args) -> int:
    """One pull-model campaign worker connected to a daemon."""
    from repro.service import WorkerOptions, work_service

    options = WorkerOptions(
        worker_id=args.id or "",
        heartbeat_interval=args.heartbeat_interval,
        poll_interval=args.poll_interval,
        max_idle_polls=args.max_idle_polls,
        max_points=args.max_points,
        max_misses=args.max_misses,
        cache_dir=args.cache_dir,
        log=not args.quiet)
    report = work_service(args.connect, options)
    print(f"worker {report.worker_id}: {report.completed} completed "
          f"({report.cache_hits} from cache), {report.failed} failed, "
          f"{report.lease_lost} leases lost, {report.claimed} claims")
    if report.http_retries or report.breaker_opens or report.renew_misses:
        print(f"worker {report.worker_id}: transport "
              f"{report.http_retries} retries, "
              f"{report.breaker_opens} breaker opens, "
              f"{report.renew_misses} renew misses")
    return 0


def _cmd_audit(args) -> int:
    """Offline sampled re-execution of a campaign's published entries.

    The deterministic-simulator counterpart of the service's live audit
    scheduler: re-run a seeded sample of the done points and demand
    bit-identical ``entry_fingerprint``s.  Any divergence means the
    stored entry was not produced by this simulator on this input —
    bit-rot, a corrupted worker, or a stale cache — and exits
    ``EXIT_INTEGRITY`` (8) so CI can gate on it.
    """
    import json as _json
    import pathlib

    from repro.harness.campaign import entry_fingerprint
    from repro.service.integrity import should_audit
    from repro.service.queue import configs_from_spec

    root = pathlib.Path(args.dir)
    try:
        manifest = _json.loads((root / "campaign.json").read_text())
    except (FileNotFoundError, _json.JSONDecodeError, OSError) as exc:
        print(f"audit: no readable campaign.json under {root}: {exc}",
              file=sys.stderr)
        return 2
    try:
        configs = {c.cache_key(): c
                   for c in configs_from_spec(manifest.get("spec") or {})}
    except (KeyError, TypeError, ValueError) as exc:
        print(f"audit: manifest has no runnable spec: {exc!r}",
              file=sys.stderr)
        return 2
    audited = mismatched = sampled_out = unreadable = 0
    for meta in manifest.get("points", ()):
        key = meta.get("key")
        config = configs.get(key)
        if not key or config is None:
            continue
        try:
            shard = _json.loads((root / f"{key}.json").read_text())
        except (FileNotFoundError, _json.JSONDecodeError, OSError):
            unreadable += 1
            continue
        entry = shard.get("entry")
        if shard.get("status") != "done" or not isinstance(entry, dict):
            continue
        if not should_audit(key, args.rate, args.seed):
            sampled_out += 1
            continue
        audited += 1
        fresh = entry_from_result(simulate(config))
        if entry_fingerprint(fresh) == entry_fingerprint(entry):
            if not args.quiet:
                print(f"audit: {key} ok")
        else:
            mismatched += 1
            print(f"audit: MISMATCH {key} "
                  f"({config.workload}/{config.engine}): stored entry "
                  f"does not reproduce", file=sys.stderr)
    print(f"audit: {audited} re-executed, {mismatched} mismatched, "
          f"{sampled_out} outside the sample, {unreadable} unreadable")
    return EXIT_INTEGRITY if mismatched else 0


def _cmd_stats(args) -> int:
    ocfg = ObserveConfig(profile=args.profile)
    cfg = RunConfig(workload=args.workload, engine=args.engine,
                    max_instructions=args.instructions, observe_config=ocfg)
    result = simulate(cfg)
    s = result.stats
    print(f"{args.workload} [{args.engine}]  {s.summary()}")
    print(f"\n== per-epoch timeseries "
          f"(every {result.obs.sampler.epoch_instructions:,} insts) ==")
    print(epoch_table(s.epochs))
    print("\n== counters ==")
    print(metrics_report(s.metrics, prefix=args.prefix))
    if args.profile:
        print("\n== simulator wall-clock by stage ==")
        print(result.obs.profiler.report())
    return 0


def _cmd_costs(args) -> int:
    print(cost_table())
    return 0


def _guard_phelps_config() -> PhelpsConfig:
    """Short-epoch config so Phelps actually deploys within a 30k-inst
    guard run (the default 4000-inst epochs under-train live-in analysis
    at that horizon)."""
    return PhelpsConfig(epoch_length=8000, min_iterations_per_visit=8)


def _cmd_guard(args) -> int:
    import dataclasses

    from repro.core import CoreConfig

    workloads = args.workloads or list(workload_names())

    if args.chaos:
        from repro.guard.chaos import run_chaos_suite

        report = run_chaos_suite(workloads, instructions=args.instructions,
                                 seed=args.seed)
        for case in report["cases"]:
            mark = "ok    " if case["outcome"] == "recovered" else "FAILED"
            line = f"  {mark} {case['fault']:20s} {case['workload']}"
            if case["error"]:
                line += f"  ({case['error']})"
            print(line)
        print(f"chaos: {len(report['cases'])} cases, "
              f"{report['failed']} failed (seed {report['seed']})")
        if args.bundle:
            atomic_write_json(args.bundle, report, indent=1, sort_keys=True,
                              default=str)
            print(f"  report -> {args.bundle}")
        return 0 if report["failed"] == 0 else 1

    engines = args.engines
    core_cfg = CoreConfig(guard_level=args.level,
                          guard_check_interval=args.interval)
    failures = 0
    pairs = [(w, e) for w in workloads for e in engines]
    with interrupt_guard():
        for i, (workload, engine) in enumerate(pairs):
            # SIGINT/SIGTERM stop the matrix between runs (exit 130 via
            # main()); completed rows have already been printed.
            poll_interrupt(done=i, total=len(pairs))
            phelps_cfg = (_guard_phelps_config()
                          if engine in ("phelps", "br", "br12", "br_nonspec")
                          else None)
            cfg = RunConfig(workload=workload, engine=engine,
                            max_instructions=args.instructions,
                            core=dataclasses.replace(core_cfg),
                            phelps_config=phelps_cfg, observe=True)
            # A guard error raised here propagates to main(), which maps
            # it to its exit code and writes --bundle if given.
            result = simulate(cfg)
            checked = int(result.stats.metrics.get("guard.checked", 0))
            sweeps = int(result.stats.metrics.get("guard.sweeps", 0))
            if checked == 0:
                print(f"  FAILED {workload}/{engine}: guard checked nothing",
                      file=sys.stderr)
                failures += 1
                continue
            print(f"  ok     {workload:12s} {engine:10s} "
                  f"{result.stats.retired:,} retired, {checked:,} checked"
                  + (f", {sweeps:,} invariant sweeps" if sweeps else ""))
    total = len(workloads) * len(engines)
    print(f"guard: {total} runs, {failures} failed "
          f"(level={args.level}, n={args.instructions:,})")
    return 0 if failures == 0 else 1


def _cmd_trace(args) -> int:
    from repro.core import Core, CoreConfig
    from repro.core.trace import PipelineTracer
    from repro.phelps import PhelpsEngine
    from repro.workloads import build_workload

    engine = PhelpsEngine(PhelpsConfig()) if args.engine == "phelps" else None
    core = Core(build_workload(args.workload), config=CoreConfig(), engine=engine)
    tracer = PipelineTracer(core)
    core.run(max_instructions=args.instructions)
    print(tracer.render(last=args.last))
    print(f"\navg fetch-to-retire latency: {tracer.average_latency():.1f} cycles, "
          f"{len(tracer.squashed())} squashed uops in window")
    return 0


def _cmd_inspect(args) -> int:
    from repro.core import Core, CoreConfig
    from repro.phelps import PhelpsEngine
    from repro.workloads import build_workload

    engine = PhelpsEngine(PhelpsConfig())
    core = Core(build_workload(args.workload), config=CoreConfig(), engine=engine)
    core.run(max_instructions=args.instructions)
    print(f"epochs: {engine.epoch_index}, activations: {engine.activations}")
    print(f"loop status: {engine.loop_status}")
    for start, row in engine.htc.rows.items():
        kind = "nested (OT+IT)" if row.is_nested else "inner-thread-only"
        print(f"\nHTC row @ {start:#x}: {kind}, {row.size} instructions, "
              f"{len(row.queue_assignment)} queues")
        for inst in (row.outer_insts + row.inner_insts)[:args.limit]:
            print(f"  {inst!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Phelps (HPCA 2025) reproduction: cycle-level simulation driver")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads").set_defaults(fn=_cmd_list)

    run = sub.add_parser("run", help="simulate one or more workloads on one engine")
    run.add_argument("workloads", nargs="+", metavar="workload")
    run.add_argument("--engine", default="baseline", choices=_ENGINE_CHOICES)
    run.add_argument("-n", "--instructions", type=int, default=100_000)
    run.add_argument("-j", "--jobs", type=int, default=None,
                     help="worker processes for multi-workload runs "
                          "(default: CPU count; 1 = serial in-process)")
    run.add_argument("-v", "--verbose", action="store_true")
    run.add_argument("--observe", action="store_true",
                     help="enable the observability layer (metrics registry, "
                          "epoch timeseries, event trace)")
    run.add_argument("--metrics-json", metavar="PATH",
                     help="write the metric snapshot + epoch timeseries as "
                          "JSON (implies --observe)")
    run.add_argument("--trace-out", metavar="PATH",
                     help="write a Chrome trace-event JSON (Perfetto-"
                          "loadable) of engine events + pipeline slices "
                          "(implies --observe)")
    run.add_argument("--profile", action="store_true",
                     help="attribute simulator wall-clock per pipeline "
                          "stage (implies --observe)")
    run.add_argument("--snapshot-interval", type=int, default=0,
                     metavar="N",
                     help="take a mid-run core snapshot every N retired "
                          "instructions (0 = off); with --snapshot-dir a "
                          "killed run resumes from its last snapshot")
    run.add_argument("--snapshot-dir", metavar="DIR", default=None,
                     help="snapshot shard store; rerunning the same config "
                          "against this directory resumes cycle-exactly "
                          "from the newest snapshot")
    run.set_defaults(fn=_cmd_run)

    stats = sub.add_parser(
        "stats", help="run one workload with full observability and "
                      "pretty-print counters + per-epoch timeseries")
    stats.add_argument("workload")
    stats.add_argument("--engine", default="phelps",
                       choices=["baseline", "perfbp", "phelps", "br",
                                "br_nonspec", "br12", "partition_only"])
    stats.add_argument("-n", "--instructions", type=int, default=100_000)
    stats.add_argument("--prefix", default="",
                       help="only show counters under this dotted prefix "
                            "(e.g. phelps.queues)")
    stats.add_argument("--profile", action="store_true")
    stats.set_defaults(fn=_cmd_stats)

    cmp_ = sub.add_parser("compare", help="run several engines on one workload")
    cmp_.add_argument("workload")
    cmp_.add_argument("--engines", nargs="+",
                      default=["baseline", "phelps", "perfbp"])
    cmp_.add_argument("-n", "--instructions", type=int, default=100_000)
    cmp_.set_defaults(fn=_cmd_compare)

    sweep = sub.add_parser(
        "sweep", help="workload x engine cross product with process-pool "
                      "fan-out, a sharded result cache, and a resumable "
                      "campaign journal",
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sweep.add_argument("-w", "--workloads", nargs="+", default=None,
                       help="workloads (required unless --resume)")
    sweep.add_argument("-e", "--engines", nargs="+", default=None,
                       choices=_ENGINE_CHOICES,
                       help="engines (required unless --resume)")
    sweep.add_argument("-n", "--instructions", type=int, default=None,
                       help="instructions per point (default 100000)")
    sweep.add_argument("--manifest", metavar="DIR", default=None,
                       help="write-ahead campaign journal directory: one "
                            "atomic status shard per point plus "
                            "campaign.json; a killed sweep resumes with "
                            "--resume DIR")
    sweep.add_argument("--resume", metavar="DIR", default=None,
                       help="resume the campaign journaled under DIR: "
                            "done points are skipped, points running at "
                            "the crash are requeued; results are "
                            "bit-identical to an uninterrupted sweep")
    sweep.add_argument("-j", "--jobs", type=int, default=None,
                       help="worker processes (default: CPU count; "
                            "1 = serial in-process)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-attempt timeout in seconds; a timed-out "
                            "attempt fails the point, which is retried "
                            "once before the sweep exits 5")
    sweep.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="sharded run cache directory (one JSON file per "
                            "run key, e.g. benchmarks/results/cache)")
    sweep.add_argument("-q", "--quiet", action="store_true",
                       help="suppress per-run progress lines")
    sweep.add_argument("--heartbeat-interval", type=float, default=1.0,
                       metavar="SEC",
                       help="worker progress-heartbeat cadence in seconds; "
                            "each heartbeat lands in the point's journal "
                            "shard, where 'repro watch DIR' reads it")
    sweep.set_defaults(fn=_cmd_sweep)

    watch = sub.add_parser(
        "watch", help="terminal dashboard tailing a campaign directory "
                      "(live heartbeats, stalled-worker flags, ETA)")
    watch.add_argument("dir", nargs="?", default=None,
                       help="campaign directory (the --manifest/"
                            "--resume DIR of a sweep)")
    watch.add_argument("--connect", metavar="URL", default=None,
                       help="watch a campaign-service campaign over HTTP "
                            "instead of a directory: its "
                            ".../campaigns/<id> URL")
    watch.add_argument("--interval", type=float, default=1.0,
                       help="refresh period in seconds")
    watch.add_argument("--once", action="store_true",
                       help="print one frame and exit (no screen clearing)")
    watch.add_argument("--limit", type=int, default=0,
                       help="truncate the point table to this many rows "
                            "(0 = all)")
    watch.set_defaults(fn=_cmd_watch)

    service = sub.add_parser(
        "service", help="campaign daemon: submit sweeps over HTTP, "
                        "executed by a leased multi-worker pool",
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    service.add_argument("--root", metavar="DIR", default="campaigns",
                         help="directory holding one campaign journal "
                              "subdirectory per submission")
    service.add_argument("--port", type=int, default=8330,
                         help="listen port (0 = ephemeral, printed at "
                              "start; a busy port degrades to ephemeral "
                              "with a log line)")
    service.add_argument("--host", default="127.0.0.1",
                         help="bind address (default loopback only)")
    service.add_argument("--workers", type=int, default=2,
                         help="in-daemon worker pool size (0 = rely on "
                              "external 'repro worker --connect' "
                              "processes)")
    service.add_argument("--lease-seconds", type=float, default=30.0,
                         help="how long a worker's claim on a point is "
                              "trusted without a renewal; the reaper "
                              "requeues points past this")
    service.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="sharded run cache: submissions dedupe "
                              "against it and workers publish into it")
    service.add_argument("--max-queued-points", type=int, default=100_000,
                         help="back-pressure bound: submissions past this "
                              "total queue depth get HTTP 429 + "
                              "Retry-After")
    service.add_argument("--max-active", type=int, default=4,
                         help="campaigns executing concurrently; the rest "
                              "queue in weighted-fair order")
    service.add_argument("--max-attempts", type=int, default=3,
                         help="per-point attempt cap for failed-point "
                              "retries (0 = no retries)")
    service.add_argument("--heartbeat-interval", type=float, default=1.0,
                         help="worker heartbeat/lease-renewal cadence")
    service.add_argument("--drain-seconds", type=float, default=30.0,
                         help="SIGTERM grace: stop offering work, wait "
                              "this long for leased points to land, "
                              "record the interruption, then exit")
    service.add_argument("--tenant", action="append", metavar="SPEC",
                         help="tenant policy name=weight[:max_leased], "
                              "repeatable (e.g. --tenant ci=2.0:4)")
    service.add_argument("--audit-rate", type=float, default=0.0,
                         help="fraction of completed points re-executed "
                              "on a different worker and fingerprint-"
                              "checked (0 = off, 1 = every point)")
    service.add_argument("--audit-seed", type=int, default=0,
                         help="seed for the deterministic audit sample")
    service.add_argument("--quarantine-threshold", type=float, default=5.0,
                         help="reputation score (weighted mismatches/"
                              "crashes/lease expiries) past which a "
                              "worker stops being offered work")
    service.add_argument("--poison-workers", type=int, default=3,
                         help="distinct workers that must fail a point "
                              "before it is terminally poisoned "
                              "(0 = never poison)")
    service.set_defaults(fn=_cmd_service)

    worker = sub.add_parser(
        "worker", help="pull-model campaign worker: claim leased points "
                       "from a campaign daemon over HTTP")
    worker.add_argument("--connect", metavar="URL", required=True,
                        help="campaign-service base URL to pull work from")
    worker.add_argument("--id", default=None,
                        help="worker id recorded in leases "
                             "(default: w<pid>)")
    worker.add_argument("--heartbeat-interval", type=float, default=1.0)
    worker.add_argument("--poll-interval", type=float, default=0.5,
                        help="idle wait after a /claim that got no work")
    worker.add_argument("--max-idle-polls", type=int, default=0,
                        help="exit after this many consecutive empty "
                             "polls (0 = poll forever)")
    worker.add_argument("--max-points", type=int, default=0,
                        help="exit after claiming this many points "
                             "(0 = unbounded)")
    worker.add_argument("--max-misses", type=int, default=0,
                        help="exit after this many consecutive failed "
                             "polls (0 = never: the circuit breaker "
                             "paces reconnection to a dead daemon)")
    worker.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="local run cache (workers never use the "
                             "daemon's filesystem; results still reach "
                             "the daemon's cache through POST /complete)")
    worker.add_argument("-q", "--quiet", action="store_true")
    worker.set_defaults(fn=_cmd_worker)

    audit = sub.add_parser(
        "audit", help="re-execute a seeded sample of a campaign's done "
                      "points and verify bit-identical fingerprints",
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    audit.add_argument("dir", help="campaign directory to audit")
    audit.add_argument("--rate", type=float, default=1.0,
                       help="fraction of done points to re-execute "
                            "(seeded, deterministic; default all)")
    audit.add_argument("--seed", type=int, default=0,
                       help="sample seed (same seed -> same sample)")
    audit.add_argument("-q", "--quiet", action="store_true",
                       help="only report mismatches and the summary")
    audit.set_defaults(fn=_cmd_audit)

    sample = sub.add_parser(
        "sample", help="sampled simulation: BBV profile -> k-means regions "
                       "-> checkpointed cycle-accurate runs")
    sample.add_argument("workload")
    sample.add_argument("--engine", default="baseline",
                        choices=_ENGINE_CHOICES)
    sample.add_argument("-n", "--instructions", type=int, default=100_000,
                        help="instructions to profile (the full-run length)")
    sample.add_argument("--interval", type=int, default=10_000,
                        help="BBV interval size in instructions")
    sample.add_argument("-k", "--clusters", type=int, default=4,
                        help="number of k-means clusters / regions")
    sample.add_argument("--seed", type=int, default=42,
                        help="clustering seed (projection + k-means++)")
    sample.add_argument("--warmup", type=int, default=2_000,
                        help="pre-region instructions replayed into the "
                             "branch predictor and caches at checkpoint boot")
    sample.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="checkpoint shard store (one JSON per region "
                             "start, e.g. benchmarks/results/checkpoints)")
    sample.add_argument("--validate", action="store_true",
                        help="also run the full program cycle-accurately "
                             "and report the sampled-vs-full IPC error")
    sample.add_argument("--report", metavar="PATH", default=None,
                        help="write the sampling (or validation) report "
                             "as JSON")
    sample.set_defaults(fn=_cmd_sample)

    perf = sub.add_parser(
        "perf", help="best-of-N wall-clock perf smoke, append-only perf "
                     "history, and noise-aware regression comparison",
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    perf.add_argument("--rounds", type=int, default=3)
    perf.add_argument("--out", metavar="PATH", default=None,
                      help="write the JSON perf record here")
    perf.add_argument("--sampling", action="store_true",
                      help="also measure sampled-vs-full wall-clock "
                           "speedup and IPC error on one workload")
    perf.add_argument("--record", action="store_true",
                      help="append this measurement to the perf history "
                           "(an immutable shard under --history-dir) and "
                           "mirror the newest record to BENCH_perf.json")
    perf.add_argument("--history-dir", metavar="DIR",
                      default="benchmarks/perf_history",
                      help="append-only perf-history directory")
    perf.add_argument("--compare", nargs="?", const="", metavar="BASE",
                      default=None,
                      help="compare two existing records without "
                           "simulating: BASE (or the second-newest "
                           "history shard) against --against (or the "
                           "newest); exits 7 on a same-host regression")
    perf.add_argument("--against", metavar="PATH", default=None,
                      help="the 'new' record for --compare (default: "
                           "newest history shard)")
    perf.add_argument("--margin", type=float, default=5.0,
                      help="regression margin in percent, added on top "
                           "of the measured best-of-N noise floor")
    perf.add_argument("--compare-out", metavar="PATH", default=None,
                      help="write the --compare delta report as JSON")
    perf.add_argument("--explain-skip", action="store_true",
                      help="run each perf point once and break down the "
                           "idle-skip economics (quiescence walks, "
                           "vetoes, bulk advances) instead of measuring")
    perf.add_argument("--min-cycles-per-sec", type=float, default=None,
                      metavar="FLOOR",
                      help="absolute speed floor: exit 7 if any measured "
                           "(or, with --compare, any 'new'-record) point "
                           "simulates fewer cycles per second than FLOOR")
    perf.set_defaults(fn=_cmd_perf)

    sub.add_parser("costs", help="print Table II").set_defaults(fn=_cmd_costs)

    guard = sub.add_parser(
        "guard",
        help="simulation health: golden-model guard runs and the "
             "fault-injection chaos suite",
        description="Run workloads under the golden-model co-simulation "
                    "guard (and, at --level full, the cycle-level invariant "
                    "sanitizer), or inject the chaos-suite fault classes "
                    "and check every one recovers or fails fast typed.",
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    guard.add_argument("-w", "--workloads", nargs="+", default=None,
                       help="workloads to run (default: all registry "
                            "workloads)")
    guard.add_argument("--engines", nargs="+",
                       default=["baseline", "phelps"],
                       choices=_ENGINE_CHOICES,
                       help="engines for guard runs (default: baseline "
                            "and phelps)")
    guard.add_argument("--matrix", action="store_true",
                       help="alias for the acceptance matrix: all registry "
                            "workloads x default engines (same as passing "
                            "no -w)")
    guard.add_argument("--chaos", action="store_true",
                       help="run the fault-injection chaos suite instead "
                            "of guard runs")
    guard.add_argument("--level", default="commit",
                       choices=["commit", "full"],
                       help="guard level: 'commit' checks every retired "
                            "main-thread uop against the oracle; 'full' "
                            "adds the per-cycle invariant sanitizer")
    guard.add_argument("--interval", type=int, default=1,
                       help="invariant-sweep interval in cycles "
                            "(level=full only)")
    guard.add_argument("-n", "--instructions", type=int, default=30_000)
    guard.add_argument("--seed", type=int, default=1,
                       help="chaos-suite injection seed (deterministic "
                            "replay)")
    guard.add_argument("--bundle", metavar="PATH", default=None,
                       help="on guard failure, write the diagnostic bundle "
                            "JSON here; with --chaos, write the full suite "
                            "report")
    guard.set_defaults(fn=_cmd_guard)

    trace = sub.add_parser("trace", help="pipeline-trace a short run")
    trace.add_argument("workload")
    trace.add_argument("--engine", default="baseline",
                       choices=["baseline", "phelps"])
    trace.add_argument("-n", "--instructions", type=int, default=2000)
    trace.add_argument("--last", type=int, default=40)
    trace.set_defaults(fn=_cmd_trace)

    ins = sub.add_parser("inspect", help="show the helper thread Phelps builds")
    ins.add_argument("workload")
    ins.add_argument("-n", "--instructions", type=int, default=80_000)
    ins.add_argument("--limit", type=int, default=40)
    ins.set_defaults(fn=_cmd_inspect)
    return p


def _write_bundle(args, doc: dict) -> None:
    path = getattr(args, "bundle", None)
    if not path:
        return
    atomic_write_json(path, doc, indent=1, sort_keys=True, default=str)
    print(f"diagnostic bundle -> {path}", file=sys.stderr)


def main(argv=None) -> int:
    from repro.guard.errors import (DivergenceError, InvariantViolation,
                                    SimulationHang)
    from repro.harness.parallel import SimulationFailed, SweepInterrupted

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SweepInterrupted as exc:
        print(f"INTERRUPTED: {exc}; completed results were flushed "
              f"(resume a journaled sweep with --resume)", file=sys.stderr)
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        print("INTERRUPTED", file=sys.stderr)
        return EXIT_INTERRUPTED
    except SimulationHang as exc:
        print(f"HANG: {exc}", file=sys.stderr)
        _write_bundle(args, exc.report.to_dict())
        return EXIT_HANG
    except DivergenceError as exc:
        print(f"DIVERGENCE: {exc}", file=sys.stderr)
        _write_bundle(args, exc.report.to_dict())
        return EXIT_DIVERGENCE
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
        _write_bundle(args, exc.report.to_dict())
        return EXIT_INVARIANT
    except SimulationFailed as exc:
        print(f"WORKER FAILURE: {exc}", file=sys.stderr)
        _write_bundle(args, {"failures": [
            {"index": i, "workload": c.workload, "engine": c.engine,
             "error": err} for i, c, err in exc.failures]})
        return EXIT_WORKER_FAILURE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
