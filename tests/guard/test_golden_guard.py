"""Golden-model co-simulation guard: clean runs, seeded divergences, and
the cycle-level invariant sanitizer."""

import dataclasses
import json

import pytest

from repro.core import Core, CoreConfig
from repro.guard.errors import DivergenceError, InvariantViolation
from repro.harness.simulator import RunConfig, simulate
from repro.memory import MemoryConfig
from repro.phelps import PhelpsConfig, PhelpsEngine
from repro.workloads import build_workload

# Short-epoch config so Phelps deploys a helper inside a test-sized run.
_PHELPS = dict(epoch_length=8000, min_iterations_per_visit=8)


@pytest.mark.parametrize("workload", ["astar", "bfs", "sssp"])
@pytest.mark.parametrize("engine", ["baseline", "phelps"])
def test_guard_clean_runs(workload, engine):
    cfg = RunConfig(workload=workload, engine=engine, max_instructions=8000,
                    core=CoreConfig(guard_level="commit"),
                    phelps_config=PhelpsConfig(**_PHELPS)
                    if engine == "phelps" else None,
                    observe=True)
    result = simulate(cfg)
    # Every retired main-thread instruction was replayed on the oracle.
    assert result.stats.metrics["guard.checked"] == result.stats.retired
    assert result.stats.metrics["guard.sweeps"] == 0  # commit level: no sweeps


def test_full_level_sweeps_clean():
    cfg = RunConfig(workload="astar", max_instructions=4000,
                    core=CoreConfig(guard_level="full",
                                    guard_check_interval=16),
                    observe=True)
    result = simulate(cfg)
    assert result.stats.metrics["guard.checked"] == result.stats.retired
    assert result.stats.metrics["guard.sweeps"] > 0


# 400-cycle DRAM and no prefetchers: most fetched work is wrong-path, so
# squashes (and the LSQ suffix cuts they make) are frequent.
_SLOW_DRAM = MemoryConfig(dram_latency=400, enable_l1_prefetcher=False,
                          enable_l2_prefetcher=False)


def test_full_level_sweeps_clean_under_frequent_squashes():
    cfg = RunConfig(workload="sssp", max_instructions=3000,
                    core=CoreConfig(guard_level="full"), memory=_SLOW_DRAM,
                    observe=True)
    result = simulate(cfg)
    assert result.stats.metrics["guard.checked"] == result.stats.retired
    assert result.stats.metrics["guard.sweeps"] > 0
    assert result.stats.mispredicts > 50


def test_squashed_load_left_in_lq_detected():
    core = Core(build_workload("sssp"), config=CoreConfig(guard_level="full"),
                mem_config=_SLOW_DRAM)
    squash = core._squash_thread
    leaked = []

    def leaky_squash(thread, cutoff_seq):
        squashed = squash(thread, cutoff_seq)
        # A renamed load came out of the ROB: put it back in the LQ.
        load = next((u for u in squashed if u.inst.is_load and u.phys_srcs),
                    None)
        if load is not None and not leaked:
            leaked.append(load)
            thread.lq.entries.append(load)
        return squashed

    core._squash_thread = leaky_squash
    with pytest.raises(InvariantViolation) as exc:
        core.run(max_instructions=3000)
    assert leaked
    assert any("LQ is not the ROB's loads" in v
               for v in exc.value.report.violations)


def test_guard_off_is_absent():
    core = Core(build_workload("astar"))
    assert core.guard is None
    assert core._sanitizer is None


def test_commit_level_has_no_sanitizer():
    core = Core(build_workload("astar"),
                config=CoreConfig(guard_level="commit"))
    assert core.guard is not None
    assert core._sanitizer is None


def test_divergence_detected_and_reported():
    core = Core(build_workload("astar"),
                config=CoreConfig(guard_level="commit"))
    # Desync the oracle: the first retired uop must trip the PC compare.
    core.guard.golden.pc += 4
    with pytest.raises(DivergenceError) as exc:
        core.run(max_instructions=2000)
    report = exc.value.report
    assert report.kind == "pc"
    assert report.checked == 0
    assert report.threads and report.threads[0]["kind"] == "MT"
    # The bundle is the CLI's JSON artifact: it must serialize as-is.
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["failure"] == "divergence"
    assert doc["kind"] == "pc"


def test_value_divergence_detected():
    core = Core(build_workload("astar"),
                config=CoreConfig(guard_level="commit"))
    # Let the run start cleanly, then skew the oracle's view of the first
    # memory access past instruction 100: the guard must catch the value
    # disagreement at that exact instruction.
    orig_step = core.guard.golden.step
    poisoned = []

    def poisoned_step():
        res = orig_step()
        if not poisoned and core.guard.checked >= 100 \
                and res.mem_value is not None:
            poisoned.append(True)
            res = dataclasses.replace(res, mem_value=res.mem_value + 1)
        return res

    core.guard.golden.step = poisoned_step
    with pytest.raises(DivergenceError) as exc:
        core.run(max_instructions=20_000)
    assert exc.value.report.kind in ("load_value", "store_value")
    assert exc.value.report.checked >= 100


def test_invariant_violation_detected():
    core = Core(build_workload("astar"),
                config=CoreConfig(guard_level="full"))
    assert core.guard.check_invariants() == []  # healthy at boot
    # Double-free one physical register: both the duplicate check and the
    # leak equation must notice on the first sweep.
    core.pool._stack.append(core.pool._stack[0])
    core.pool._top += 1
    with pytest.raises(InvariantViolation) as exc:
        core.run(max_instructions=2000)
    report = exc.value.report
    assert any("duplicate" in v for v in report.violations)
    assert json.loads(json.dumps(report.to_dict()))["failure"] == "invariant"


def test_engine_queue_invariant():
    engine = PhelpsEngine(PhelpsConfig())
    core = Core(build_workload("astar"), config=CoreConfig(guard_level="full"),
                engine=engine)
    engine.queues.configure({0x1050: 0})
    # Retired iteration ahead of the fetched iteration is impossible in
    # hardware: the sanitizer must flag it.
    engine.queues.advance_tail(0)
    engine.queues.advance_head(0)
    violations = core.guard.check_invariants()
    assert any("head iteration" in v for v in violations)


def test_guard_boots_from_checkpoint(tmp_path):
    cfg = RunConfig(workload="astar", max_instructions=3000,
                    start_instruction=5000, warmup_instructions=500,
                    checkpoint_dir=str(tmp_path),
                    core=CoreConfig(guard_level="commit"),
                    observe=True)
    result = simulate(cfg)
    # The golden model adopted the same checkpoint as the core: lockstep
    # holds mid-program, not just from instruction 0.
    assert result.stats.metrics["guard.checked"] == result.stats.retired
    assert result.stats.retired >= 3000
