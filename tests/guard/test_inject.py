"""Fault injection: every fault class recovers (or fails fast typed).

Engine faults run under the golden-model guard so "recovered" means
*architecturally correct*, not merely "did not crash"; storage faults
must quarantine and heal; worker faults must retry with provenance.
"""

import pytest

import repro.harness.parallel as parallel
from repro.core import Core, CoreConfig
from repro.core.thread import ThreadKind
from repro.core.uop import Uop
from repro.guard.inject import (FaultInjector, corrupt_dbt,
                                corrupt_prediction_queues, truncate_file,
                                worker_fault_env)
from repro.harness import CampaignJournal, SimulationFailed, run_campaign
from repro.harness.runcache import RunCache, entry_from_result
from repro.harness.simulator import RunConfig, simulate
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.phelps import PhelpsConfig, PhelpsEngine
from repro.phelps.htc import HelperThreadRow
from repro.workloads import build_workload

# Deploys a helper within a test-sized run (see tests/phelps integration).
_PHELPS = dict(epoch_length=8000, min_iterations_per_visit=8)


def _guarded_phelps_core(workload, injector_wiring, seed=3):
    engine = PhelpsEngine(PhelpsConfig(**_PHELPS))
    injector = FaultInjector(seed)
    injector_wiring(engine, injector)
    core = Core(build_workload(workload),
                config=CoreConfig(guard_level="commit"), engine=engine)
    return core, engine, injector


# ----------------------------------------------------------------------
# Engine faults: Phelps degrades, architecture stays correct.
# ----------------------------------------------------------------------
def test_queue_flip_recovers_architecturally():
    core, engine, injector = _guarded_phelps_core(
        "astar", lambda e, i: corrupt_prediction_queues(e, i, rate=0.25,
                                                        mode="flip"))
    stats = core.run(max_instructions=25_000)
    assert engine.activations >= 1          # the helper really deployed
    assert injector.count("queue_flip") > 0  # faults really fired
    assert stats.retired >= 25_000          # and the run still completed
    # The guard replayed every commit: wrong predictions never became
    # wrong architectural state.
    assert core.guard.checked == stats.retired


def test_queue_drop_recovers_architecturally():
    core, engine, injector = _guarded_phelps_core(
        "astar", lambda e, i: corrupt_prediction_queues(e, i, rate=0.25,
                                                        mode="drop"))
    stats = core.run(max_instructions=25_000)
    assert injector.count("queue_drop") > 0
    assert core.guard.checked == stats.retired
    # Dropped deposits surface as not-timely consumes, not as wrongness.
    assert engine.queues.stats()["not_timely"] > 0


def test_dbt_flip_recovers_architecturally():
    core, engine, injector = _guarded_phelps_core(
        "astar", lambda e, i: corrupt_dbt(e, i, rate=0.2))
    stats = core.run(max_instructions=25_000)
    assert injector.count("dbt_flip") > 0
    assert core.guard.checked == stats.retired


# ----------------------------------------------------------------------
# Desync drain: unit-level, one retire call.
# ----------------------------------------------------------------------
class _FakeThread:
    def __init__(self, kind):
        self.kind = kind


class _FakeMain:
    retired = 0
    wait_for_moves = False


class _FakeCore:
    cycle = 0

    def __init__(self):
        self.squashes = 0
        self.mode = None
        self.main = _FakeMain()

    def full_squash(self):
        self.squashes += 1

    def remove_helper_threads(self):
        pass

    def set_partition_mode(self, mode):
        self.mode = mode


def test_desync_drained_within_one_retire():
    """A wrong consumed prediction on the loop branch terminates the
    helper and drains the stale queue state in the *same* retire — the
    paper's one-loop-iteration desync bound."""
    e = PhelpsEngine(PhelpsConfig(queue_depth=8))
    e.core = _FakeCore()
    e.active_row = HelperThreadRow(start_pc=0x1000, loop_branch=0x1100,
                                   loop_target=0x1000)
    e.queues.configure({0x1100: 0})
    for _ in range(3):                       # stale helper deposits
        e.queues.deposit(0x1100, True)
        e.queues.advance_tail(0)

    inst = Instruction(opcode=Opcode.BLT, rs1=1, rs2=2, imm=0x1000, pc=0x1100)
    uop = Uop(inst, 1, 0, 0)
    uop.taken = False
    uop.queue_token = (0x1100, 0, True)      # consumed predicted-taken

    e.on_retire(_FakeThread(ThreadKind.MAIN), uop)

    assert e.desync_terminations == 1
    assert e.active_row is None              # helper gone
    assert not e.queues.active               # stale predictions drained
    assert e.core.squashes == 1              # helper uops squashed out
    assert e.core.mode == "MT_ONLY"


# ----------------------------------------------------------------------
# Storage faults: quarantine + heal.
# ----------------------------------------------------------------------
def test_runcache_truncate_quarantines_and_heals(tmp_path):
    cache = RunCache(tmp_path)
    cfg = RunConfig(workload="astar", max_instructions=1200)
    entry = entry_from_result(simulate(cfg))
    cache.put(cfg, entry)

    removed = truncate_file(cache.path_for(cfg))
    assert removed > 0
    assert cache.get(cfg) is None            # miss, not a crash
    assert cache.quarantined == 1
    corrupt = cache.path_for(cfg).with_suffix(".json.corrupt")
    assert corrupt.exists()                  # bytes kept for post-mortem

    cache.put(cfg, entry)                    # heal
    assert cache.get(cfg) == entry
    assert corrupt.exists()                  # quarantine survives the heal


def test_checkpoint_truncate_quarantines_and_heals(tmp_path):
    from repro.sampling.checkpoint import CheckpointStore, capture_checkpoint

    store = CheckpointStore(tmp_path)
    before = capture_checkpoint("astar", 2000, 500, store=store)
    truncate_file(store.path_for("astar", 2000, 500))

    healed = capture_checkpoint("astar", 2000, 500, store=store)
    assert store.quarantined == 1
    assert store.path_for("astar", 2000, 500).with_suffix(
        ".json.corrupt").exists()
    assert (healed.pc, healed.regs, healed.mem) == (before.pc, before.regs,
                                                    before.mem)
    assert store.get("astar", 2000, 500) is not None


# ----------------------------------------------------------------------
# Worker faults: retry with journaled provenance.
# ----------------------------------------------------------------------
def _worker_configs():
    return [RunConfig(workload="astar", max_instructions=800),
            RunConfig(workload="bfs", max_instructions=800)]


def _require_fork():
    if parallel.mp.get_start_method() != "fork":
        pytest.skip("worker fault env requires fork start method")


def _shards(journal):
    return [journal.read_point(c.cache_key()) for c in _worker_configs()]


def test_worker_kill_retried_with_provenance(tmp_path):
    _require_fork()
    journal = CampaignJournal(tmp_path / "camp")
    with worker_fault_env("kill", [0]):
        entries = run_campaign(_worker_configs(), journal=journal, jobs=2)
    faulted, clean = _shards(journal)
    assert faulted["attempts_taken"] == 2
    assert "exited" in faulted["last_error"]
    assert faulted["failed_workers"] == [faulted["failed_by"]]
    # The retry's result is real.
    assert entries[faulted["key"]]["retired"] >= 800
    assert clean["attempts_taken"] == 1 and "last_error" not in clean


def test_worker_hang_reaped_by_timeout(tmp_path):
    _require_fork()
    journal = CampaignJournal(tmp_path / "camp")
    with worker_fault_env("hang", [0], hang_seconds=60.0):
        entries = run_campaign(_worker_configs(), journal=journal, jobs=2,
                               timeout=1.0)
    faulted, _ = _shards(journal)
    assert faulted["attempts_taken"] == 2
    assert "timeout" in faulted["last_error"]
    assert entries[faulted["key"]]["retired"] >= 800


def test_worker_fault_exhausting_retries_fails_fast(tmp_path):
    _require_fork()
    journal = CampaignJournal(tmp_path / "camp")
    with worker_fault_env("kill", [0], max_attempt=10):
        with pytest.raises(SimulationFailed) as exc:
            run_campaign(_worker_configs(), journal=journal, jobs=2)
    [(index, cfg, error)] = exc.value.failures
    assert index == 0 and "exited" in error
    faulted, clean = _shards(journal)
    assert faulted["status"] == "failed" and faulted["attempts"] == 2
    assert "exited" in faulted["error"]
    assert clean["status"] == "done"
