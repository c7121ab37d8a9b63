"""Ownership: a finished simulation frees itself by reference counting.

The core owns everything under it (threads, engine, guard, caches,
predictor); whatever points back up to the core holds a weak proxy, and
the thread memory hooks are closures over ``Core.mem``, which is never
rebound.  So the last user dropping a core (or its ``SimResult``) frees
the whole machine at once, with the cyclic collector switched off, and
leaves no cyclic garbage behind.  A kept ``SimResult.obs`` answers from
the values its providers read at the end of the run, and holds neither
the engine nor the guard.
"""

import contextlib
import gc
import weakref

import pytest

from repro.core import CoreConfig
from repro.core.snapshot import load_state
from repro.harness import simulator
from repro.harness.simulator import RunConfig
from repro.isa import Assembler
from repro.obs import ObserveConfig

from tests.core.conftest import arch_reg, small_core

N = 3000

CONFIGS = {
    "baseline": RunConfig(workload="astar", max_instructions=N),
    "perfbp": RunConfig(workload="astar", engine="perfbp",
                        max_instructions=N),
    "br": RunConfig(workload="astar", engine="br", max_instructions=N),
    "phelps-observe": RunConfig(workload="astar", engine="phelps",
                                max_instructions=N, observe=True),
    "guard-commit": RunConfig(workload="astar", max_instructions=N,
                              core=CoreConfig(guard_level="commit")),
}


@contextlib.contextmanager
def no_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _simulate_tracking(config, monkeypatch, part=lambda core: core):
    """``simulate(config)`` plus a weak reference to the core it built
    (or to ``part(core)``)."""
    refs = []
    build = simulator._build_core

    def tracking(cfg):
        core, obs, program = build(cfg)
        refs.append(weakref.ref(part(core)))
        return core, obs, program

    monkeypatch.setattr(simulator, "_build_core", tracking)
    result = simulator.simulate(config)
    return result, refs[0]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_dropped_result_frees_its_core(name, monkeypatch):
    with no_collector():
        result, ref = _simulate_tracking(CONFIGS[name], monkeypatch)
        assert result.stats.retired > 0
        # A held result holds no core: the core died when simulate()
        # returned, observability or not.
        assert ref() is None
        del result


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_run_leaves_no_cyclic_garbage(name):
    simulator.simulate(CONFIGS[name])  # warm: lazy imports, caches
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with no_collector():
            simulator.simulate(CONFIGS[name])
        gc.collect()
        ours = [o for o in gc.garbage
                if type(o).__module__.startswith("repro")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert ours == []


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_core_built_and_dropped_without_running_is_freed(name):
    with no_collector():
        core, obs, _ = simulator._build_core(CONFIGS[name])
        ref = weakref.ref(core)
        del core
        assert ref() is None


def test_kept_obs_answers_after_the_core_is_freed(monkeypatch):
    config = RunConfig(workload="astar", engine="phelps", max_instructions=N,
                       observe_config=ObserveConfig(epoch_instructions=1000))
    with no_collector():
        result, ref = _simulate_tracking(config, monkeypatch)
    assert ref() is None
    obs, stats = result.obs, result.stats
    snap = obs.registry.snapshot()
    assert snap["core.cycles"] == stats.cycles
    assert snap["core.retired"] == stats.retired
    assert snap == stats.metrics
    assert any(name.startswith("memory.") for name in snap)
    assert obs.sampler.to_list() == stats.epochs
    assert obs.events.emitted > 0 and obs.events.events()
    trace = obs.chrome_trace()
    assert trace and all("ph" in e for e in trace)


# Observed runs whose engine or guard registers metric providers.
KEPT_OBS = {
    "engine": CONFIGS["phelps-observe"],
    "guard": RunConfig(workload="astar", max_instructions=N, observe=True,
                       core=CoreConfig(guard_level="commit")),
}


@pytest.mark.parametrize("part", sorted(KEPT_OBS))
def test_kept_obs_holds_no_engine_or_guard(part, monkeypatch):
    with no_collector():
        result, ref = _simulate_tracking(
            KEPT_OBS[part], monkeypatch,
            part=lambda core: getattr(core, part))
        # The core died when simulate() returned; its engine (with the
        # Phelps tables) and its guard (with the golden memory image)
        # died with it, though the result keeps its metrics registry.
        assert ref() is None
    snap = result.obs.registry.snapshot()
    assert snap == result.stats.metrics
    assert any(name.startswith(part + ".") for name in snap)
    if part == "guard":
        assert snap["guard.checked"] == result.stats.retired > 0


def _load_program():
    """x2 = mem[v]; halt."""
    a = Assembler()
    v = a.data("v", [5])
    a.li("x1", v)
    a.ld("x2", "x1", 0)
    a.halt()
    return a.build(), v


def test_boot_state_memory_reaches_the_thread_hooks():
    program, v = _load_program()
    core = small_core(program)
    hook = core.main.read_value
    core.boot_state([0] * 32, {v: 41}, program.entry)
    assert hook(v) == 41
    helper = core.add_helper_thread(core.main.kind, core.main.fetch, "MT")
    assert helper.read_value(v) == 41
    core.remove_helper_threads()
    core.run()
    assert arch_reg(core, 2) == 41


def test_snapshot_restore_memory_reaches_the_thread_hooks():
    program, v = _load_program()
    donor = small_core(program)
    donor.main.commit_store(v, 77)  # a retired store's effect
    state = load_state(donor.snapshot())
    core = small_core(program)
    hook = core.main.read_value
    core.restore(state)
    assert hook(v) == 77
    core.run()
    assert arch_reg(core, 2) == 77
