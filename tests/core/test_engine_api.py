"""The PreExecutionEngine contract: the NullEngine must be a true no-op,
and every hook the pipeline calls must exist with a safe default."""

import weakref

from repro.core import Core, CoreConfig, NullEngine, PreExecutionEngine
from repro.core.engine_api import PreExecutionEngine as Base
from repro.isa import Assembler
from repro.memory import MemoryConfig
from repro.phelps import PhelpsConfig, PhelpsEngine

# The hooks the core binds per run() instead of looking up per uop.
RESOLVED_HOOKS = ("fetch_override", "note_fetched", "checkpoint",
                  "on_squash", "retire_blocked", "on_retire")


def _tiny_program():
    a = Assembler()
    a.li("x1", 1)
    a.li("x2", 2)
    a.add("x3", "x1", "x2")
    a.halt()
    return a.build()


def _loop_program():
    """A counted loop: conditional branches to predict, and a loop exit
    that mispredicts and squashes."""
    a = Assembler()
    a.li("x1", 0)
    a.li("x2", 40)
    a.label("loop")
    a.addi("x1", "x1", 1)
    a.blt("x1", "x2", "loop")
    a.halt()
    return a.build()


class TestNullEngine:
    def test_defaults_are_safe(self):
        e = NullEngine()
        assert e.fetch_override(None, None) is None
        assert e.checkpoint() is None
        assert e.retire_blocked(None, None) is False
        assert e.stats() == {}
        # No-ops must not raise.
        e.restore(None)
        e.note_fetched(None, None)
        e.note_refetched(None, None)
        e.on_squash(None, None)
        e.on_retire(None, None)
        e.on_cycle(0)
        e.on_helper_branch_mispredicted(None, None)

    def test_core_without_engine_uses_null(self):
        core = Core(_tiny_program())
        assert isinstance(core.engine, Base)
        stats = core.run()
        assert stats.halted

    def test_attach_stores_core_reference(self):
        # A weak proxy, not the core itself: the core owns the engine.
        e = NullEngine()
        core = Core(_tiny_program(), engine=e)
        assert isinstance(e.core, weakref.ProxyType)
        assert e.core in weakref.getweakrefs(core)
        assert e.core.engine is e and e.core.main is core.main


class RecordingEngine(PreExecutionEngine):
    def __init__(self):
        self.events = []

    def note_fetched(self, thread, uop):
        self.events.append(("fetch", uop.pc))

    def on_retire(self, thread, uop):
        self.events.append(("retire", uop.pc))

    def on_cycle(self, cycle):
        pass


class TestHookDelivery:
    def test_fetch_and_retire_hooks_fire_in_order(self):
        e = RecordingEngine()
        core = Core(_tiny_program(), config=CoreConfig().scaled(),
                    mem_config=MemoryConfig(enable_l1_prefetcher=False,
                                            enable_l2_prefetcher=False),
                    engine=e)
        core.run()
        fetched = [pc for kind, pc in e.events if kind == "fetch"]
        retired = [pc for kind, pc in e.events if kind == "retire"]
        assert retired == [0x1000, 0x1004, 0x1008, 0x100c]
        # Every retired instruction was fetched first.
        assert set(retired) <= set(fetched)

    def test_hook_wrapped_after_construction_is_called(self):
        """The core resolves its per-uop engine hooks once per ``run()``,
        skipping the no-op defaults, but a wrapper put on the engine
        instance after the core is built (a profiler, a tracer) is still
        called: for every resolved hook, on a null-engine core and on a
        Phelps core, without changing the run."""
        for make_engine in (NullEngine, lambda: PhelpsEngine(PhelpsConfig())):
            plain = Core(_loop_program(), config=CoreConfig().scaled(),
                         engine=make_engine()).run()
            core = Core(_loop_program(), config=CoreConfig().scaled(),
                        engine=make_engine())
            calls = {name: [] for name in RESOLVED_HOOKS}
            for name in RESOLVED_HOOKS:
                def wrapper(*args, _orig=getattr(core.engine, name),
                            _seen=calls[name]):
                    _seen.append(args)
                    return _orig(*args)
                setattr(core.engine, name, wrapper)
            stats = core.run()
            assert stats.halted and stats.cycles == plain.cycles
            assert stats.retired == plain.retired
            missed = [name for name, seen in calls.items() if not seen]
            assert not missed, (make_engine, missed)
            fetched = [uop.pc for _, uop in calls["note_fetched"]]
            assert fetched[:3] == [0x1000, 0x1004, 0x1008]
