"""The PreExecutionEngine contract: the NullEngine must be a true no-op,
and every hook the pipeline calls must exist with a safe default."""

from repro.core import Core, CoreConfig, NullEngine, PreExecutionEngine
from repro.core.engine_api import PreExecutionEngine as Base
from repro.isa import Assembler
from repro.memory import MemoryConfig


def _tiny_program():
    a = Assembler()
    a.li("x1", 1)
    a.li("x2", 2)
    a.add("x3", "x1", "x2")
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
        e = NullEngine()
        core = Core(_tiny_program(), engine=e)
        assert e.core is core


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
        """The core skips the no-op ``note_fetched``, but a wrapper put on
        the engine instance after the core is built (a profiler, a
        tracer) still sees every fetched uop."""
        core = Core(_tiny_program(), config=CoreConfig().scaled())
        fetched = []
        core.engine.note_fetched = lambda thread, uop: fetched.append(uop.pc)
        core.run()
        assert fetched[:4] == [0x1000, 0x1004, 0x1008, 0x100c]
