import dataclasses

import pytest

from repro.core import CoreConfig
from repro.harness import RunConfig, ascii_table, format_series, simulate, speedup
from repro.harness.simulator import _widened_core
from repro.phelps import PhelpsConfig


class TestRunConfig:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RunConfig(workload="astar", engine="magic")

    def test_widened_core_is_wider(self):
        base = CoreConfig()
        wide = _widened_core(base)
        assert wide.fetch_width == 12
        assert wide.rob_size == 2 * base.rob_size
        assert wide.lanes_simple == base.lanes_simple + 2


class TestSimulate:
    @pytest.fixture(scope="class")
    def small(self):
        # Tiny runs: the harness plumbing is under test, not the results.
        return dict(max_instructions=15_000)

    def test_baseline_runs(self, small):
        r = simulate(RunConfig(workload="perlbench", engine="baseline", **small))
        assert r.stats.retired >= 15_000 or r.stats.halted
        assert r.ipc > 0
        assert r.wall_seconds > 0

    def test_perfbp_has_no_mispredicts(self, small):
        r = simulate(RunConfig(workload="perlbench", engine="perfbp", **small))
        assert r.stats.mispredicts == 0

    def test_partition_only_is_slower(self, small):
        base = simulate(RunConfig(workload="exchange2", engine="baseline", **small))
        part = simulate(RunConfig(workload="exchange2", engine="partition_only", **small))
        assert part.cycles > base.cycles

    def test_phelps_engine_attached(self, small):
        cfg = RunConfig(workload="perlbench", engine="phelps",
                        phelps_config=PhelpsConfig(epoch_length=4000), **small)
        r = simulate(cfg)
        assert "epochs" in r.stats.engine

    def test_br_engine_attached(self, small):
        r = simulate(RunConfig(workload="perlbench", engine="br", **small))
        assert "rollbacks" in r.stats.engine


class TestReporting:
    def test_speedup_is_an_instruction_rate_ratio(self):
        base = {"retired": 1000, "cycles": 2000}
        assert speedup({"retired": 1000, "cycles": 1000}, base) == 2.0
        # Slightly different retire counts compare by rate, not cycles.
        assert speedup({"retired": 900, "cycles": 900}, base) == 2.0

    def test_speedup_over_a_baseline_that_retired_nothing_is_none(self):
        empty = {"retired": 0, "cycles": 0}
        assert speedup({"retired": 10, "cycles": 5}, empty) is None
        assert speedup(empty, empty) is None

    def test_ascii_table_alignment(self):
        t = ascii_table(["name", "value"], [["a", 1.5], ["long-name", 2]])
        lines = t.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "1.500" in t

    def test_format_series(self):
        s = format_series("phelps", {"bfs": 1.64, "bc": 1.63})
        assert s.startswith("phelps:")
        assert "bfs=1.640" in s

    def test_bar_scales_and_clamps(self):
        from repro.harness.reporting import bar

        assert bar(1.0, scale=10, maximum=2.0) == "#" * 5
        assert bar(-1.0) == ""
        assert len(bar(100.0, scale=10, maximum=2.0)) == 20  # clamped
