import dataclasses
import json

import pytest

from repro.cli import EXIT_DIVERGENCE, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "astar"])
        assert args.workload == "astar"
        assert args.engine == "baseline"
        assert args.instructions == 100_000

    @pytest.mark.parametrize("argv", [["run", "astar", "bfs"],
                                      ["run", "astar", "--jobs", "2"],
                                      ["compare", "astar"]])
    def test_multi_point_runs_are_sweeps(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "astar", "--engine", "wat"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "astar" in out and "bfs" in out

    def test_costs(self, capsys):
        assert main(["costs"]) == 0
        out = capsys.readouterr().out
        assert "10.82" in out and "DBT" in out

    def test_run_small(self, capsys):
        assert main(["run", "perlbench", "-n", "8000"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "MPKI" in out

    def test_sweep_engine_table(self, capsys):
        assert main(["sweep", "-w", "perlbench", "-e", "baseline", "perfbp",
                     "-n", "8000", "-j", "1", "-q"]) == 0
        lines = capsys.readouterr().out.splitlines()
        head = next(i for i, line in enumerate(lines)
                    if line.startswith("workload"))
        assert lines[head].split() == ["workload", "engine", "IPC", "MPKI",
                                       "cycles", "speedup"]
        rows = {cells[1]: cells for cells in
                (line.split() for line in lines[head + 2:])}
        assert set(rows) == {"baseline", "perfbp"}
        assert rows["baseline"][5] == "1.000"
        assert float(rows["perfbp"][5]) >= 0.9
        assert float(rows["perfbp"][3]) == 0.0  # perfect prediction

    def test_sweep_zero_baseline_speedup_is_na(self, capsys, monkeypatch):
        """Speedups are against each workload's first engine; a baseline
        that retired nothing in zero cycles gives ``n/a``."""
        from repro import cli

        calls = []

        def fake(configs, **kwargs):
            calls.append([(c.workload, c.engine) for c in configs])
            return {c.cache_key(): {"retired": 0, "cycles": 0, "ipc": 0.0,
                                    "mpki": 0.0} for c in configs}

        monkeypatch.setattr(cli, "run_campaign", fake)
        assert main(["sweep", "-w", "astar", "-e", "baseline", "phelps",
                     "-n", "5", "-q"]) == 0
        assert calls == [[("astar", "baseline"), ("astar", "phelps")]]
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("astar")]
        assert len(rows) == 2 and all("n/a" in row for row in rows)

    def test_guard_matrix_divergence_exits_typed(self, tmp_path,
                                                  monkeypatch):
        """A golden-model divergence inside the guard matrix leaves it
        typed: exit 4 and a divergence bundle.  The perturbation is on
        the class and the matrix has two points, so a matrix run in
        forked pool workers would fail there too, and exit 5 (worker
        failure) with no bundle."""
        from repro.isa.executor import ArchState

        step = ArchState.step

        def poisoned_step(self):
            res = step(self)
            if self.retired > 100 and res.mem_value is not None:
                res = dataclasses.replace(res, mem_value=res.mem_value + 1)
            return res

        monkeypatch.setattr(ArchState, "step", poisoned_step)
        bundle = tmp_path / "bundle.json"
        assert main(["guard", "-w", "astar", "bfs", "--engines", "baseline",
                     "-n", "2000", "--bundle", str(bundle)]) \
            == EXIT_DIVERGENCE
        assert json.loads(bundle.read_text())["failure"] == "divergence"


class TestObservabilityExports:
    """``run --metrics-json`` / ``--trace-out``: the files tools read."""

    def test_metrics_json_has_the_required_keys(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["run", "astar", "--engine", "phelps", "-n", "5000",
                     "--metrics-json", str(out)]) == 0
        payload = json.loads(out.read_text())
        for key in ("workload", "engine", "cycles", "retired", "ipc",
                    "mpki", "counters", "epochs"):
            assert key in payload, key
        assert (payload["workload"], payload["engine"]) == ("astar",
                                                            "phelps")
        assert payload["cycles"] > 0
        assert isinstance(payload["counters"], dict) and payload["counters"]
        assert isinstance(payload["epochs"], list)

    def test_trace_out_is_a_chrome_trace(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["run", "astar", "--engine", "phelps", "-n", "5000",
                     "--trace-out", str(out)]) == 0
        entries = json.loads(out.read_text())
        assert isinstance(entries, list) and entries
        for entry in entries:
            for key in ("name", "ph", "ts", "pid", "tid"):
                assert key in entry, (key, entry)
