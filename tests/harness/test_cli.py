import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "astar"])
        assert args.engine == "baseline"
        assert args.instructions == 100_000

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

    def test_compare_small(self, capsys):
        assert main(["compare", "perlbench", "--engines", "baseline",
                     "perfbp", "-n", "8000"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_compare_runs_through_compare_engines(self, capsys, monkeypatch):
        """``repro compare`` tabulates ``compare_engines``; a baseline that
        retired nothing in zero cycles gives ``n/a`` speedups."""
        from types import SimpleNamespace

        from repro import cli

        calls = []

        def fake(workload, engines, max_instructions):
            calls.append((workload, list(engines), max_instructions))
            stats = SimpleNamespace(retired=0)
            return {e: SimpleNamespace(stats=stats, cycles=0, ipc=0.0,
                                       mpki=0.0) for e in engines}

        monkeypatch.setattr(cli, "compare_engines", fake)
        assert main(["compare", "astar", "--engines", "baseline", "phelps",
                     "-n", "5"]) == 0
        assert calls == [("astar", ["baseline", "phelps"], 5)]
        rows = [line for line in capsys.readouterr().out.splitlines()
                if "baseline" in line or "phelps" in line]
        assert len(rows) == 2 and all("n/a" in row for row in rows)


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
