"""Self-tests of the benchmark (run: python3 -m pytest perfbench/tests).

The workload tests shrink the campaigns to a few registry workloads so
they finish in seconds; the full-size runs are what ``run.py`` measures.
"""

import dataclasses
import io
import json
import pathlib
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pytest  # noqa: E402

import campaigns  # noqa: E402
import run  # noqa: E402
import simwork  # noqa: E402
from common import WORK_DIR, spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMALL = ["astar", "sssp"]


def _names(kind):
    return [m["name"] for m in spec()[kind]]


def test_metric_names_units_and_bounds():
    doc = spec()
    metrics = doc["end_to_end"] + doc["per_layer"]
    names = [m["name"] for m in metrics + doc["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]) and re.fullmatch(r"[A-Za-z0-9_.-]+",
                                                      m["name"])
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_every_layer_metric_names_what_it_moves():
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    e2e = set(_names("end_to_end"))
    assert set(layers) == set(_names("per_layer"))
    for name, doc in layers.items():
        assert doc["moves"], name
        for move in doc["moves"]:
            assert move["metric"] in e2e, name
            assert set(move["workloads"]) <= set(run.WORKLOADS), name


def _main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        status = run.main(argv)
    return status, json.loads(out.getvalue().strip().splitlines()[-1]), \
        out.getvalue()


@pytest.fixture
def small(monkeypatch):
    """Campaigns over two workloads; sims cut to 2,000 instructions (their
    stored references then no longer apply, so results read as failed)."""
    monkeypatch.setattr(campaigns, "workload_names", lambda: list(SMALL))
    monkeypatch.setattr(campaigns, "SERVED_WARM_REPS", 1)
    monkeypatch.setattr(campaigns, "IDLE_WINDOW", 0.2)
    for name, config in list(simwork.SIMS.items()):
        monkeypatch.setitem(simwork.SIMS, name, dataclasses.replace(
            config, max_instructions=2_000))


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_emits_exactly_its_declared_metrics(small, workload, trace):
    status, doc, text = _main(["--workload", workload, "--seed", "3",
                               "--seconds", "0", "--trace", trace])
    declared = _names("per_layer" if trace == "1" else "end_to_end")
    assert list(doc["metrics"]) == declared
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["attempted"] >= 1
    for name, value in doc["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
    if workload.startswith("campaign"):
        assert status == 0 and doc["correct"] and doc["failed"] == 0, text
    if trace == "1":
        assert "traced time" in text and "bench.trace_overhead_frac" in text
        events = json.loads(
            (BENCH / "_out" / f"{workload}-trace.json").read_text())
        assert all({"name", "ph", "ts", "pid", "tid"} <= set(e)
                   for e in events)
        if workload.startswith("campaign"):
            points = [e for e in events if e["name"] == "point"]
            assert len(points) == 2 * len(SMALL)
            assert all(e["args"]["span_id"].split("-")[0] in SMALL
                       for e in points)


def test_seeded_failing_point_raises_failed_frac(small, monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_INJECT",
                       json.dumps({"worker": "*", "fail_workload": "sssp"}))
    status, doc, _ = _main(["--workload", "campaign-served", "--seed", "1",
                            "--seconds", "0", "--trace", "0"])
    assert status == 1 and not doc["correct"]
    assert doc["failed"] / doc["attempted"] > 0
    assert doc["failed"] == 2   # sssp x {baseline, phelps}


def test_seed_orders_points_but_not_results(monkeypatch):
    monkeypatch.setattr(campaigns, "workload_names",
                        lambda: ["astar", "sssp", "bfs", "cc"])
    try:
        digests = [campaigns.run_local(0, False, seed)[4] for seed in (1, 2)]
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    assert digests[0]["order"] != digests[1]["order"]
    assert digests[0]["results"] == digests[1]["results"]


def test_without_the_program_it_fails_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-local",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
