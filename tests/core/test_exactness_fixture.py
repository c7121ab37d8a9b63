"""Cycle-exactness fixture for fetch and prediction paths that the
benchmark's reference results do not cover.

Each case runs a workload for 15k instructions and compares cycles, the
SimStats sha256 and the commit-stream sha256 with recorded values:

* ``perfbp``: perfect branch prediction, whose oracle marks are taken
  per fetched uop;
* ``br``: Branch Runahead, whose helper fetch units and
  ``note_refetched`` recovery run through the fetch loop;
* ``phelps-commit``: Phelps under the golden-model commit guard.

Both engines train on 5k-instruction epochs, so their helper threads
deploy within the run.  Regenerate the fixture only for a deliberate
timing change::

    PYTHONPATH=src python tests/core/test_exactness_fixture.py --write
"""

import dataclasses
import hashlib
import json
import pathlib
import sys

import pytest

from repro.core import Core, CoreConfig
from repro.harness.abcompare import _digest_commit
from repro.phelps import PhelpsConfig, PhelpsEngine
from repro.runahead import BRConfig, BranchRunaheadEngine
from repro.workloads import build_workload

FIXTURE = pathlib.Path(__file__).with_name("exactness_15k.json")
WORKLOADS = ("astar", "sssp", "mcf", "leela")
CASES = ("perfbp", "br", "phelps-commit")
INSTRUCTIONS = 15_000
EPOCH = 5_000


def _core(workload: str, case: str) -> Core:
    program = build_workload(workload)
    if case == "perfbp":
        return Core(program, config=CoreConfig(perfect_branch_prediction=True))
    if case == "br":
        construction = PhelpsConfig(include_stores=False, epoch_length=EPOCH)
        engine = BranchRunaheadEngine(BRConfig(construction=construction))
        return Core(program, engine=engine)
    return Core(program, config=CoreConfig(guard_level="commit"),
                engine=PhelpsEngine(PhelpsConfig(epoch_length=EPOCH)))


def run_case(workload: str, case: str) -> dict:
    core = _core(workload, case)
    commits = hashlib.sha256()
    retire = core._retire_uop

    def digesting_retire(thread, uop):
        _digest_commit(commits, thread, uop)
        return retire(thread, uop)

    core._retire_uop = digesting_retire
    stats = core.run(max_instructions=INSTRUCTIONS)
    doc = json.dumps(dataclasses.asdict(stats), sort_keys=True, default=str)
    return {"cycles": stats.cycles,
            "stats_sha256": hashlib.sha256(doc.encode()).hexdigest(),
            "commit_sha256": commits.hexdigest()}


def _expected() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("case", CASES)
def test_run_matches_fixture(workload, case):
    assert run_case(workload, case) == _expected()[f"{workload}/{case}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    fixture = {f"{w}/{c}": run_case(w, c) for w in WORKLOADS for c in CASES}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fixture)} cases to {FIXTURE}")
