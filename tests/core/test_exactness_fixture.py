"""Cycle-exactness fixture: the simulator's exactness oracle.

Each case runs a workload for 15k instructions and compares cycles, the
SimStats sha256 and the commit-stream sha256 with recorded values:

* ``baseline``: the plain core with no pre-execution engine;
* ``perfbp``: perfect branch prediction, whose oracle marks are taken
  per fetched uop;
* ``br``: Branch Runahead, whose helper fetch units and
  ``note_refetched`` recovery run through the fetch loop;
* ``phelps-commit``: Phelps under the golden-model commit guard.

The br and Phelps engines train on 5k-instruction epochs, so their helper
threads deploy within the run.  ``test_seeded_perturbation_is_detected``
proves the comparison can fail: one extra cycle mid-run must change the
result of a baseline and of a phelps-commit run.  Regenerate the fixture only for a deliberate timing change::

    PYTHONPATH=src python tests/core/test_exactness_fixture.py --write
"""

import dataclasses
import hashlib
import json
import pathlib
import sys

import pytest

from repro.core import Core, CoreConfig
from repro.phelps import PhelpsConfig, PhelpsEngine
from repro.runahead import BRConfig, BranchRunaheadEngine
from repro.workloads import build_workload

FIXTURE = pathlib.Path(__file__).with_name("exactness_15k.json")
WORKLOADS = ("astar", "sssp", "mcf", "leela")
CASES = ("baseline", "perfbp", "br", "phelps-commit")
INSTRUCTIONS = 15_000
EPOCH = 5_000


def _digest_commit(h, thread, uop) -> None:
    """Fold one retired uop into the commit-stream digest.

    Everything architecturally observable at retire participates: the
    thread, program position, and the uop's computed effects.  Helper
    threads are included — their retires race the main thread in real
    runs, so a reordering is a divergence even at equal cycle counts.
    """
    inst = uop.inst
    h.update((
        f"{thread.id}|{thread.kind.value}|{uop.seq}|{inst.pc}|"
        f"{inst.opcode.value}|{uop.result}|{uop.mem_addr}|"
        f"{uop.store_value}|{uop.taken}|{uop.pred_enabled}\n"
    ).encode())


def _core(workload: str, case: str) -> Core:
    program = build_workload(workload)
    if case == "baseline":
        return Core(program)
    if case == "perfbp":
        return Core(program, config=CoreConfig(perfect_branch_prediction=True))
    if case == "br":
        construction = PhelpsConfig(include_stores=False, epoch_length=EPOCH)
        engine = BranchRunaheadEngine(BRConfig(construction=construction))
        return Core(program, engine=engine)
    return Core(program, config=CoreConfig(guard_level="commit"),
                engine=PhelpsEngine(PhelpsConfig(epoch_length=EPOCH)))


def run_case(workload: str, case: str, perturb_cycle=None) -> dict:
    """Run one case and digest it.

    ``perturb_cycle`` injects a timing bug for the self-test: one extra
    cycle elapses at the first tick at or past that cycle.  The ``>=`` and
    the one-shot latch keep an idle-skip jump over the exact cycle number
    from masking it.
    """
    core = _core(workload, case)
    if perturb_cycle is not None:
        tick = core.tick
        fired = []

        def perturbed_tick():
            tick()
            if not fired and core.cycle >= perturb_cycle:
                fired.append(True)
                core.cycle += 1

        core.tick = perturbed_tick
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


@pytest.mark.parametrize("case", ["baseline", "phelps-commit"])
def test_seeded_perturbation_is_detected(case):
    # One silently skipped cycle number mid-run, the footprint of an
    # off-by-one stall bug, must not match the recorded entry, both on the
    # plain core and with helper threads in flight.
    expected = _expected()
    assert any(run_case(w, case, perturb_cycle=1500)
               != expected[f"{w}/{case}"] for w in WORKLOADS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    fixture = {f"{w}/{c}": run_case(w, c) for w in WORKLOADS for c in CASES}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fixture)} cases to {FIXTURE}")
