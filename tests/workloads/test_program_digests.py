"""Every registry program is byte-identical to its recorded image.

The digests were recorded before the workload builders were sped up
(bulk data fills, allocation-free graph generators); any build change
must keep all of them, because a moved data word or instruction moves
every simulated figure.  Re-record only for an intended change to a
workload, and say so where the change is described.
"""

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.workloads.registry import build_workload, workload_names

FIXTURE = pathlib.Path(__file__).with_name("program_digests.json")


def program_digest(program) -> str:
    """sha256 over every field of every instruction, the data items in
    insertion order, the labels, the data symbols and the entry PC."""
    h = hashlib.sha256()
    for inst in program.instructions:
        h.update(repr(tuple(getattr(inst, f.name)
                            for f in dataclasses.fields(inst))).encode())
        h.update(b"\n")
    h.update(json.dumps(list(program.data.items())).encode())
    h.update(json.dumps(list(program.labels.items())).encode())
    h.update(json.dumps(list(program.data_symbols.items())).encode())
    h.update(str(program.entry).encode())
    return h.hexdigest()


def _recorded():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_registry():
    assert sorted(_recorded()) == workload_names()


@pytest.mark.parametrize("name", workload_names())
def test_program_image_unchanged(name):
    assert program_digest(build_workload(name)) == _recorded()[name]


if __name__ == "__main__":  # re-record: python tests/workloads/test_program_digests.py
    FIXTURE.write_text(json.dumps(
        {n: program_digest(build_workload(n)) for n in workload_names()},
        indent=1, sort_keys=True) + "\n")
