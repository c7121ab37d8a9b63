"""Snapshot blobs stay compact.

The storage classes serialize their columns as packed bytes
(``array('q').tobytes()``, packed cache words) instead of element-wise
object graphs.  A mid-run astar snapshot was 243,849 bytes when this
bound was recorded; the pre-columnar object-graph engine produced
265,893 bytes at the same boundary.
"""

import pickle

from repro.core import Core
from repro.core.regfile import PhysRegFile
from repro.workloads import build_workload

ASTAR_SNAPSHOT_BYTES = 243_849
ASTAR_CYCLES_AT_10K = 12_913


def test_columnar_snapshot_is_smaller():
    core = Core(build_workload("astar"))
    blobs = []
    core.run(max_instructions=10_000, snapshot_interval=8000,
             on_snapshot=blobs.append)
    assert blobs, "run never reached a snapshot boundary"
    # Same simulation as the one the bound was recorded on.
    stats = core.collect_stats()
    assert (stats.cycles, stats.retired) == (ASTAR_CYCLES_AT_10K, 10_000)
    assert len(blobs[-1]) <= ASTAR_SNAPSHOT_BYTES, \
        f"snapshot grew to {len(blobs[-1])}B (bound {ASTAR_SNAPSHOT_BYTES}B)"


def test_columnar_components_pickle_compact():
    # The per-structure claim behind the blob-level one: a populated
    # register file pickles smaller than its plain value/ready lists.
    rf = PhysRegFile(512)
    for reg in range(1, 512):
        # Representative 64-bit register contents (pointers, hashes) —
        # where the packed column beats per-element int pickling.
        rf.write(reg, (reg * 0x9E3779B97F4A7C15) % (1 << 63))
    plain = pickle.dumps((list(rf.value), list(rf.ready)))
    assert len(pickle.dumps(rf)) < len(plain)
    restored = pickle.loads(pickle.dumps(rf))
    assert restored.value == rf.value
    assert restored.ready == rf.ready
