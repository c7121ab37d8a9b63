"""Deterministic, seeded fault injection.

Faults are installed by *wrapping* the victim structure's methods rather
than patching the simulator source: the injected behavior is exactly what
a corrupted hardware structure (or a killed writer process) would present
to the rest of the system, and removing the wrapper restores the pristine
object.  Every injector decision comes from one seeded ``random.Random``
stream, so a failing chaos case replays bit-identically from its seed.

Fault classes
=============
* :func:`corrupt_prediction_queues` — flip or drop helper-thread deposits
  (the paper's desync scenario: the main thread must consume-or-ignore and
  the controller must terminate the helper within one loop iteration).
* :func:`corrupt_dbt` — flip misprediction/taken bits feeding DBT
  training, so loop-bound learning and delinquency ranking are polluted.
* :func:`corrupt_loop_table` — drop Loop Table entries and flatten nested
  flags after each epoch-end populate.
* :func:`truncate_file` — chop the tail off a RunCache / checkpoint shard,
  simulating a writer killed mid-write (stores must quarantine and heal).
* :func:`worker_fault_env` — arm ``repro.harness.parallel`` workers to
  die or hang via the ``REPRO_INJECT_WORKER`` environment hook (the
  sweep must retry the point and journal ``attempts_taken`` and
  ``last_error``).
"""

import json
import os
import random
from contextlib import contextmanager
from typing import Dict, List, Optional

__all__ = ["FaultInjector", "WORKER_FAULT_ENV", "corrupt_dbt",
           "corrupt_loop_table", "corrupt_prediction_queues",
           "truncate_file", "worker_fault_env"]

WORKER_FAULT_ENV = "REPRO_INJECT_WORKER"


class FaultInjector:
    """Seeded decision stream plus a log of every fault actually fired."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        self.log: List[Dict] = []

    def fire(self, rate: float) -> bool:
        return self.rng.random() < rate

    def note(self, kind: str, **detail) -> None:
        self.log.append({"kind": kind, **detail})

    def count(self, kind: str) -> int:
        return sum(1 for entry in self.log if entry["kind"] == kind)


# ----------------------------------------------------------------------
# Phelps-structure faults (wrap-based).
# ----------------------------------------------------------------------
def corrupt_prediction_queues(engine, injector: FaultInjector,
                              rate: float = 0.25,
                              mode: str = "flip") -> None:
    """Flip (``mode="flip"``) or drop (``mode="drop"``) queue deposits.

    A flipped deposit is consumed as a wrong prediction: the retire unit
    detects the disagreement and the controller terminates the helper
    (desync).  A dropped deposit leaves the column empty: the consumer
    falls back to the default predictor (not timely).
    """
    if mode not in ("flip", "drop"):
        raise ValueError(f"unknown queue fault mode {mode!r}")
    queues = engine.queues
    orig_deposit = queues.deposit

    def deposit(pc, outcome):
        if injector.fire(rate):
            if mode == "drop":
                injector.note("queue_drop", pc=pc)
                return
            outcome = not outcome
            injector.note("queue_flip", pc=pc)
        orig_deposit(pc, outcome)

    queues.deposit = deposit


def corrupt_dbt(engine, injector: FaultInjector, rate: float = 0.2) -> None:
    """Flip the taken/mispredicted bits feeding DBT training."""
    dbt = engine.dbt
    orig_note = dbt.note_retired

    def note_retired(pc, taken, target, mispredicted):
        if injector.fire(rate):
            injector.note("dbt_flip", pc=pc)
            taken = not taken
            mispredicted = not mispredicted
        orig_note(pc, taken, target, mispredicted)

    dbt.note_retired = note_retired


def corrupt_loop_table(engine, injector: FaultInjector,
                       drop_rate: float = 0.5) -> None:
    """Drop Loop Table entries and flatten nesting after every populate."""
    lt = engine.lt
    orig_populate = lt.populate

    def populate(dbt, threshold):
        orig_populate(dbt, threshold)
        for key in list(lt.entries):
            if injector.fire(drop_rate):
                injector.note("loop_table_drop", loop_branch=key[0])
                del lt.entries[key]
            elif lt.entries[key].is_nested and injector.fire(drop_rate):
                injector.note("loop_table_flatten", loop_branch=key[0])
                lt.entries[key].is_nested = False

    lt.populate = populate


# ----------------------------------------------------------------------
# Storage faults.
# ----------------------------------------------------------------------
def truncate_file(path, injector: Optional[FaultInjector] = None,
                  keep_fraction: float = 0.5) -> int:
    """Cut ``path`` down to a prefix, as a writer killed mid-write would.

    Returns the number of bytes removed.  (The stores write via temp-file
    + rename, so this models pre-rename kill *plus* filesystem damage —
    the read path must treat either as an unreadable shard.)
    """
    data = open(path, "rb").read()
    keep = max(1, int(len(data) * keep_fraction))
    with open(path, "wb") as fh:
        fh.write(data[:keep])
    if injector is not None:
        injector.note("shard_truncate", path=str(path),
                      removed=len(data) - keep)
    return len(data) - keep


# ----------------------------------------------------------------------
# Worker faults (consumed by repro.harness.parallel._worker).
# ----------------------------------------------------------------------
@contextmanager
def worker_fault_env(mode: str, indices, max_attempt: int = 0,
                     exit_code: int = 23, hang_seconds: float = 3600.0):
    """Arm worker processes at the given run ``indices`` to fail.

    ``mode="kill"`` makes the worker exit with ``exit_code`` before
    simulating; ``mode="hang"`` makes it sleep ``hang_seconds`` (so the
    parent's per-run ``timeout`` must reap it).  Attempts numbered above
    ``max_attempt`` run clean — that is what lets the retry succeed.
    """
    if mode not in ("kill", "hang"):
        raise ValueError(f"unknown worker fault mode {mode!r}")
    spec = json.dumps({"mode": mode, "indices": list(indices),
                       "max_attempt": max_attempt, "exit_code": exit_code,
                       "hang_seconds": hang_seconds})
    prior = os.environ.get(WORKER_FAULT_ENV)
    os.environ[WORKER_FAULT_ENV] = spec
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop(WORKER_FAULT_ENV, None)
        else:
            os.environ[WORKER_FAULT_ENV] = prior
