"""Mid-run core snapshots: drained-boundary capture, restore, and store.

A snapshot is taken at a *drained commit boundary*: the core has just
squashed every in-flight instruction (see ``Core._drain_for_snapshot``),
so the machine state reduces to committed architectural state (AMT-mapped
registers, memory image, resume PC) plus *warm* microarchitectural state
whose contents outlive any squash — branch predictor tables, BTB / RAS /
indirect predictor, cache hierarchy, and the engine's training structures
(DBT / loop table / HTC for Phelps).  Everything else (ROB, frontend
queues, LSQ, issue queue, in-flight writebacks) is empty by construction,
which is what makes the format small and the restore exact.

Cycle-exactness contract: a run executed with ``snapshot_interval=N``
drains at every boundary whether or not anyone persists the blob, so an
uninterrupted run and a killed-and-resumed run see *identical*
perturbations and produce identical final :class:`SimStats`.  (A drain is
a real microarchitectural event — a full squash, plus helper-thread
termination for engines with an active deployment — so snapshotted runs
are cycle-exact against each other, not against ``snapshot_interval=0``.)

Restore mutates an existing fresh core **in place**: the predictor,
hierarchy, and engine objects adopt the snapshotted ``__dict__`` rather
than being replaced, because attach-time wiring holds references to the
object identities (engine metric providers close over the engine
instance; the thread memory hooks close over the ``core.mem`` dict, which
is refilled rather than rebound).

:class:`SnapshotStore` persists blobs one-file-per-run-key with the
shared atomic-write + quarantine discipline of
:mod:`repro.utils.shards`, so a SIGKILL mid-write can never leave a
truncated blob that a resume would trust.
"""

import pickle
from typing import Dict, Optional

from repro.core.regfile import PRED_ALWAYS, ZERO_REG
from repro.utils.shards import atomic_write_bytes, quarantine_shard

__all__ = ["SnapshotError", "SnapshotStore", "load_state", "restore_into",
           "take_snapshot"]

_SCHEMA = 1


class SnapshotError(RuntimeError):
    """A snapshot blob is unreadable, wrong-schema, or mismatched."""


def take_snapshot(core) -> bytes:
    """Serialize a drained core's state; call via :meth:`Core.snapshot`.

    Serialization happens immediately (``pickle.dumps``) so the blob is a
    deep copy — the live core keeps running without aliasing it.
    """
    main = core.main
    if main.rob or main.frontend_q or len(core.threads) != 1:
        raise SnapshotError("snapshot requires a drained core "
                            "(empty pipeline, no helper threads)")
    prf = core.prf
    state: Dict = {
        "schema": _SCHEMA,
        "cycle": core.cycle,
        "partition_mode": core.plan.mode,
        "mem": dict(core.mem),
        # Committed register image, *including* zero-valued registers: a
        # mapped register occupies a physical register, and pool occupancy
        # is timing-visible (dispatch stalls on quota), so the restore
        # must reproduce it exactly — unlike ``boot_state``, which maps
        # only non-zero values because nothing was ever allocated.
        "mapped": [(idx, prf.read(phys))
                   for idx, phys in enumerate(main.amt.map)
                   if idx and phys != ZERO_REG],
        "pred_mapped": [(idx, core.pred_prf.value[phys])
                        for idx, phys in enumerate(main.pred_rmt.map)
                        if idx and phys != PRED_ALWAYS],
        "thread": {
            "retired": main.retired,
            "retired_stores": main.retired_stores,
            "retired_branches": main.retired_branches,
            "mispredicts": main.mispredicts,
            "load_violations": main.load_violations,
            "next_seq": main.next_seq,
            "resume_pc": main.resume_pc,
            "fetch_halted": main.fetch_halted,
        },
        "next_thread_id": core._next_thread_id,
        "halted": core.halted,
        "stats": core.stats,
        # Warm structures, pickled wholesale (all plain-__dict__ objects).
        "predictor": core.predictor,
        "btb": core.btb,
        "ras": core.ras,
        "indirect": core.indirect,
        "hierarchy": core.hierarchy,
        "engine": core.engine.warm_state(),
        "oracle": core.oracle.snapshot() if core.oracle is not None else None,
        "guard": None,
        "obs": None,
    }
    if core.guard is not None:
        g = core.guard
        state["guard"] = {"golden": g.golden.snapshot(), "checked": g.checked,
                          "sweeps": g.sweeps, "next_sweep": g._next_sweep}
    if core.obs is not None:
        sampler, events = core.obs.sampler, core.obs.events
        state["obs"] = {
            "samples": list(sampler.samples),
            "next_boundary": sampler._next_boundary,
            "last": dict(sampler._last),
            "events": list(events.buffer),
            "emitted": events.emitted,
            "dropped": events.dropped,
        }
    return pickle.dumps(state)


def load_state(blob: bytes) -> Dict:
    """Deserialize and validate a snapshot blob."""
    try:
        state = pickle.loads(blob)
    except Exception as exc:
        raise SnapshotError(f"unreadable snapshot blob: {exc}") from exc
    if not isinstance(state, dict) or state.get("schema") != _SCHEMA:
        raise SnapshotError("snapshot schema mismatch")
    return state


def _adopt(dst, src) -> None:
    """Swap ``dst``'s state for ``src``'s, preserving ``dst``'s identity."""
    if type(dst) is not type(src):
        raise SnapshotError(f"snapshot component type mismatch: "
                            f"{type(dst).__name__} vs {type(src).__name__}")
    dst.__dict__.clear()
    dst.__dict__.update(src.__dict__)


def restore_into(core, state: Dict) -> None:
    """Adopt a snapshot on a fresh core; call via :meth:`Core.restore`.

    The core must have been constructed with the *same* ``RunConfig`` that
    produced the snapshot (same program, engine, partition mode, guard and
    obs settings) — the harness guarantees this by keying the store on
    ``RunConfig.cache_key()``.
    """
    main = core.main
    if core.cycle != 0 or main.rob or main.frontend_q:
        raise SnapshotError("restore requires a fresh core")
    if (state["guard"] is not None) != (core.guard is not None):
        raise SnapshotError("snapshot/core guard configuration mismatch")
    if (state["oracle"] is not None) != (core.oracle is not None):
        raise SnapshotError("snapshot/core oracle configuration mismatch")

    if state["partition_mode"] != core.plan.mode:
        core.set_partition_mode(state["partition_mode"])
    # In place: the thread memory hooks are closures over ``core.mem``.
    core.mem.clear()
    core.mem.update(state["mem"])
    for idx, value in state["mapped"]:
        phys = core.pool.allocate(main.id, main.share.prf_quota)
        if phys is None:
            raise SnapshotError("physical register pool exhausted at restore")
        core.prf.write(phys, value)
        main.rmt.map[idx] = phys
        main.amt.map[idx] = phys
    for idx, value in state["pred_mapped"]:
        pphys = core.pred_pool.allocate(main.id,
                                        core.config.pred_fl_size // 2)
        if pphys is None:
            raise SnapshotError("predicate register pool exhausted at restore")
        core.pred_prf.value[pphys] = value
        core.pred_prf.ready[pphys] = True
        main.pred_rmt.map[idx] = pphys

    t = state["thread"]
    main.retired = t["retired"]
    main.retired_stores = t["retired_stores"]
    main.retired_branches = t["retired_branches"]
    main.mispredicts = t["mispredicts"]
    main.load_violations = t["load_violations"]
    main.next_seq = t["next_seq"]
    main.resume_pc = t["resume_pc"]
    main.fetch_halted = t["fetch_halted"]
    main.fetch.redirect(t["resume_pc"])

    core.cycle = state["cycle"]
    core.halted = state["halted"]
    core._next_thread_id = state["next_thread_id"]
    core.stats = state["stats"]

    # In-place adoption keeps attach-time references valid (see module
    # docstring); the unpickled source objects are garbage afterwards.
    _adopt(core.predictor, state["predictor"])
    _adopt(core.btb, state["btb"])
    _adopt(core.ras, state["ras"])
    _adopt(core.indirect, state["indirect"])
    _adopt(core.hierarchy, state["hierarchy"])
    core.engine.restore_warm(state["engine"])

    if state["oracle"] is not None:
        core.oracle.restore_snapshot(state["oracle"])
    if state["guard"] is not None:
        g, saved = core.guard, state["guard"]
        g.golden.restore_snapshot(saved["golden"])
        g.checked = saved["checked"]
        g.sweeps = saved["sweeps"]
        g._next_sweep = saved["next_sweep"]
    if state["obs"] is not None and core.obs is not None:
        saved = state["obs"]
        sampler, events = core.obs.sampler, core.obs.events
        sampler.samples = list(saved["samples"])
        sampler._next_boundary = saved["next_boundary"]
        sampler._last = dict(saved["last"])
        events.buffer.clear()
        events.buffer.extend(saved["events"])
        events.emitted = saved["emitted"]
        events.dropped = saved["dropped"]


class SnapshotStore:
    """One snapshot blob per run key, atomic writes, quarantine on damage.

    Unlike the run cache (many shards, long-lived), a run's snapshot slot
    is overwritten in place at each boundary — only the latest snapshot
    matters for resume, and ``os.replace`` makes each overwrite atomic.
    """

    def __init__(self, root, events=None):
        import pathlib

        self.root = pathlib.Path(root)
        self.events = events
        self.quarantined = 0

    def path_for(self, key: str):
        return self.root / f"{key}.snap"

    def get(self, key: str) -> Optional[bytes]:
        path = self.path_for(key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self.quarantine(key)
            return None

    def put(self, key: str, blob: bytes) -> None:
        atomic_write_bytes(self.path_for(key), blob)

    def quarantine(self, key: str) -> None:
        """A blob that read fine but failed validation (or failed to read):
        keep the bytes for post-mortem, treat the key as a miss."""
        if quarantine_shard(self.path_for(key), self.events,
                            "snapshot") is not None:
            self.quarantined += 1
