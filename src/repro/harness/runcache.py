"""Sharded, concurrency-safe cache of simulation results.

One JSON file per run key under a cache directory, written via
temp-file + ``os.replace`` so concurrent writers (parallel sweeps, two
pytest sessions) can never interleave partial writes — the worst case is
two workers computing the same deterministic entry and the last rename
winning with identical content.  Keys come from
:meth:`RunConfig.cache_key`, which hashes the *complete* configuration
(memory hierarchy, core, engine configs, cycle caps included).
"""

import json
import pathlib
from typing import Dict, Optional

from repro.harness.simulator import RunConfig, SimResult
from repro.utils.shards import atomic_write_json, quarantine_shard

__all__ = ["RunCache", "entry_from_result"]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)


def entry_from_result(result: SimResult) -> Dict:
    """The cached document for one run: the stats the figures need, plus
    the full config for introspection."""
    s = result.stats
    return {
        "cycles": s.cycles,
        "retired": s.retired,
        "ipc": s.ipc,
        "mpki": s.mpki,
        "mispredicts": s.mispredicts,
        "helper_retired": s.helper_retired,
        "engine": _jsonable(s.engine),
        "metrics": _jsonable(s.metrics),
        "epochs": _jsonable(s.epochs),
        "wall_seconds": result.wall_seconds,
        "idle_cycles_skipped": s.idle_cycles_skipped,
        "config": _jsonable(result.config.to_dict()),
    }


class RunCache:
    """Directory of one-file-per-run cached results."""

    def __init__(self, root, events=None):
        self.root = pathlib.Path(root)
        self.events = events        # optional EventTrace for quarantines
        self.quarantined = 0

    # ------------------------------------------------------------------
    def path_for(self, config: RunConfig) -> pathlib.Path:
        return self.root / f"{config.cache_key()}.json"

    def get(self, config: RunConfig) -> Optional[Dict]:
        path = self.path_for(config)
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            # Unreadable shard (killed writer, disk damage): quarantine it
            # to ``*.corrupt`` for post-mortem and recompute as a miss.
            if quarantine_shard(path, self.events, "runcache") is not None:
                self.quarantined += 1
            return None

    def put(self, config: RunConfig, entry: Dict) -> pathlib.Path:
        return atomic_write_json(self.path_for(config), entry,
                                 indent=1, sort_keys=True)
