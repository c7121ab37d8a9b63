"""Sharded run cache: full-config keys, atomic shards."""

import json

from repro.core import CoreConfig
from repro.harness.runcache import RunCache, entry_from_result
from repro.harness.simulator import RunConfig, simulate
from repro.memory.hierarchy import MemoryConfig


def _cfg(**kw):
    kw.setdefault("workload", "astar")
    kw.setdefault("engine", "baseline")
    kw.setdefault("max_instructions", 1_000)
    return RunConfig(**kw)


# ----------------------------------------------------------------------
# Key derivation.
# ----------------------------------------------------------------------
def test_cache_key_covers_memory_and_max_cycles():
    base = _cfg()
    assert base.cache_key() == _cfg().cache_key()  # deterministic
    assert base.cache_key().startswith("astar-baseline-")

    # The pre-sharding key derivation collided on exactly these.
    with_mem = _cfg(memory=MemoryConfig(dram_latency=400))
    with_cap = _cfg(max_cycles=1_000_000)
    keys = {base.cache_key(), with_mem.cache_key(), with_cap.cache_key()}
    assert len(keys) == 3


def test_cache_key_covers_core_and_engine_configs():
    assert _cfg().cache_key() != _cfg(core=CoreConfig(rob_size=64)).cache_key()
    assert _cfg().cache_key() != _cfg(engine="phelps").cache_key()
    assert _cfg().cache_key() != _cfg(workload="bfs").cache_key()


# ----------------------------------------------------------------------
# Shard round trip.
# ----------------------------------------------------------------------
def test_put_get_roundtrip(tmp_path):
    cache = RunCache(tmp_path / "cache")
    config = _cfg()
    assert cache.get(config) is None

    entry = entry_from_result(simulate(config))
    path = cache.put(config, entry)
    assert path == cache.path_for(config)
    assert path.is_file()
    assert cache.get(config) == entry
    # JSON on disk, nothing partial left behind.
    assert json.loads(path.read_text())["cycles"] == entry["cycles"]
    assert not list(path.parent.glob("*.tmp"))


def test_corrupt_shard_is_a_miss(tmp_path):
    cache = RunCache(tmp_path)
    config = _cfg()
    cache.put(config, {"cycles": 1})
    cache.path_for(config).write_text("{not json")
    assert cache.get(config) is None  # recompute instead of crashing


def test_entries_do_not_collide_on_disk(tmp_path):
    cache = RunCache(tmp_path)
    a, b = _cfg(), _cfg(memory=MemoryConfig(dram_latency=400))
    cache.put(a, {"cycles": 1})
    cache.put(b, {"cycles": 2})
    assert cache.get(a) == {"cycles": 1}
    assert cache.get(b) == {"cycles": 2}
