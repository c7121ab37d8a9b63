"""``RunConfig.to_dict()``/``from_dict()``: the one serialized form of a
point (campaign specs, the ``/claim`` wire, embedded result configs).

The property every content-addressed store rests on: a config that goes
through JSON and back mints the same ``cache_key()``.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CoreConfig
from repro.harness.runcache import _jsonable
from repro.harness.simulator import ENGINES, RunConfig
from repro.memory import MemoryConfig
from repro.obs import ObserveConfig
from repro.phelps import PhelpsConfig


def _overrides(cls, special):
    """Instances of ``cls`` with a random subset of fields overridden."""
    optional = {}
    for f in dataclasses.fields(cls):
        if f.name in special:
            optional[f.name] = special[f.name]
        elif isinstance(f.default, bool):
            optional[f.name] = st.booleans()
        elif isinstance(f.default, int):
            optional[f.name] = st.integers(0, 1 << 20)
        elif isinstance(f.default, float):
            optional[f.name] = st.floats(0.0, 100.0, allow_nan=False)
    return st.fixed_dictionaries({}, optional=optional).map(
        lambda kw: cls(**kw))


CORES = _overrides(CoreConfig, {
    "rob_size": st.integers(1, 256).map(lambda n: 8 * n),
    "guard_level": st.sampled_from(["off", "commit", "full"]),
    "guard_check_interval": st.integers(1, 1000)})
MEMORIES = _overrides(MemoryConfig, {})
PHELPS = _overrides(PhelpsConfig, {})
OBSERVES = _overrides(ObserveConfig, {
    "epoch_instructions": st.none() | st.integers(1, 1 << 20),
    "watches": st.none() | st.lists(st.text(max_size=12),
                                    max_size=4).map(tuple)})

RUN_CONFIGS = st.builds(
    RunConfig,
    workload=st.sampled_from(["astar", "bfs", "sssp"]),
    engine=st.sampled_from(ENGINES),
    max_instructions=st.integers(1, 10 ** 6),
    core=st.none() | CORES,
    memory=st.none() | MEMORIES,
    phelps_config=st.none() | PHELPS,
    observe_config=st.none() | OBSERVES,
    snapshot_interval=st.integers(0, 10 ** 5))


@settings(max_examples=150, deadline=None)
@given(config=RUN_CONFIGS)
def test_json_round_trip_preserves_cache_key(config):
    doc = json.loads(json.dumps(_jsonable(config.to_dict())))
    again = RunConfig.from_dict(doc)
    assert again.cache_key() == config.cache_key()
    for name in ("core", "memory", "phelps_config"):
        assert getattr(again, name) == getattr(config, name)


def test_figure_overrides_round_trip():
    """The paper's override axes: Fig. 15a core, Fig. 11 ablation."""
    for config in (
            RunConfig(workload="bfs", engine="phelps",
                      core=CoreConfig(pipeline_stages=19).with_window(1024),
                      phelps_config=PhelpsConfig()),
            RunConfig(workload="astar", engine="phelps",
                      phelps_config=PhelpsConfig().ablation_b1_s1())):
        again = RunConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert again == config
        assert again.cache_key() == config.cache_key()


def test_omitted_fields_take_defaults():
    assert RunConfig.from_dict({"workload": "astar"}).cache_key() \
        == RunConfig(workload="astar").cache_key()


@pytest.mark.parametrize("doc", [
    {"workload": "astar", "rob_size": 316},
    {"workload": "astar", "core": {"rob": 316}},
    {"workload": "astar", "phelps_config": {"epochs": 3}},
    {"workload": "astar", "observe_config": {"watch": ["core"]}},
])
def test_unknown_field_raises_type_error(doc):
    with pytest.raises(TypeError):
        RunConfig.from_dict(doc)


def _asdict_key(config):
    """``cache_key`` as it was minted through ``dataclasses.asdict``: the
    reference ``to_dict()``'s field walk must reproduce key for key."""
    doc = dataclasses.asdict(config)
    doc.pop("checkpoint_dir", None)
    doc.pop("snapshot_dir", None)
    if not doc.get("snapshot_interval"):
        doc.pop("snapshot_interval", None)
    payload = json.dumps(doc, sort_keys=True, default=str)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return f"{config.workload}-{config.engine}-{digest}"


@pytest.mark.parametrize("interval", [0, 5000])
def test_cache_key_matches_asdict_reference(interval):
    config = RunConfig(
        workload="bfs", engine="phelps", max_instructions=45_000,
        core=CoreConfig(guard_level="commit").with_window(512),
        memory=MemoryConfig(dram_latency=400, enable_l1_prefetcher=False),
        phelps_config=PhelpsConfig().ablation_b1_s1(),
        observe_config=ObserveConfig(watches=("core.cycles",), profile=True),
        checkpoint_dir="/ckpt", snapshot_interval=interval,
        snapshot_dir="/snap")
    assert config.to_dict() == dataclasses.asdict(config)
    assert config.cache_key() == _asdict_key(config)
    # Storage locations stay out of the key.
    assert config.cache_key() == dataclasses.replace(
        config, checkpoint_dir=None, snapshot_dir=None).cache_key()


@settings(max_examples=100, deadline=None)
@given(config=RUN_CONFIGS)
def test_cache_key_matches_asdict_reference_for_any_config(config):
    assert config.to_dict() == dataclasses.asdict(config)
    assert config.cache_key() == _asdict_key(config)
