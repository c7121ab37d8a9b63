"""ServiceState contracts: validation, back-pressure, priority order."""

import pytest

from repro.core import CoreConfig
from repro.harness.simulator import ENGINES, RunConfig
from repro.phelps import PhelpsConfig
from repro.harness.spec import (MAX_POINTS_PER_CAMPAIGN, ValidationError,
                                configs_from_spec, validate_spec)
from repro.service.queue import RETRY_AFTER, BackPressure, ServiceState

KNOWN = ("astar", "bfs", "sssp", "perlbench")


def make_state(**kwargs):
    kwargs.setdefault("max_queued_points", 100)
    return ServiceState(KNOWN, **kwargs)


def submit(state, workloads=("astar",), engines=("baseline",),
           priority=0, instructions=1000):
    return state.submit({"workloads": list(workloads),
                         "engines": list(engines),
                         "instructions": instructions,
                         "priority": priority},
                        make_dir=lambda cid: f"/c/{cid}")


def _points(*configs):
    return {"points": [c.to_dict() for c in configs]}


class TestSpecValidation:
    def test_valid_spec_cross_product(self):
        spec, configs = validate_spec({"workloads": ["astar", "bfs"],
                                       "engines": ["baseline", "phelps"],
                                       "instructions": 5000}, KNOWN)
        assert len(configs) == 4
        assert spec == {"workloads": ["astar", "bfs"],
                        "engines": ["baseline", "phelps"],
                        "instructions": 5000}

    @pytest.mark.parametrize("doc", [
        [],                                                  # not an object
        {"workloads": [], "engines": ["baseline"]},          # empty
        {"workloads": ["nope"], "engines": ["baseline"]},    # unknown wl
        {"workloads": ["astar"], "engines": ["warp9"]},      # unknown engine
        {"workloads": ["astar"], "engines": ["baseline"],
         "instructions": 0},                                 # bad n
        {"workloads": ["astar"], "engines": ["baseline"],
         "instructions": "many"},                            # non-int n
        {"workloads": "astar", "engines": ["baseline"]},     # not a list
        {"points": []},                                      # empty
        {"points": ["astar"]},                               # not objects
        {"points": [{"workload": "nope"}]},                  # unknown wl
        {"points": [{"workload": "astar", "engine": "warp9"}]},
        {"points": [{"workload": "astar",
                     "max_instructions": 50_000_001}]},      # past the cap
    ])
    def test_invalid_specs_raise(self, doc):
        with pytest.raises(ValidationError):
            validate_spec(doc, KNOWN)

    @pytest.mark.parametrize("doc", [
        {"workloads": ["astar"], "engines": ["baseline"], "seed": 1},
        {"points": [{"workload": "astar", "rob_size": 316}]},
        {"points": [{"workload": "astar", "core": {"rob": 316}}]},
        {"workloads": ["astar"], "engines": ["baseline"],
         "tenant": "alice"},                                 # no tenants
    ])
    def test_unknown_field_is_rejected(self, doc):
        with pytest.raises(ValidationError):
            validate_spec(doc, KNOWN)

    @pytest.mark.parametrize("field", ["snapshot_dir", "checkpoint_dir"])
    def test_host_path_is_rejected(self, field):
        doc = _points(RunConfig(workload="astar"))
        doc["points"][0][field] = "/tmp/somewhere"
        with pytest.raises(ValidationError, match="host paths"):
            validate_spec(doc, KNOWN)

    def test_both_forms_at_once_are_rejected(self):
        doc = _points(RunConfig(workload="astar"))
        doc["workloads"] = ["astar"]
        doc["engines"] = ["baseline"]
        with pytest.raises(ValidationError, match="not both"):
            validate_spec(doc, KNOWN)

    def test_point_cap(self):
        points = [{"workload": "astar", "max_instructions": 1000 + i}
                  for i in range(MAX_POINTS_PER_CAMPAIGN)]
        _, configs = validate_spec({"points": points}, KNOWN)
        assert len(configs) == MAX_POINTS_PER_CAMPAIGN
        points.append({"workload": "astar"})
        with pytest.raises(ValidationError, match="cap"):
            validate_spec({"points": points}, KNOWN)
        with pytest.raises(ValidationError, match="cap"):
            validate_spec({"workloads": [f"w{i}" for i in range(586)],
                           "engines": list(ENGINES)}, KNOWN)

    def test_duplicates_deduped_preserving_order(self):
        spec, configs = validate_spec(
            {"workloads": ["astar", "astar", "bfs"],
             "engines": ["baseline", "baseline"]}, KNOWN)
        assert spec["workloads"] == ["astar", "bfs"]
        assert spec["engines"] == ["baseline"]
        assert [c.workload for c in configs] == ["astar", "bfs"]

    def test_points_dedup_by_cache_key_first_seen(self):
        """Two documents that mint one key are one point: an omitted
        field and its default value are the same configuration."""
        deep = RunConfig(workload="bfs", engine="phelps",
                         core=CoreConfig(pipeline_stages=19))
        doc = {"points": [{"workload": "astar", "max_instructions": 500},
                          deep.to_dict(),
                          RunConfig(workload="astar",
                                    max_instructions=500).to_dict()]}
        spec, configs = validate_spec(doc, KNOWN)
        assert [c.cache_key() for c in configs] == [
            RunConfig(workload="astar", max_instructions=500).cache_key(),
            deep.cache_key()]
        # The normalized spec is the full to_dict() of each unique point.
        assert spec == _points(*configs)
        assert configs_from_spec(spec)[1].core == deep.core

    def test_queue_reexports_the_expander(self):
        """perfbench imports the expander from ``repro.service.queue``."""
        from repro.service import queue
        assert queue.configs_from_spec is configs_from_spec

    def test_points_form_submits(self):
        state = make_state()
        record = state.submit(
            _points(RunConfig(workload="astar", max_instructions=1000),
                    RunConfig(workload="astar", engine="phelps",
                              max_instructions=1000,
                              phelps_config=PhelpsConfig().ablation_b1())),
            make_dir=lambda cid: f"/c/{cid}")
        assert record.total_points == 2
        assert record.counts == {"pending": 2}


class TestSubmitAndBackPressure:
    def test_submit_mints_sequential_ids(self):
        state = make_state()
        assert submit(state).id == "c0001"
        assert submit(state).id == "c0002"

    def test_back_pressure_past_queue_bound(self):
        state = make_state(max_queued_points=5)
        submit(state, workloads=("astar", "bfs"),
               engines=("baseline", "phelps"))  # 4 queued
        with pytest.raises(BackPressure) as exc:
            submit(state, workloads=("astar", "bfs"),
                   engines=("baseline",))       # +2 would cross 5
        assert exc.value.retry_after == RETRY_AFTER
        assert exc.value.depth == 4
        # A submission that still fits goes through.
        assert submit(state).total_points == 1

    def test_finished_points_free_queue_depth(self):
        state = make_state(max_queued_points=4)
        record = submit(state, workloads=("astar", "bfs"),
                        engines=("baseline", "phelps"))
        state.mark_active(record.id)
        state.refresh_counts(record.id, {"done": 4}, 0, 0)
        assert state.snapshot()["queued_points"] == 0
        submit(state)  # no BackPressure

    def test_cancel_only_touches_live_campaigns(self):
        state = make_state()
        record = submit(state)
        assert state.cancel(record.id).status == "cancelled"
        assert state.cancel("c9999") is None
        # Cancelling a finished campaign is a no-op.
        record2 = submit(state)
        state.mark_active(record2.id)
        state.refresh_counts(record2.id, {"done": 1}, 0, 0)
        assert state.cancel(record2.id).status == "done"


class TestScheduling:
    def test_activation_respects_cap_and_priority(self):
        state = make_state(max_active_campaigns=1)
        low = submit(state, priority=0)
        high = submit(state, priority=5)
        order = state.to_activate()
        assert [c.id for c in order] == [high.id]
        state.mark_active(high.id)
        assert state.to_activate() == []  # cap reached

    def test_order_is_priority_then_submission(self):
        """Activation and ``schedule()`` both go by ``(-priority, seq)``:
        higher priority first, and the older of two equal campaigns
        first, however many points either holds leased."""
        state = make_state(max_active_campaigns=3)
        old = submit(state, workloads=("astar", "bfs"))
        high = submit(state, priority=2)
        new = submit(state, workloads=("astar", "bfs"))
        low = submit(state, priority=-1)
        assert [c.id for c in state.to_activate()] \
            == [high.id, old.id, new.id]
        for record in (old, high, new, low):
            state.mark_active(record.id)
        state.refresh_counts(old.id, {"pending": 1, "running": 1}, 1, 0)
        state.refresh_counts(high.id, {"pending": 1}, 0, 0)
        state.refresh_counts(new.id, {"pending": 2}, 0, 0)
        state.refresh_counts(low.id, {"pending": 1}, 0, 0)
        assert [c.id for c in state.schedule()] \
            == [high.id, old.id, new.id, low.id]

    def test_cancelled_campaigns_are_never_offered(self):
        state = make_state()
        record = submit(state)
        state.mark_active(record.id)
        state.refresh_counts(record.id, {"pending": 1}, 0, 0)
        state.cancel(record.id)
        assert state.schedule() == []

    def test_snapshot_reports_gauges(self):
        state = make_state()
        record = submit(state, workloads=("astar", "bfs"))
        snap = state.snapshot()
        assert snap["by_status"] == {"queued": 1}
        assert snap["queued_points"] == 2
        assert snap["campaigns"][0]["id"] == record.id
