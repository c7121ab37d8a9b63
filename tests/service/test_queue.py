"""ServiceState contracts: validation, back-pressure, fairness, quotas."""

import pytest

from repro.core import CoreConfig
from repro.harness.simulator import ENGINES, RunConfig
from repro.phelps import PhelpsConfig
from repro.service.queue import (MAX_POINTS_PER_CAMPAIGN, BackPressure,
                                 ServiceState, TenantPolicy, ValidationError,
                                 configs_from_spec, validate_spec)

KNOWN = ("astar", "bfs", "sssp", "perlbench")


def make_state(**kwargs):
    kwargs.setdefault("max_queued_points", 100)
    return ServiceState(KNOWN, **kwargs)


def submit(state, workloads=("astar",), engines=("baseline",),
           tenant="default", priority=0, instructions=1000):
    return state.submit({"workloads": list(workloads),
                         "engines": list(engines),
                         "instructions": instructions,
                         "tenant": tenant, "priority": priority},
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
        state = make_state(max_queued_points=5, retry_after=7.0)
        submit(state, workloads=("astar", "bfs"),
               engines=("baseline", "phelps"))  # 4 queued
        with pytest.raises(BackPressure) as exc:
            submit(state, workloads=("astar", "bfs"),
                   engines=("baseline",))       # +2 would cross 5
        assert exc.value.retry_after == 7.0
        assert exc.value.depth == 4
        # A submission that still fits goes through.
        assert submit(state).total_points == 1

    def test_finished_points_free_queue_depth(self):
        state = make_state(max_queued_points=4)
        record = submit(state, workloads=("astar", "bfs"),
                        engines=("baseline", "phelps"))
        state.mark_active(record.id)
        state.refresh_counts(record.id, {"done": 4}, 0, 0)
        assert state.queue_depth() == 0
        submit(state)  # no BackPressure

    def test_bad_tenant_rejected(self):
        state = make_state()
        with pytest.raises(ValidationError):
            submit(state, tenant="a/b")

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

    def test_weighted_fair_order_prefers_starved_tenant(self):
        state = make_state(
            tenants={"big": TenantPolicy(weight=1.0),
                     "small": TenantPolicy(weight=1.0)})
        a = submit(state, tenant="big", workloads=("astar", "bfs"))
        b = submit(state, tenant="small", workloads=("astar", "bfs"))
        state.mark_active(a.id)
        state.mark_active(b.id)
        state.refresh_counts(a.id, {"pending": 1, "running": 1}, 1, 0)
        state.refresh_counts(b.id, {"pending": 2}, 0, 0)
        # big already holds a lease; small's deficit is lower.
        assert [c.id for c in state.schedule()] == [b.id, a.id]

    def test_weight_scales_the_fair_share(self):
        state = make_state(
            tenants={"heavy": TenantPolicy(weight=4.0)})
        a = submit(state, tenant="heavy", workloads=("astar", "bfs"))
        b = submit(state, tenant="light", workloads=("astar", "bfs"))
        state.mark_active(a.id)
        state.mark_active(b.id)
        state.refresh_counts(a.id, {"pending": 1, "running": 2}, 2, 0)
        state.refresh_counts(b.id, {"pending": 1, "running": 1}, 1, 0)
        # heavy: 2 leased / weight 4 = 0.5 < light: 1 / 1 = 1.0
        assert [c.id for c in state.schedule()] == [a.id, b.id]

    def test_quota_capped_tenant_is_skipped(self):
        state = make_state(
            tenants={"small": TenantPolicy(max_leased=1)})
        a = submit(state, tenant="small", workloads=("astar", "bfs"))
        b = submit(state, tenant="other")
        state.mark_active(a.id)
        state.mark_active(b.id)
        state.refresh_counts(a.id, {"pending": 1, "running": 1}, 1, 0)
        state.refresh_counts(b.id, {"pending": 1}, 0, 0)
        eligible = [c.id for c in state.schedule()]
        assert a.id not in eligible   # at quota
        assert b.id in eligible       # other tenants proceed

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
        assert state.tenant_queue_depth() == {"default": 2}
