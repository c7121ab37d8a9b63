"""Lease-layer contracts on the point table: claiming, fencing,
idempotent completion, expiry, retries, release, audit-run leases, and
the answers to repeated requests.

Expiry is driven by an injected ``now`` — no test here sleeps.  Every
transition must also be written through: the journal on disk always
equals the table in memory.
"""

import pytest

from repro.harness.campaign import CampaignJournal
from repro.harness.lease import (APPLIED, MAX_AUDIT_ATTEMPTS, REPEAT, STALE,
                                 LeaseLost, PointTable)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

T0 = 1_000_000.0   # an arbitrary "now" for the injected clock


def make_table(tmp_path, keys=("a", "b")):
    root = tmp_path / "camp"
    root.mkdir()
    journal = CampaignJournal(root)
    journal.write_manifest({
        "schema": 1, "spec": {},
        "points": [{"key": k, "workload": "w", "engine": "e"}
                   for k in keys],
        "interruptions": [],
    })
    for k in keys:
        journal.mark(k, "pending")
    return PointTable.load(journal)


def on_disk(table, key):
    return CampaignJournal(table.root).read_point(key)


class TestClaim:
    def test_claim_pending_point(self, tmp_path):
        table = make_table(tmp_path)
        doc = table.claim("a", "w1", lease_seconds=30, now=T0)
        assert doc["status"] == "running"
        assert doc["worker"] == "w1"
        assert doc["attempts"] == 1
        assert doc["lease_expires_unix"] == T0 + 30
        assert on_disk(table, "a") == doc   # written through

    def test_second_claim_of_same_generation_loses(self, tmp_path):
        table = make_table(tmp_path)
        assert table.claim("a", "w1", now=T0) is not None
        assert table.claim("a", "w2", now=T0) is None

    def test_done_and_running_are_not_claimable(self, tmp_path):
        table = make_table(tmp_path)
        table.mark("a", "done", entry={"cycles": 1})
        assert table.claim("a", "w1", now=T0) is None
        table.claim("b", "w1", now=T0)
        assert table.claim("b", "w2", now=T0) is None

    def test_claim_next_skips_contended_keys(self, tmp_path):
        table = make_table(tmp_path, keys=("a", "b"))
        assert table.claim("a", "w1", now=T0) is not None
        key, doc = table.claim_next("w2", now=T0)
        assert key == "b"
        assert doc["worker"] == "w2"
        assert table.claim_next("w3", now=T0) is None

    def test_claim_next_follows_manifest_order(self, tmp_path):
        table = make_table(tmp_path, keys=("z", "a", "m"))
        order = [table.claim_next(w, now=T0)[0] for w in ("w1", "w2", "w3")]
        assert order == ["z", "a", "m"]

    def test_repeated_claim_returns_the_held_point(self, tmp_path):
        """A duplicated /claim must not lease a second point the worker
        never learns about: it would sit leased until it lapsed, then
        requeue with the worker blamed in ``failed_workers``."""
        table = make_table(tmp_path, keys=("a", "b"))
        key, first = table.claim_next("W", now=T0)
        again, second = table.claim_next("W", now=T0 + 1)
        assert (again, second) == (key, first)   # no transition either
        assert table.read_point("b")["status"] == "pending"
        assert table.reap(now=T0 + 3600) == [("a", "lease_expired", "W")]
        assert table.read_point("b").get("failed_workers") is None

    def test_many_rounds_of_racing_never_double_claim(self, tmp_path):
        """Every generation is claimable exactly once even across many
        requeue cycles."""
        table = make_table(tmp_path, keys=("p",))
        for round_no in range(10):
            winners = [table.claim("p", f"w{i}", now=T0) for i in range(3)]
            assert sum(w is not None for w in winners) == 1, round_no
            holder = next(w["worker"] for w in winners if w)
            assert table.release("p", holder) is True
        assert table.read_point("p")["generation"] == 10


class TestLeaseExpiry:
    def test_reaper_requeues_expired_lease(self, tmp_path):
        table = make_table(tmp_path, keys=("p", "q"))
        table.claim("p", "dead", lease_seconds=1, now=T0)
        table.claim("q", "alive", lease_seconds=60, now=T0)
        reaped = table.reap(now=T0 + 5)
        assert reaped == [("p", "lease_expired", "dead")]
        p = table.read_point("p")
        assert p["status"] == "pending"
        assert p["requeued"] == "lease_expired"
        assert p["generation"] == 1
        assert p["failed_workers"] == ["dead"]
        assert on_disk(table, "p") == p
        # The healthy lease is untouched.
        assert table.read_point("q")["status"] == "running"
        assert table.read_point("q")["worker"] == "alive"
        # The requeued point is claimable again, one attempt later.
        key, doc = table.claim_next("w2", now=T0 + 5)
        assert (key, doc["attempts"], doc["generation"]) == ("p", 2, 1)

    def test_renewal_after_requeue_raises_lease_lost(self, tmp_path):
        table = make_table(tmp_path, keys=("p",))
        table.claim("p", "w1", lease_seconds=1, now=T0)
        table.reap(now=T0 + 5)
        with pytest.raises(LeaseLost):
            table.renew("p", "w1", now=T0 + 5)
        # ...and after a new claim, the old owner is fenced by identity.
        table.claim("p", "w2", now=T0 + 5)
        with pytest.raises(LeaseLost) as exc:
            table.renew("p", "w1", now=T0 + 5)
        assert exc.value.holder == "w2"

    def test_renewal_extends_and_folds_heartbeat(self, tmp_path):
        table = make_table(tmp_path, keys=("p",))
        table.claim("p", "w1", lease_seconds=30, now=T0)
        doc = table.renew("p", "w1", lease_seconds=30, now=T0 + 20,
                          hb={"retired": 500, "instructions": 1000})
        assert doc["hb"]["retired"] == 500
        assert doc["lease_expires_unix"] == T0 + 50
        assert table.reap(now=T0 + 40) == []   # renewed past the reap
        assert on_disk(table, "p")["hb"] == {"retired": 500,
                                             "instructions": 1000}

    def test_failed_points_retry_up_to_cap(self, tmp_path):
        table = make_table(tmp_path, keys=("p",))
        table.claim("p", "w1", now=T0)
        table.fail("p", "w1", "boom")
        assert table.reap(now=T0, max_attempts=0) == []  # retries off
        assert table.reap(now=T0, max_attempts=2) == [("p", "retry", "w1")]
        table.claim("p", "w1", now=T0)  # attempts -> 2
        table.fail("p", "w1", "boom again")
        assert table.reap(now=T0, max_attempts=2) == []  # cap reached
        assert table.read_point("p")["status"] == "failed"

    def test_summary_counts_leases_and_owed_retries(self, tmp_path):
        table = make_table(tmp_path, keys=("a", "b", "c"))
        table.claim("a", "w1", lease_seconds=10, now=T0)
        table.claim("b", "w1", lease_seconds=1, now=T0)
        table.claim("c", "w1", now=T0)
        table.fail("c", "w1", "boom")
        counts, leased, expired, retrying, audits = table.summary(
            now=T0 + 5, max_attempts=2)
        assert counts == {"running": 2, "failed": 1}
        assert (leased, expired, retrying, audits) == (1, 1, 1, 0)
        assert table.summary(now=T0 + 5, max_attempts=1)[3] == 0


class TestCompletion:
    def test_double_completion_is_idempotent(self, tmp_path):
        table = make_table(tmp_path, keys=("p",))
        table.claim("p", "w1", now=T0)
        assert table.complete("p", "w1", {"cycles": 10}) == APPLIED
        # A fenced-out worker finishing anyway: first done wins.
        assert table.complete("p", "w2", {"cycles": 10}) == STALE
        # The winner's own repeat is answered from the shard.
        assert table.complete("p", "w1", {"cycles": 666}) == REPEAT
        doc = on_disk(table, "p")
        assert doc["completed_by"] == "w1"
        assert doc["entry"] == {"cycles": 10}
        assert table.results() == {"p": {"cycles": 10}}

    def test_completion_strips_lease_fields(self, tmp_path):
        table = make_table(tmp_path, keys=("p",))
        table.claim("p", "w1", now=T0)
        table.renew("p", "w1", hb={"retired": 1}, now=T0)
        table.complete("p", "w1", {"cycles": 10})
        doc = on_disk(table, "p")
        for field in ("worker", "lease_expires_unix",
                      "lease_renewed_unix", "hb"):
            assert field not in doc, field

    def test_release_hands_point_back(self, tmp_path):
        table = make_table(tmp_path, keys=("p",))
        table.claim("p", "w1", now=T0)
        assert table.release("p", "w2") is False   # not the holder
        assert table.release("p", "w1") is True
        doc = on_disk(table, "p")
        assert doc["status"] == "pending"
        assert doc["requeued"] == "released"
        assert table.release("p", "w1") is False  # not ours now

    def test_unknown_keys_are_refused(self, tmp_path):
        table = make_table(tmp_path, keys=("p",))
        assert table.claim("nope", "w1", now=T0) is None
        assert table.complete("nope", "w1", {"cycles": 1}) == STALE
        assert table.fail("nope", "w1", "boom") == STALE
        assert table.release("nope", "w1") is False
        with pytest.raises(LeaseLost):
            table.renew("nope", "w1", now=T0)
        assert not (table.root / "nope.json").exists()


class TestFailFencing:
    def test_stale_fail_never_touches_another_workers_lease(self, tmp_path):
        table = make_table(tmp_path, keys=("p",))
        table.claim("p", "w1", lease_seconds=1, now=T0)   # generation 0
        table.reap(now=T0 + 5)                            # w1's lease lapsed
        assert table.claim("p", "w2", now=T0 + 5)["generation"] == 1
        outcome = table.fail("p", "w1", "late")
        doc = on_disk(table, "p")
        assert (doc["status"], doc["worker"]) == ("running", "w2")
        assert doc.get("failed_workers") == ["w1"]   # the reaper's blame only
        assert outcome == STALE
        assert table.fail("p", "w1", "late", generation=0) == STALE
        # Nor does a fail un-done a finished point, even the holder's own.
        assert table.complete("p", "w2", {"cycles": 10}) == APPLIED
        outcome = table.fail("p", "w2", "late")
        assert on_disk(table, "p")["status"] == "done"
        assert table.results() == {"p": {"cycles": 10}}
        assert outcome == STALE
        assert table.fail("p", "w2", "late", generation=1) == STALE

    def test_fail_needs_the_claimed_generation(self, tmp_path):
        table = make_table(tmp_path, keys=("p",))
        table.claim("p", "w1", now=T0)
        table.release("p", "w1")
        table.claim("p", "w1", now=T0)                # generation 1 now
        assert table.fail("p", "w1", "old attempt", generation=0) == STALE
        assert table.read_point("p")["status"] == "running"
        assert table.fail("p", "w1", "boom", generation=1) == APPLIED

    def test_repeated_fail_is_answered_without_a_transition(self, tmp_path):
        table = make_table(tmp_path, keys=("p",))
        table.claim("p", "w1", now=T0)
        assert table.fail("p", "w1", "boom", generation=0) == APPLIED
        before = on_disk(table, "p")
        assert table.fail("p", "w1", "boom", generation=0) == REPEAT
        assert table.fail("p", "w2", "boom", generation=0) == STALE
        assert on_disk(table, "p") == before
        assert before["failed_workers"] == ["w1"]


def audited_table(tmp_path):
    """Point "p" completed by w1 with a pending audit."""
    table = make_table(tmp_path, keys=("p", "q"))
    table.claim("p", "w1", now=T0)
    table.complete("p", "w1", {"cycles": 10})
    table.mark("p", "done", audit={"status": "pending"})
    return table


class TestAuditLease:
    def test_audit_run_is_pinned_away_from_the_completer(self, tmp_path):
        table = audited_table(tmp_path)
        assert table.claim_audit("w1", now=T0) is None
        key, shard = table.claim_audit("w2", lease_seconds=30, now=T0)
        assert key == "p" and "entry" not in shard   # the auditor is blind
        audit = on_disk(table, "p")["audit"]
        assert (audit["status"], audit["worker"], audit["attempts"],
                audit["lease_expires_unix"]) == ("running", "w2", 1, T0 + 30)
        assert table.claim_audit("w3", now=T0) is None
        # A repeated claim gets the held audit back, like a held point.
        assert table.claim_next("w2", now=T0) == (key, shard)
        assert table.read_point("q")["status"] == "pending"

    def test_audit_lease_renews_counts_and_lapses(self, tmp_path):
        table = audited_table(tmp_path)
        table.claim_audit("w2", lease_seconds=10, now=T0)
        table.renew("p", "w2", lease_seconds=10, now=T0 + 5)
        with pytest.raises(LeaseLost):
            table.renew("p", "w3", now=T0 + 5)
        assert table.summary(now=T0 + 12)[1:] == (1, 0, 0, 1)
        assert table.reap(now=T0 + 12) == []
        assert table.summary(now=T0 + 20)[1:] == (0, 1, 0, 1)
        assert table.reap(now=T0 + 20) == [("p", "lease_expired", "w2")]
        doc = on_disk(table, "p")
        assert doc["status"] == "done" and doc["entry"] == {"cycles": 10}
        assert doc["audit"]["status"] == "pending"
        assert "worker" not in doc["audit"]
        assert doc.get("failed_workers") is None   # the point is not blamed
        with pytest.raises(LeaseLost):
            table.renew("p", "w2", now=T0 + 20)
        assert table.claim_audit("w3", now=T0 + 20)[0] == "p"

    def test_failed_audit_runs_requeue_up_to_the_cap(self, tmp_path):
        table = audited_table(tmp_path)
        for attempt in range(1, MAX_AUDIT_ATTEMPTS + 1):
            table.claim_audit("w2", now=T0)
            assert table.fail("p", "w2", "boom") == APPLIED
            assert table.fail("p", "w2", "boom") == STALE   # not w2's now
            audit = on_disk(table, "p")["audit"]
            assert audit["attempts"] == attempt
        assert audit["status"] == "unresolved"
        assert table.claim_audit("w3", now=T0) is None
        assert table.summary(now=T0)[4] == 0    # no longer holds it open
        assert table.results() == {"p": {"cycles": 10}}


class TestPrepareFencing:
    def test_resume_strips_lease_and_bumps_generation(self, tmp_path):
        """``sweep --resume`` over a leased campaign fences live workers:
        activation requeues the table's running points with a generation
        bump, so the old owner's renewals raise LeaseLost — in the resumed
        table and in any table loaded from the resumed journal."""
        from repro.harness.campaign import activate
        from repro.harness.simulator import RunConfig

        journal = CampaignJournal(tmp_path / "c")
        journal.root.mkdir()
        configs = [RunConfig(workload="astar", engine="baseline",
                             max_instructions=1000)]
        key = configs[0].cache_key()
        activate(journal, configs)[0].claim(key, "w1", now=T0)
        resumed, _ = activate(journal, configs)  # the resume path
        for table in (resumed, PointTable.load(journal)):
            doc = table.read_point(key)
            assert doc["status"] == "pending"
            assert doc["generation"] == 1
            assert doc["requeued"] == "resumed"
            assert "worker" not in doc
            with pytest.raises(LeaseLost):
                table.renew(key, "w1", now=T0)
