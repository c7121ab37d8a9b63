"""Result integrity: sampled audits, arbitration, quarantine, poison.

The acceptance bar is the ISSUE-10 chaos sweep: a corrupting worker's
entries are detected by audit re-execution, arbitrated away, and the
finished campaign is bit-identical to a clean local ``run_campaign``;
the bad worker ends quarantined and a crash-looping point reaches the
terminal ``poisoned`` status without stalling the rest of the sweep.
"""

import dataclasses
import json
import threading
import time

import pytest

from repro.core import CoreConfig
from repro.harness.campaign import (CampaignJournal, entry_fingerprint,
                                    run_campaign)
from repro.harness.runcache import entry_from_result
from repro.harness.simulator import RunConfig, simulate
from repro.obs.events import EventTrace
from repro.obs.live import live_view, render_watch
from repro.service.daemon import CampaignService, ServiceConfig
from repro.service.integrity import (IntegrityConfig, IntegrityMonitor,
                                     WorkerReputation, should_audit)
from repro.harness.lease import PointTable
from repro.service.queue import configs_from_spec
from repro.service.worker import INJECT_ENV

from tests.service.test_daemon import get, post, quick_config, wait_for

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

SPEC = {"workloads": ["astar", "perlbench"],
        "engines": ["baseline", "phelps"], "instructions": 1500}


T0 = 1_000_000.0   # injected clock for lease expiry


def make_journal(tmp_path, keys=("p",)):
    """A campaign's point table (the daemon's single writer) over a
    fresh journal; shards on disk follow every transition."""
    journal = CampaignJournal(tmp_path / "camp")
    journal.root.mkdir(parents=True)
    journal.write_manifest({
        "schema": 1, "spec": {},
        "points": [{"key": k, "workload": "w", "engine": "e"}
                   for k in keys]})
    for k in keys:
        journal.mark(k, "pending")
    return PointTable.load(journal)


class TestShouldAudit:
    def test_deterministic_and_seed_sensitive(self):
        keys = [f"k{i}" for i in range(400)]
        first = [should_audit(k, 0.3, seed=7) for k in keys]
        assert first == [should_audit(k, 0.3, seed=7) for k in keys]
        assert first != [should_audit(k, 0.3, seed=8) for k in keys]

    def test_rate_extremes_and_proportion(self):
        keys = [f"k{i}" for i in range(1000)]
        assert not any(should_audit(k, 0.0) for k in keys)
        assert all(should_audit(k, 1.0) for k in keys)
        hits = sum(should_audit(k, 0.25, seed=3) for k in keys)
        assert 150 < hits < 350  # ~250 expected; loose statistical bound

    def test_higher_rate_is_superset_in_expectation(self):
        keys = [f"k{i}" for i in range(500)]
        low = {k for k in keys if should_audit(k, 0.1, seed=5)}
        high = {k for k in keys if should_audit(k, 0.6, seed=5)}
        assert low <= high  # same draw per key, only the cut moves


class TestWorkerReputation:
    def test_threshold_crossing_quarantines_once(self):
        rep = WorkerReputation(threshold=5.0, window=600.0)
        assert rep.record("w1", "mismatch") is False   # 4.0 < 5.0
        assert rep.score("w1") == 4.0
        assert rep.record("w1", "lease_expired") is True   # 5.0 crosses
        assert rep.is_quarantined("w1")
        # Already quarantined: further events never "re-quarantine".
        assert rep.record("w1", "mismatch") is False
        assert rep.quarantined() == {"w1": "lease_expired+mismatch"}
        assert not rep.is_quarantined("w2")

    def test_events_age_out_of_the_window(self):
        now = [0.0]
        rep = WorkerReputation(threshold=5.0, window=10.0,
                               clock=lambda: now[0])
        rep.record("w1", "mismatch")           # t=0, weight 4
        now[0] = 20.0                          # ...falls out of window
        assert rep.score("w1") == 0.0
        assert rep.record("w1", "mismatch") is False  # 4.0 again, clean
        assert not rep.is_quarantined("w1")

    def test_anonymous_workers_are_ignored(self):
        rep = WorkerReputation(threshold=1.0)
        assert rep.record("", "mismatch") is False
        assert rep.record("?", "mismatch") is False
        assert rep.quarantined() == {}


class TestPoisonBreaker:
    def test_distinct_worker_failures_poison_terminally(self, tmp_path):
        table = make_journal(tmp_path)
        for worker in ("w1", "w2"):
            table.claim("p", worker, now=T0)
            table.fail("p", worker, "boom")
            reaped = table.reap(now=T0, max_attempts=5, poison_distinct=3)
            assert reaped == [("p", "retry", worker)]
        table.claim("p", "w3", now=T0)
        table.fail("p", "w3", "boom")
        reaped = table.reap(now=T0, max_attempts=5, poison_distinct=3)
        assert reaped == [("p", "poisoned", "w3")]
        doc = CampaignJournal(table.root).read_point("p")
        assert doc["status"] == "poisoned"
        assert sorted(doc["failed_workers"]) == ["w1", "w2", "w3"]
        # Terminal: no amount of reaping resurrects it.
        assert table.reap(now=T0, max_attempts=99,
                          poison_distinct=3) == []

    def test_same_worker_retries_never_poison(self, tmp_path):
        table = make_journal(tmp_path)
        for _ in range(3):
            table.claim("p", "w1", now=T0)
            table.fail("p", "w1", "boom")
            table.reap(now=T0, max_attempts=10, poison_distinct=2)
        # One worker failing repeatedly is that worker's problem, not
        # proof the point is poisoned.
        assert table.read_point("p")["status"] != "poisoned"

    def test_lease_expiries_count_as_distinct_failures(self, tmp_path):
        table = make_journal(tmp_path)
        table.claim("p", "w1", lease_seconds=1, now=T0)
        assert table.reap(now=T0 + 2, poison_distinct=2) \
            == [("p", "lease_expired", "w1")]
        table.claim("p", "w2", lease_seconds=1, now=T0 + 2)
        # Second distinct silent death: the crash-loop breaker fires
        # even though neither worker ever reported a failure.
        assert table.reap(now=T0 + 4, poison_distinct=2) \
            == [("p", "poisoned", "w2")]
        assert CampaignJournal(table.root).read_point("p")["status"] \
            == "poisoned"


class TestMonitorUnit:
    def _monitor(self, **overrides):
        kwargs = dict(audit_rate=1.0, quarantine_threshold=4.0)
        kwargs.update(overrides)
        return IntegrityMonitor(IntegrityConfig(**kwargs),
                                events=EventTrace())

    def _done(self, journal, key, worker, entry):
        journal.mark(key, "done", entry=entry, completed_by=worker,
                     source="worker")
        return journal.read_point(key)

    def test_audit_lifecycle_pass(self, tmp_path):
        journal = make_journal(tmp_path)
        monitor = self._monitor()
        shard = self._done(journal, "p", "w1", {"cycles": 10})
        assert monitor.consider("c1", journal, "p", shard) is True
        assert journal.summary(now=T0)[4] == 1   # holds the campaign open
        # The audit run leases through the table, pinned away from the
        # original completer.
        assert journal.claim_audit("w1", now=T0) is None
        key, ashard = journal.claim_audit("w2", now=T0)
        assert key == "p" and ashard["audit"]["worker"] == "w2"
        # Only the auditor's completion is the audit vote.
        assert monitor.on_audit_complete(
            "c1", journal, "p", "w9", {"cycles": 10}) is None
        verdict = monitor.on_audit_complete(
            "c1", journal, "p", "w2", {"cycles": 10})
        assert verdict == {"audit": "passed"}
        assert journal.summary(now=T0)[4] == 0
        assert journal.read_point("p")["audit"]["status"] == "passed"
        assert monitor.counters()["audits_passed"] == 1

    def test_mismatch_arbitration_repairs_and_quarantines(self, tmp_path):
        journal = make_journal(tmp_path)
        good = {"cycles": 10, "ipc": 1.0}
        bad = {"cycles": 11, "ipc": 1.0}
        monitor = self._monitor()
        monitor.run_config = lambda config: good   # honest tie-breaker
        shard = self._done(journal, "p", "w1", bad)
        monitor.consider("c1", journal, "p", shard)
        journal.claim_audit("w2", now=T0)
        verdict = monitor.on_audit_complete(
            "c1", journal, "p", "w2", good, config=object(),
            arbitrate_async=False)
        assert verdict == {"audit": "mismatch"}
        repaired = journal.read_point("p")
        assert repaired["entry"] == good
        assert repaired["completed_by"] == "w2"
        assert repaired["source"] == "audit"
        assert repaired["repaired_from"] == "w1"
        assert repaired["audit"]["status"] == "repaired"
        # Evidence: the losing entry quarantined, the report bundle kept.
        assert (journal.root / "p.audit-loser.json.corrupt").exists()
        report = json.loads((journal.root / "p.integrity.json").read_text())
        assert report["verdict"] == "repaired"
        assert report["blamed_worker"] == "w1"
        # One mismatch at threshold 4.0 quarantines the liar.
        assert monitor.is_quarantined("w1")
        assert {e.name for e in monitor.events.buffer} >= {
            "audit_mismatch", "worker_quarantined", "shard_quarantined"}
        counters = monitor.counters()
        assert counters["audit_mismatches"] == 1
        assert counters["audits_repaired"] == 1

    def test_corrupt_audit_run_is_rejected_not_installed(self, tmp_path):
        journal = make_journal(tmp_path)
        good = {"cycles": 10}
        monitor = self._monitor()
        monitor.run_config = lambda config: good
        shard = self._done(journal, "p", "w1", good)
        monitor.consider("c1", journal, "p", shard)
        journal.claim_audit("w2", now=T0)
        monitor.on_audit_complete("c1", journal, "p", "w2",
                                  {"cycles": 99}, config=object(),
                                  arbitrate_async=False)
        kept = journal.read_point("p")
        assert kept["entry"] == good            # original survives 2:1
        assert kept["audit"]["status"] == "rejected"
        assert monitor.is_quarantined("w2")     # the auditor lied
        assert monitor.counters()["audits_rejected"] == 1

    def test_late_third_party_completion_is_not_the_audit_vote(
            self, tmp_path):
        journal = make_journal(tmp_path)
        monitor = self._monitor()
        shard = self._done(journal, "p", "w1", {"cycles": 10})
        monitor.consider("c1", journal, "p", shard)
        journal.claim_audit("w2", now=T0)
        assert monitor.on_audit_complete(
            "c1", journal, "p", "w3", {"cycles": 10}) is None

    def test_sampled_out_points_are_marked_skipped_once(self, tmp_path):
        journal = make_journal(tmp_path)
        monitor = self._monitor(audit_rate=0.0)
        # rate 0 never samples... but consider() still stamps the shard
        # so the next scan skips it without redrawing.
        shard = self._done(journal, "p", "w1", {"cycles": 10})
        assert monitor.consider("c1", journal, "p", shard) is False
        stamped = journal.read_point("p")
        assert stamped["audit"] == {"status": "skipped"}
        assert monitor.consider("c1", journal, "p", stamped) is False
        assert monitor.counters()["audits_scheduled"] == 0

    def test_cache_and_audit_sources_are_never_sampled(self, tmp_path):
        journal = make_journal(tmp_path, keys=("p", "q"))
        monitor = self._monitor()
        journal.mark("p", "done", entry={"cycles": 1}, source="cache")
        journal.mark("q", "done", entry={"cycles": 2}, source="audit")
        assert monitor.consider("c1", journal, "p",
                                journal.read_point("p")) is False
        assert monitor.consider("c1", journal, "q",
                                journal.read_point("q")) is False

    def test_reloaded_table_restores_audit_leases(self, tmp_path):
        journal = make_journal(tmp_path)
        monitor = self._monitor()
        shard = self._done(journal, "p", "w1", {"cycles": 10})
        monitor.consider("c1", journal, "p", shard)
        journal.claim_audit("w2", lease_seconds=10, now=T0)  # at "crash"
        # The restarted daemon loads the audit lease like any other.
        reloaded = PointTable.load(CampaignJournal(journal.root))
        assert reloaded.summary(now=T0 + 1)[1:] == (1, 0, 0, 1)
        assert reloaded.held("w2")[0] == "p"
        assert reloaded.claim_audit("w3", now=T0 + 1) is None
        # Its auditor never comes back: the lease lapses and requeues.
        assert reloaded.reap(now=T0 + 11) == [("p", "lease_expired", "w2")]
        key, _ = reloaded.claim_audit("w3", now=T0 + 11)
        assert key == "p"

    def test_audit_subdocument_is_fingerprint_neutral(self, tmp_path):
        """The heartbeat-parity invariant: audit state rides outside the
        entry, so neither the stored fingerprint nor the cache key of
        an audited point ever changes."""
        journal = make_journal(tmp_path)
        monitor = self._monitor()
        entry = {"cycles": 10, "ipc": 1.5}
        before = entry_fingerprint(entry)
        shard = self._done(journal, "p", "w1", entry)
        monitor.consider("c1", journal, "p", shard)
        journal.claim_audit("w2", now=T0)
        monitor.on_audit_complete("c1", journal, "p", "w2", dict(entry))
        after = journal.read_point("p")
        assert after["audit"]["status"] == "passed"
        assert entry_fingerprint(after["entry"]) == before


class TestHeartbeatParity:
    def test_audit_reexecution_is_bit_identical_to_silent_run(self):
        """An audit run renews its lease from the heartbeat hook exactly
        like a first execution; neither the hook nor the audit path may
        perturb the simulation, so fingerprints (and the cache key the
        entry files under) must match a silent run bit-for-bit."""
        config = configs_from_spec({"workloads": ["astar"],
                                    "engines": ["baseline"],
                                    "instructions": 1500})[0]
        silent = entry_from_result(simulate(config))
        beats = []
        audited = entry_from_result(simulate(
            config, on_heartbeat=beats.append, heartbeat_interval=0.001))
        assert entry_fingerprint(silent) == entry_fingerprint(audited)
        assert config.cache_key() == config.cache_key()  # pure function
        assert beats or True  # heartbeats are best-effort on tiny runs


class TestCompleteValidation:
    def test_embedded_config_must_mint_the_claimed_key(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            _, doc, _ = post(f"{svc.url}/campaigns", SPEC)
            cid = doc["id"]
            wait_for(lambda: get(f"{svc.url}/campaigns/{cid}")[1].get(
                "status") == "active", timeout=30, what="activation")
            code, claim, _ = post(f"{svc.url}/claim", {"worker": "w1"})
            assert code == 200 and claim["key"]
            key = claim["key"]
            # An entry whose embedded config belongs to a different
            # point: reject 422, count it, and leave the point leased.
            lie = {"cycles": 1, "config": {
                "workload": "astar", "engine": "baseline",
                "max_instructions": 999_999}}
            code, body, _ = post(f"{svc.url}/complete",
                                 {"campaign": cid, "worker": "w1",
                                  "key": key, "entry": lie})
            assert code == 422
            assert body["error"] == "entry_config_mismatch"
            assert svc.integrity.complete_rejects == 1
            _, metrics = get(f"{svc.url}/metrics")
            assert "repro_service_complete_rejects_total 1" in metrics
            # An entry that embeds no config cannot be checked, so it
            # is refused too: stripping the config is no way around it.
            code, body, _ = post(f"{svc.url}/complete",
                                 {"campaign": cid, "worker": "w1",
                                  "key": key, "entry": {"cycles": 1}})
            assert (code, body["error"]) == (422, "entry_config_missing")
            assert svc.integrity.complete_rejects == 2
            assert svc._tables[cid].read_point(key)["status"] == "running"
            # The honest completion still lands.
            code, body, _ = post(f"{svc.url}/complete",
                                 {"campaign": cid, "worker": "w1",
                                  "key": key, "entry": {
                                      "cycles": 1,
                                      "config": claim["config"]}})
            assert code == 200 and body["accepted"] is True

    def test_truthful_embedded_config_is_accepted(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            _, doc, _ = post(f"{svc.url}/campaigns", SPEC)
            cid = doc["id"]
            wait_for(lambda: get(f"{svc.url}/campaigns/{cid}")[1].get(
                "status") == "active", timeout=30, what="activation")
            _, claim, _ = post(f"{svc.url}/claim", {"worker": "w1"})
            # The claim carries the full RunConfig.to_dict().
            key, config_doc = claim["key"], claim["config"]
            assert RunConfig.from_dict(config_doc).cache_key() == key
            entry = {"cycles": 1, "config": config_doc}
            code, body, _ = post(f"{svc.url}/complete",
                                 {"campaign": cid, "worker": "w1",
                                  "key": key, "entry": entry})
            assert code == 200 and body["accepted"] is True
            assert svc.integrity.complete_rejects == 0

    def test_core_only_difference_is_rejected(self, tmp_path):
        """The whole embedded config is checked: an entry that matches
        the claimed point in workload, engine and budget but ran another
        core is a different point, and must not reach the run cache."""
        with CampaignService(quick_config(tmp_path)) as svc:
            _, doc, _ = post(f"{svc.url}/campaigns", SPEC)
            cid = doc["id"]
            wait_for(lambda: get(f"{svc.url}/campaigns/{cid}")[1].get(
                "status") == "active", timeout=30, what="activation")
            _, claim, _ = post(f"{svc.url}/claim", {"worker": "w1"})
            claimed = RunConfig.from_dict(claim["config"])
            other = dataclasses.replace(claimed,
                                        core=CoreConfig(pipeline_stages=19))
            entry = {"cycles": 1, "config": other.to_dict()}
            code, body, _ = post(f"{svc.url}/complete",
                                 {"campaign": cid, "worker": "w1",
                                  "key": claim["key"], "entry": entry})
            assert code == 422
            assert body["error"] == "entry_config_mismatch"
            assert svc.integrity.complete_rejects == 1


class TestRepeatedAuditPublish:
    ONE = {"workloads": ["astar"], "engines": ["baseline"],
           "instructions": 1500}

    def _audited(self, svc):
        """One point completed by w1 and its audit claimed by w2; the
        entry both publish."""
        _, doc, _ = post(f"{svc.url}/campaigns", self.ONE)
        cid = doc["id"]
        wait_for(lambda: svc.state.get(cid).status == "active",
                 timeout=30, what="activation")
        _, claim, _ = post(f"{svc.url}/claim", {"worker": "w1"})
        key = claim["key"]
        entry = {"cycles": 1, "config": claim["config"]}
        post(f"{svc.url}/complete", {"campaign": cid, "worker": "w1",
                                     "key": key, "entry": entry})
        _, audit, _ = post(f"{svc.url}/claim", {"worker": "w2"})
        assert (audit["campaign"], audit["key"], audit["audit"]) \
            == (cid, key, True)
        assert "entry" not in audit["shard"]   # the auditor is blind
        body = {"campaign": cid, "worker": "w2", "key": key,
                "generation": audit["shard"]["generation"]}
        return cid, key, body, entry

    def test_late_audit_fail_never_undoes_the_point(self, tmp_path):
        with CampaignService(quick_config(tmp_path, audit_rate=1.0)) as svc:
            cid, key, body, entry = self._audited(svc)
            fail = {**body, "error": "boom"}
            code, doc, _ = post(f"{svc.url}/fail", fail)
            assert (code, doc["audit"]) == (200, "pending")
            # The audit run is no longer w2's: the late copy reaches the
            # point table, which refuses to fail a done point.
            code, _doc, _ = post(f"{svc.url}/fail", fail)
            shard = svc._tables[cid].read_point(key)
            assert (shard["status"], shard["entry"]) == ("done", entry)
            assert key in svc._tables[cid].results()
            assert code == 409
            assert svc.http_duplicates == 1

    def test_repeated_audit_complete_is_answered_not_rescored(
            self, tmp_path):
        with CampaignService(quick_config(tmp_path, audit_rate=1.0)) as svc:
            cid, key, body, entry = self._audited(svc)
            done = {**body, "entry": entry}
            code, first, _ = post(f"{svc.url}/complete", done)
            assert (code, first["audit"]) == (200, "passed")
            code, again, _ = post(f"{svc.url}/complete", done)
            assert (code, again) == (200, first)
            assert svc.integrity.counters()["audits_passed"] == 1
            assert svc.integrity.reputation.score("w2") == 0.0
            assert svc.http_duplicates == 1


class TestAuditLeases:
    """An audit run is a lease in the point table: a silent auditor is
    reaped like a silent point worker, and a running audit holds the
    drain like a leased point."""

    LEASE = 60.0

    def _audit_claimed(self, svc):
        cid, key, body, entry = TestRepeatedAuditPublish()._audited(svc)
        return cid, key, entry

    def test_stranded_audit_is_reaped_and_runs_elsewhere(self, tmp_path):
        config = quick_config(tmp_path, audit_rate=1.0,
                              lease_seconds=self.LEASE)
        with CampaignService(config) as svc:
            cid, key, entry = self._audit_claimed(svc)   # w2 goes silent
            assert svc.state.get(cid).leased == 1
            reaped = svc._reap(now=time.time() + self.LEASE + 1)
            assert reaped == [(cid, key, "lease_expired", "w2")]
            audit = svc._tables[cid].read_point(key)["audit"]
            assert audit["status"] == "pending" and "worker" not in audit
            assert svc.lease_expirations == 1
            assert svc.integrity.reputation.score("w2") == 1.0
            assert svc.state.get(cid).status == "active"
            # The completer may not audit itself; a third worker may.
            _, claim, _ = post(f"{svc.url}/claim", {"worker": "w1"})
            assert claim == {"key": None}
            _, claim, _ = post(f"{svc.url}/claim", {"worker": "w3"})
            assert (claim["key"], claim["audit"]) == (key, True)
            code, doc, _ = post(f"{svc.url}/complete", {
                "campaign": cid, "worker": "w3", "key": key,
                "entry": entry})
            assert (code, doc["audit"]) == (200, "passed")
            assert svc.state.get(cid).status == "done"
            assert svc.state.get(cid).audits_pending == 0

    def test_running_audit_holds_the_drain(self, tmp_path):
        config = quick_config(tmp_path, audit_rate=1.0,
                              lease_seconds=self.LEASE)
        with CampaignService(config) as svc:
            cid, key, entry = self._audit_claimed(svc)
            drain = threading.Thread(target=svc.drain,
                                     kwargs={"drain_seconds": 60})
            drain.start()
            drain.join(timeout=0.5)
            assert drain.is_alive(), "drain ignored the audit lease"
            _, claim, _ = post(f"{svc.url}/claim", {"worker": "w3"})
            assert claim == {"key": None, "shutdown": True}
            # The audit run may still land while draining; then the
            # drain ends, with nothing left to interrupt.
            code, doc, _ = post(f"{svc.url}/complete", {
                "campaign": cid, "worker": "w2", "key": key,
                "entry": entry})
            assert (code, doc["audit"]) == (200, "passed")
            drain.join(timeout=10)
            assert not drain.is_alive()
            assert svc.state.get(cid).status == "done"
            manifest = CampaignJournal(svc.state.get(cid).dir) \
                .load_manifest()
            assert not manifest.get("interruptions")


class TestQuarantineStopsScheduling:
    def test_quarantined_worker_gets_no_schedule_or_claim(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            _, doc, _ = post(f"{svc.url}/campaigns", SPEC)
            cid = doc["id"]
            wait_for(lambda: get(f"{svc.url}/campaigns/{cid}")[1].get(
                "status") == "active", timeout=30, what="activation")
            # Healthy worker: handed a point.
            _, claim, _ = post(f"{svc.url}/claim", {"worker": "wbad"})
            assert (claim["campaign"], bool(claim["key"])) == (cid, True)
            # Two mismatches cross the default 5.0 threshold: the one
            # scheduling RPC answers shutdown, and there is no other.
            svc.integrity.record_misbehaviour("wbad", "mismatch")
            svc.integrity.record_misbehaviour("wbad", "mismatch")
            code, claim, _ = post(f"{svc.url}/claim", {"worker": "wbad"})
            assert code == 200
            assert claim == {"key": None, "shutdown": True,
                             "quarantined": True}
            assert get(f"{svc.url}/schedule?worker=wbad")[0] == 404
            # An innocent worker is unaffected.
            _, claim, _ = post(f"{svc.url}/claim", {"worker": "wgood"})
            assert (claim["campaign"], bool(claim["key"])) == (cid, True)
            _, metrics = get(f"{svc.url}/metrics")
            assert "repro_service_workers_quarantined 1" in metrics
            assert 'repro_service_worker_quarantined{worker="wbad"} 1' \
                in metrics
            assert "worker_quarantined" in {e.name
                                            for e in svc.events.buffer}


class TestAuditEndToEnd:
    def test_clean_fleet_audits_pass_and_results_stay_identical(
            self, tmp_path):
        """audit-rate 1.0 over an honest pool: every point re-executes
        on the other worker, every audit passes, nothing is rewritten,
        and the campaign only goes terminal once every audit has
        resolved."""
        config = quick_config(tmp_path, workers=2, audit_rate=1.0)
        with CampaignService(config) as svc:
            wait_for(lambda: svc.live_workers() == 2, timeout=30,
                     what="worker pool")
            _, doc, _ = post(f"{svc.url}/campaigns", SPEC)
            cid = doc["id"]
            record = wait_for(
                lambda: (lambda d: d if d and d.get("status") in
                         ("done", "failed") else None)(
                             get(f"{svc.url}/campaigns/{cid}")[1]),
                what="audited campaign to finish")
            assert record["status"] == "done", record
            counters = svc.integrity.counters()
            assert counters["audits_scheduled"] == 4
            assert counters["audits_passed"] == 4
            assert counters["audit_mismatches"] == 0
            assert record["audits_pending"] == 0
            for p in record["points"].values():
                assert p.get("audit", {}).get("status") == "passed"
            _, metrics = get(f"{svc.url}/metrics")
            assert "repro_service_audit_passed_total 4" in metrics
            _, results = get(f"{svc.url}/campaigns/{cid}/results")
        reference = run_campaign(configs_from_spec(SPEC), jobs=1)
        assert {k: entry_fingerprint(v)
                for k, v in results["results"].items()} \
            == {k: entry_fingerprint(v) for k, v in reference.items()}

    def test_corrupting_worker_is_caught_repaired_and_quarantined(
            self, tmp_path, monkeypatch):
        """The ISSUE-10 acceptance sweep: one of two pool workers
        silently corrupts every entry it publishes.  Audits catch each
        corruption, arbitration installs the honest entry, the corrupt
        worker's reputation crosses the line, and the finished results
        are bit-identical to a clean local run."""
        monkeypatch.setenv(INJECT_ENV, json.dumps(
            {"worker": "svc-w1", "corrupt_after_claims": 1}))
        config = quick_config(tmp_path, workers=2, audit_rate=1.0,
                              quarantine_threshold=4.0)
        with CampaignService(config) as svc:
            wait_for(lambda: svc.live_workers() == 2, timeout=30,
                     what="worker pool")
            _, doc, _ = post(f"{svc.url}/campaigns", SPEC)
            cid = doc["id"]
            record = wait_for(
                lambda: (lambda d: d if d and d.get("status") in
                         ("done", "failed") else None)(
                             get(f"{svc.url}/campaigns/{cid}")[1]),
                what="chaos campaign to finish")
            assert record["status"] == "done", record
            counters = svc.integrity.counters()
            assert counters["audits_scheduled"] >= 4
            assert counters["audit_mismatches"] >= 1
            assert (counters["audits_repaired"]
                    + counters["audits_rejected"]) >= 1
            assert svc.integrity.is_quarantined("svc-w1")
            # The quarantined worker obeys the shutdown answer and the
            # supervisor replaces its slot with a fresh identity.
            wait_for(lambda: svc.worker_respawns >= 1, timeout=30,
                     what="quarantined worker slot respawn")
            _, metrics = get(f"{svc.url}/metrics")
            assert "repro_service_audit_mismatches_total 0" not in metrics
            assert 'repro_service_worker_quarantined{worker="svc-w1"} 1' \
                in metrics
            names = {e.name for e in svc.events.buffer}
            assert {"audit_mismatch", "worker_quarantined"} <= names
            # The diagnostic trail: integrity bundles + quarantined
            # loser entries beside the journal.
            journal_dir = tmp_path / "svc" / cid
            assert list(journal_dir.glob("*.integrity.json"))
            assert list(journal_dir.glob("*.corrupt"))
            _, results = get(f"{svc.url}/campaigns/{cid}/results")
        # The served journal, repairs included, passes the offline gate.
        from repro.cli import main
        assert main(["audit", str(journal_dir), "--rate", "1.0", "-q"]) == 0
        reference = run_campaign(configs_from_spec(SPEC), jobs=1)
        assert {k: entry_fingerprint(v)
                for k, v in results["results"].items()} \
            == {k: entry_fingerprint(v) for k, v in reference.items()}

    def test_crash_looping_point_poisons_without_stalling_the_sweep(
            self, tmp_path, monkeypatch):
        """Every worker fails the astar points (a deterministic
        pathological config); after two distinct workers burn on each,
        the breaker declares them poisoned, and the perlbench half of
        the sweep still finishes bit-identical to a clean run."""
        monkeypatch.setenv(INJECT_ENV, json.dumps(
            {"worker": "*", "fail_workload": "astar"}))
        config = quick_config(tmp_path, workers=2, max_attempts=10,
                              poison_workers=2)
        with CampaignService(config) as svc:
            # Both workers must be polling before the sweep starts: one
            # worker alone can burn a point's whole retry budget (a
            # same-worker loop never poisons, by design).
            wait_for(lambda: all(f'worker="svc-w{i}"' in get(
                f"{svc.url}/metrics")[1] for i in (1, 2)), timeout=30,
                what="both pool workers polling")
            _, doc, _ = post(f"{svc.url}/campaigns", SPEC)
            cid = doc["id"]
            record = wait_for(
                lambda: (lambda d: d if d and d.get("status") in
                         ("done", "failed") else None)(
                             get(f"{svc.url}/campaigns/{cid}")[1]),
                what="poisoned campaign to settle")
            assert record["status"] == "failed", record
            assert record["counts"].get("poisoned") == 2
            assert record["counts"].get("done") == 2
            assert svc.points_poisoned == 2
            poisoned = {k: p for k, p in record["points"].items()
                        if p.get("status") == "poisoned"}
            assert all(p["workload"] == "astar"
                       for p in poisoned.values())
            for p in poisoned.values():
                assert len(set(p.get("failed_workers", ()))) >= 2
            assert "point_poisoned" in {e.name for e in svc.events.buffer}
            _, metrics = get(f"{svc.url}/metrics")
            assert "repro_service_points_poisoned_total 2" in metrics
            _, results = get(f"{svc.url}/campaigns/{cid}/results")
        clean_spec = {**SPEC, "workloads": ["perlbench"]}
        reference = run_campaign(configs_from_spec(clean_spec), jobs=1)
        assert {k: entry_fingerprint(v)
                for k, v in results["results"].items()} \
            == {k: entry_fingerprint(v) for k, v in reference.items()}


class TestRestartRecovery:
    def test_restarted_daemon_readopts_pending_audits(self, tmp_path):
        """A campaign fully done but with an audit still running must
        come back 'active' after a restart, not terminal: the point
        table loads the audit lease from the shard, the reaper requeues
        it once it lapses, and a pool worker runs it again."""
        config = quick_config(tmp_path, workers=2, audit_rate=1.0)
        with CampaignService(config) as svc:
            wait_for(lambda: svc.live_workers() == 2, timeout=30,
                     what="worker pool")
            _, doc, _ = post(f"{svc.url}/campaigns", SPEC)
            cid = doc["id"]
            wait_for(lambda: get(f"{svc.url}/campaigns/{cid}")[1].get(
                "status") == "done", what="audited campaign")
        # Rewind one audit to a persisted in-flight state, as if the
        # daemon died mid-audit and its auditor with it.
        journal = CampaignJournal(tmp_path / "svc" / cid)
        manifest = journal.load_manifest()
        key = manifest["points"][0]["key"]
        journal.mark(key, "done", audit={
            "status": "running", "worker": "svc-w0", "attempts": 1,
            "lease_expires_unix": time.time() - 1})
        with CampaignService(quick_config(tmp_path, workers=2,
                                          audit_rate=1.0)) as svc2:
            status, record = get(f"{svc2.url}/campaigns/{cid}")
            assert status == 200
            assert record["status"] == "active", record
            wait_for(lambda: get(f"{svc2.url}/campaigns/{cid}")[1].get(
                "status") == "done", what="re-audited campaign")
            assert svc2.integrity.counters()["audits_passed"] >= 1
            assert svc2.lease_expirations >= 1
            assert svc2.integrity.reputation.score("svc-w0") == 1.0
            _, results = get(f"{svc2.url}/campaigns/{cid}/results")
        reference = run_campaign(configs_from_spec(SPEC), jobs=1)
        assert {k: entry_fingerprint(v)
                for k, v in results["results"].items()} \
            == {k: entry_fingerprint(v) for k, v in reference.items()}


class TestObservability:
    def test_live_view_and_watch_surface_audit_and_poison(self):
        doc = {
            "schema": 1, "heartbeat_interval": 1.0, "total": 3,
            "counts": {"done": 2, "poisoned": 1},
            "points": {
                "aud": {"workload": "astar", "engine": "phelps",
                        "status": "done", "attempts": 1,
                        "audit": {"status": "running", "worker": "w2"}},
                "ok": {"workload": "astar", "engine": "baseline",
                       "status": "done", "attempts": 1,
                       "audit": {"status": "passed"}},
                "bad": {"workload": "bfs", "engine": "phelps",
                        "status": "poisoned", "attempts": 3,
                        "failed_workers": ["w1", "w2"]},
            },
        }
        view = live_view(doc, now=time.time())
        assert view["audits"] == 1
        assert view["poisoned"] == 1
        assert view["points"]["aud"]["audit_active"] is True
        assert view["points"]["ok"]["audit_active"] is False
        frame = render_watch(view)
        assert "AUDIT=1" in frame
        assert "POISONED=1" in frame
        assert "done AUDIT" in frame
        # Poisoned rows sort to the top with the failures (rows are
        # labelled workload/engine, not by key).
        assert frame.index("bfs/phelps") < frame.index("astar/baseline")
        assert "3/3 finished" in frame  # poisoned counts as finished


class TestAuditCli:
    def test_audit_verb_passes_then_catches_a_corrupted_shard(
            self, tmp_path, capsys):
        from repro.cli import EXIT_INTEGRITY, main

        spec = {"workloads": ["astar"], "engines": ["baseline"],
                "instructions": 1500}
        camp = tmp_path / "camp"
        journal = CampaignJournal(camp)
        run_campaign(configs_from_spec(spec), journal=journal, jobs=1,
                     spec=spec)
        assert main(["audit", str(camp), "-q"]) == 0
        out = capsys.readouterr().out
        assert "1 re-executed, 0 mismatched" in out
        # Corrupt the stored entry the way silent bit-rot would.
        key = journal.load_manifest()["points"][0]["key"]
        shard = journal.read_point(key)
        shard["entry"]["cycles"] += 1
        journal.write_point(key, shard)
        assert main(["audit", str(camp), "-q"]) == EXIT_INTEGRITY
        captured = capsys.readouterr()
        assert "MISMATCH" in captured.err
        # The seeded sample is honest about rate 0: nothing audited.
        assert main(["audit", str(camp), "--rate", "0"]) == 0


class TestChaosCorruptFault:
    def test_corrupt_fault_garbles_only_complete_bodies(self):
        from repro.service.chaosproxy import _corrupt_complete_response

        response = (b"HTTP/1.0 200 OK\r\nContent-Length: 16\r\n\r\n"
                    b'{"accepted":true')
        flipped = _corrupt_complete_response(
            b"POST /complete HTTP/1.1\r\n\r\n{}", response)
        assert flipped is not None
        assert len(flipped) == len(response)      # length-preserving
        assert flipped != response
        head, _, body = flipped.partition(b"\r\n\r\n")
        assert head == b"HTTP/1.0 200 OK\r\nContent-Length: 16"
        with pytest.raises(json.JSONDecodeError):
            json.loads(body.decode("latin-1"))
        # Non-/complete exchanges are left alone.
        assert _corrupt_complete_response(
            b"POST /claim HTTP/1.1\r\n\r\n{}", response) is None

    def test_corrupted_publish_is_answered_as_a_repeat(
            self, tmp_path):
        """Wire corruption end-to-end: a chaos proxy garbling /complete
        response bodies forces the worker's publish loop to retry; the
        retry finds the point done by this worker, the point table
        answers it as a repeat, and the campaign finishes bit-identical
        to a local run.  (Rate < 1.0 so a clean confirmation eventually
        gets through — at 1.0 the worker can never learn the publish
        landed, which is the right behaviour but never ends.)"""
        from repro.service.chaosproxy import ChaosProxy, FaultPlan
        from repro.service.worker import WorkerOptions, work_service

        config = quick_config(tmp_path)
        with CampaignService(config) as svc:
            # 4 points at rate 0.75: some /complete confirmation gets
            # garbled with probability 1 - 0.25^4, and each publish
            # retries until a clean one lands.
            plan = FaultPlan(seed=11, corrupt_rate=0.75)
            with ChaosProxy("127.0.0.1", svc.port, plan=plan) as proxy:
                _, doc, _ = post(f"{svc.url}/campaigns", SPEC)
                cid = doc["id"]
                wait_for(lambda: get(f"{svc.url}/campaigns/{cid}")[1].get(
                    "status") == "active", timeout=30, what="activation")
                report = work_service(proxy.url, WorkerOptions(
                    worker_id="wchaos", max_idle_polls=3, log=False,
                    poll_interval=0.05, heartbeat_interval=0.2,
                    http_retries=2, http_backoff=0.01,
                    breaker_reset_seconds=0.05, publish_retry_seconds=30.0))
                assert report.completed == 4
                assert proxy.counters()["injected"]["corrupt"] >= 1
                assert svc.http_duplicates >= 1  # a repeated publish
            wait_for(lambda: get(f"{svc.url}/campaigns/{cid}")[1].get(
                "status") == "done", what="chaos campaign")
            _, results = get(f"{svc.url}/campaigns/{cid}/results")
        reference = run_campaign(configs_from_spec(SPEC), jobs=1)
        assert {k: entry_fingerprint(v)
                for k, v in results["results"].items()} \
            == {k: entry_fingerprint(v) for k, v in reference.items()}
