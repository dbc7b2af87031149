"""Advisor end-to-end: profiles, findings, APPLY, determinism, dashboard.

The canned workloads in :mod:`repro.advisor.workloads` are the
acceptance oracle — each must trip exactly its expected finding set,
and the exported advisor document must serialize byte-identically
across reruns and worker counts.
"""

import dataclasses
import json

import pytest

from repro.advisor import (FINDING_COLUMNS, Finding, WorkloadAdvisor,
                           apply_findings, build_profiles)
from repro.advisor.analyzer import DRIFT_REL_ERROR, MIN_AUDITS
from repro.advisor.workloads import (EXPECTED_FINDINGS, WORKLOAD_NAMES,
                                     build_session, run_workload)
from repro.cluster import ClusterProfile
from repro.core.lookup import NUM_BUCKETS
from repro.hive import HiveSession
from repro.mapreduce.job import stable_hash
from repro.obs import export
from repro.obs.dashboard import (advisor_document, metrics_document,
                                 render_dashboard_html, to_json,
                                 validate_advisor_document,
                                 write_dashboard)


def finding_pairs(findings):
    return sorted((f.code, f.subject) for f in findings)


def small_update_session(n_updates=5, **profile_overrides):
    session = HiveSession(
        profile=ClusterProfile.laptop(**profile_overrides))
    session.execute(
        "CREATE TABLE t (id INT, v INT) STORED AS DUALTABLE "
        "TBLPROPERTIES ('orc.rows_per_file' = 64, 'orc.stripe_rows' = 16)")
    session.load_rows("t", [(i, i) for i in range(320)])
    for i in range(n_updates):
        session.execute("UPDATE t SET v = v + 1 WHERE id %% 80 = %d" % i)
    return session


# ----------------------------------------------------------------------
# Findings and profiles.
# ----------------------------------------------------------------------
class TestFindings:
    def test_sorted_by_severity_then_subject(self):
        findings = sorted([
            Finding("b-code", "info", "a", "s"),
            Finding("a-code", "critical", "z", "s"),
            Finding("a-code", "warn", "m", "s"),
        ], key=lambda f: f.sort_key())
        assert [f.severity for f in findings] == \
            ["critical", "warn", "info"]

    def test_rejects_unknown_severity(self):
        with pytest.raises(ValueError):
            Finding("c", "fatal", "t", "s")

    def test_row_and_dict_shapes(self):
        finding = Finding("c", "warn", "t", "s",
                          evidence={"pi": 3.14159265},
                          remediation=["COMPACT TABLE t"])
        assert len(finding.row()) == len(FINDING_COLUMNS)
        d = finding.as_dict()
        assert d["evidence"]["pi"] == round(3.14159265, 6)
        assert d["remediation"] == ["COMPACT TABLE t"]


class TestProfiles:
    def test_profile_reflects_workload(self):
        session = small_update_session(n_updates=4)
        for _ in range(3):
            session.execute("SELECT count(*) FROM t")
        (profile,) = build_profiles(session)
        assert profile.table == "t"
        assert profile.dmls == 4 and profile.updates == 4
        assert profile.scans >= 3
        assert profile.audits == 4
        assert profile.scan_bytes_hist["count"] >= 3
        assert profile.dml_seconds_hist["count"] == 4
        assert profile.attached_bytes > 0  # deltas not yet compacted
        assert profile.reads_per_dml > 0

    def test_store_counters_read_the_same_at_every_shard_count(self):
        """The stores count merges and folds under their own names
        (``t__s<i>`` on a sharded table); the profile sums them.  Every
        key sits in one hash bucket, so each layout writes the same one
        file and the counts cannot differ."""
        keys = [k for k in range(2000) if stable_hash(k) % NUM_BUCKETS == 5]
        updated = sum(1 for k in keys if k % 3 == 0)
        seen = {}
        for shards in (None, 1, 4, 8):
            session = HiveSession(profile=ClusterProfile.laptop())
            session.execute(
                "CREATE TABLE t (k int, v int, PRIMARY KEY (k)) STORED AS "
                "DUALTABLE%s TBLPROPERTIES ('dualtable.mode' = 'edit', "
                "'orc.stripe_rows' = '2')"
                % ("" if shards is None
                   else " SHARDED BY (k) INTO %d" % shards))
            session.load_rows("t", [(k, k) for k in keys])
            session.execute("SET dualtable.plan = scan")
            session.execute("UPDATE t SET v = 0 WHERE v % 3 = 0")
            session.execute("SELECT * FROM t")
            session.execute("COMPACT TABLE t")
            (profile,) = build_profiles(session)
            seen[shards] = (profile.deltas_applied, profile.batches_fast,
                            profile.batches_overlay, profile.compacts)
            assert profile.shard_count == (shards or 0)
            assert len(profile.shard_heats) == (shards or 0)
        # SELECT and COMPACT each merge every delta once.
        assert seen[None][0] == 2 * updated and seen[None][3] == 1
        assert seen[None][1] > 0 and seen[None][2] > 0
        assert seen[1] == seen[4] == seen[8] == seen[None]

    def test_only_dualtable_tables_profiled(self):
        session = small_update_session(n_updates=0)
        session.execute("CREATE TABLE plain (a INT) STORED AS ORC")
        names = [p.table for p in build_profiles(session)]
        assert names == ["t"]


# ----------------------------------------------------------------------
# Canned workloads: the acceptance oracle.
# ----------------------------------------------------------------------
class TestCannedWorkloads:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_expected_finding_set(self, name):
        outcome = run_workload(name)
        findings = WorkloadAdvisor(outcome["session"]).analyze()
        assert finding_pairs(findings) == sorted(EXPECTED_FINDINGS[name])

    def test_finding_sets_are_distinct(self):
        sets = [tuple(sorted(EXPECTED_FINDINGS[n])) for n in WORKLOAD_NAMES]
        assert len(set(sets)) == len(sets)

    def test_show_advisor_statement(self):
        outcome = run_workload("scan_heavy")
        result = outcome["session"].execute("SHOW ADVISOR")
        assert result.names == list(FINDING_COLUMNS)
        codes = sorted(row[0] for row in result.rows)
        assert codes == sorted(
            c for c, _ in EXPECTED_FINDINGS["scan_heavy"])

    def test_analyze_workload_apply_resolves_findings(self):
        session = run_workload("scan_heavy")["session"]
        result = session.execute("ANALYZE WORKLOAD APPLY")
        assert result.detail["applied"]  # knobs actually flipped
        assert any("AUTOCOMPACT" in sql for sql in result.detail["applied"])
        remaining = WorkloadAdvisor(session).analyze()
        # Everything with a knob resolves; only the knob-less drift
        # diagnosis (a property of the tiny scale) may remain.
        assert {f.code for f in remaining} <= {"cost-model-drift"}

    def test_apply_resolves_forced_overwrite(self):
        session = run_workload("update_heavy")["session"]
        findings = WorkloadAdvisor(session).analyze()
        assert any(f.code == "overwrite-plan-regret" for f in findings)
        apply_findings(session, findings)
        remaining = WorkloadAdvisor(session).analyze()
        assert not any(f.code == "overwrite-plan-regret"
                       for f in remaining)
        info = session.metastore.table("audit_log")
        assert info.properties["dualtable.mode"] == "cost"


# ----------------------------------------------------------------------
# Determinism: byte-identical documents across runs and worker counts.
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_document_byte_identical(self, name):
        def doc_bytes(**kwargs):
            outcome = run_workload(name, **kwargs)
            return to_json(advisor_document(
                outcome["session"], series=outcome["series"],
                workload=name))

        baseline = doc_bytes()
        assert doc_bytes() == baseline                       # rerun
        assert doc_bytes(workers=4) == baseline              # workers


# ----------------------------------------------------------------------
# Cost-model drift rule (threshold behaviour, both arms).
# ----------------------------------------------------------------------
class TestDriftRule:
    def test_drift_fires_above_threshold(self):
        session = small_update_session(n_updates=MIN_AUDITS + 1)
        (profile,) = build_profiles(session)
        assert profile.rel_error_mean > DRIFT_REL_ERROR
        codes = [f.code for f in WorkloadAdvisor(session).analyze()]
        assert "cost-model-drift" in codes

    def test_no_drift_below_min_audits(self):
        session = small_update_session(n_updates=MIN_AUDITS - 1)
        codes = [f.code for f in WorkloadAdvisor(session).analyze()]
        assert "cost-model-drift" not in codes

    def test_no_drift_within_threshold(self):
        session = small_update_session(n_updates=MIN_AUDITS + 1)
        advisor = WorkloadAdvisor(session)
        (profile,) = build_profiles(session)
        healthy = dataclasses.replace(
            profile, rel_error_mean=DRIFT_REL_ERROR / 2,
            rel_error_max=DRIFT_REL_ERROR)
        assert advisor._drift_rule(healthy) == []
        # Exactly at the threshold the model still counts as tracking.
        at_edge = dataclasses.replace(
            profile, rel_error_mean=DRIFT_REL_ERROR)
        assert advisor._drift_rule(at_edge) == []
        drifted = dataclasses.replace(
            profile, rel_error_mean=DRIFT_REL_ERROR * 2)
        (finding,) = advisor._drift_rule(drifted)
        assert finding.code == "cost-model-drift"
        assert finding.evidence["audits"] == profile.audits


# ----------------------------------------------------------------------
# Dashboard document + HTML.
# ----------------------------------------------------------------------
class TestDashboard:
    def test_document_schema_valid(self):
        outcome = run_workload("mixed")
        doc = advisor_document(outcome["session"],
                               series=outcome["series"], workload="mixed")
        assert validate_advisor_document(doc) == []
        assert doc["server"] is not None  # went through the server
        assert "statement.seconds" in doc["histograms"]
        # cache.* counters are wall-clock shaped; they must stay out.
        assert not any(name.startswith("cache.")
                       for name in doc["counters"])

    def test_validator_catches_corruption(self):
        outcome = run_workload("scan_heavy")
        doc = advisor_document(outcome["session"], workload="scan_heavy")
        doc["findings"][0]["severity"] = "shrug"
        del doc["tables"][0]["scan_bytes_hist"]
        errors = validate_advisor_document(doc)
        assert any("severity" in e for e in errors)
        assert any("scan_bytes_hist" in e for e in errors)

    def test_html_renders_findings_and_sparklines(self):
        outcome = run_workload("scan_heavy")
        doc = advisor_document(outcome["session"],
                               series=outcome["series"],
                               workload="scan_heavy")
        html = render_dashboard_html(doc)
        for code, _ in EXPECTED_FINDINGS["scan_heavy"]:
            assert code in html
        assert "<svg" in html and "polyline" in html
        assert "statement.seconds" in html

    def test_write_dashboard_roundtrip(self, tmp_path):
        outcome = run_workload("scan_heavy")
        doc = advisor_document(outcome["session"], workload="scan_heavy")
        html_path, json_path = write_dashboard(str(tmp_path), doc)
        loaded = json.load(open(json_path))
        assert validate_advisor_document(loaded) == []
        assert open(html_path).read().startswith("<!DOCTYPE html>")

    def test_metrics_document_from_bare_snapshot(self):
        session = small_update_session(n_updates=2)
        doc = metrics_document(session.cluster.metrics.snapshot(),
                               workload="fig4")
        assert validate_advisor_document(doc) == []
        assert doc["tables"] == [] and doc["findings"] == []
        render_dashboard_html(doc)  # must not raise


# ----------------------------------------------------------------------
# Server statement spans in the traced mixed workload (S3).
# ----------------------------------------------------------------------
class TestServerSpans:
    def test_traced_mixed_workload_validates(self):
        session = build_session()
        session.cluster.tracer.enable()
        from repro.advisor.workloads import run_mixed
        run_mixed(session)
        doc = export.tracer_trace(session.cluster.tracer)
        assert export.validate_trace(
            doc, require_kinds=("statement", "job", "task",
                                "substrate", "server")) == []
        assert export.validate_server_spans(doc) == []

    def test_validator_requires_server_spans(self):
        session = small_update_session(n_updates=1)
        session.cluster.tracer.enable()
        session.execute("SELECT count(*) FROM t")
        doc = export.tracer_trace(session.cluster.tracer)
        errors = export.validate_server_spans(doc)
        assert errors and "no server.statement spans" in errors[0]

    def test_validator_flags_childless_server_span(self):
        doc = {"traceEvents": [
            {"name": "statement", "cat": "server", "ph": "X", "pid": 1,
             "tid": 1, "ts": 0.0, "dur": 5.0,
             "args": {"span_id": 1, "parent_id": None}},
        ]}
        errors = export.validate_server_spans(doc)
        assert any("no child statement span" in e for e in errors)
