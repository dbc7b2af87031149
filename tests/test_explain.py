"""Tests for EXPLAIN."""

import pytest

from repro.cluster import ClusterProfile
from repro.hive import HiveSession


@pytest.fixture
def session():
    s = HiveSession(profile=ClusterProfile.laptop())
    s.execute("CREATE TABLE dt (id int, day string, v double) "
              "STORED AS DUALTABLE")
    s.load_rows("dt", [(i, "2013-07-%02d" % (1 + i % 20), float(i))
                       for i in range(500)])
    s.execute("CREATE TABLE ref (day string, tag string)")
    s.load_rows("ref", [("2013-07-%02d" % d, "t") for d in range(1, 21)])
    return s


def text(result):
    return "\n".join(line for (line,) in result.rows)


class TestExplainSelect:
    def test_does_not_execute(self, session):
        before = session.cluster.ledger.total_seconds
        session.execute("EXPLAIN SELECT count(*) FROM dt")
        after = session.cluster.ledger.total_seconds
        # footer peeks only; no scan-sized charges
        assert after - before < 0.5

    def test_shows_scan_projection_and_pruning(self, session):
        out = text(session.execute(
            "EXPLAIN SELECT v FROM dt WHERE day = '2013-07-03'"))
        assert "SCAN dt" in out
        assert "storage=dualtable" in out
        assert "day, v" in out
        assert "stripe-prunable predicate columns: day" in out

    def test_scan_projection_lists_hidden_sort_column(self, session):
        out = text(session.execute("EXPLAIN SELECT id FROM dt ORDER BY v"))
        assert "projection: id, v" in out
        out = text(session.execute("EXPLAIN SELECT id FROM dt ORDER BY id"))
        assert "projection: id\n" in out

    def test_shows_join_and_aggregate(self, session):
        out = text(session.execute(
            "EXPLAIN SELECT a.day, count(*) FROM dt a "
            "JOIN ref b ON a.day = b.day GROUP BY a.day "
            "ORDER BY a.day LIMIT 3"))
        assert "JOIN [inner]" in out
        assert "GROUP BY 1 key(s)" in out
        assert "ORDER BY" in out and "LIMIT 3" in out

    def test_derived_table(self, session):
        out = text(session.execute(
            "EXPLAIN SELECT s.day FROM (SELECT day FROM ref) s"))
        assert "derived table s" in out

    def test_constant(self, session):
        out = text(session.execute("EXPLAIN SELECT 1"))
        assert "constant" in out


class TestExplainDml:
    def test_update_dualtable_shows_cost_evaluation(self, session):
        out = text(session.execute(
            "EXPLAIN UPDATE dt SET v = 0 WHERE day = '2013-07-03'"))
        assert "cost evaluation" in out
        assert "estimated ratio" in out
        assert "EDIT cost" in out and "OVERWRITE cost" in out
        assert "plan:" in out

    def test_update_orc_shows_overwrite_lowering(self, session):
        session.execute("CREATE TABLE plain (a int)")
        out = text(session.execute("EXPLAIN UPDATE plain SET a = 1"))
        assert "INSERT OVERWRITE" in out

    def test_delete_acid_shows_delta(self, session):
        session.execute("CREATE TABLE t (a int) STORED AS ACID")
        out = text(session.execute("EXPLAIN DELETE FROM t WHERE a = 1"))
        assert "delta" in out

    def test_explain_forced_mode_noted(self, session):
        session.execute(
            "CREATE TABLE forced (a int) STORED AS DUALTABLE "
            "TBLPROPERTIES ('dualtable.mode' = 'edit')")
        session.load_rows("forced", [(1,), (2,)])
        out = text(session.execute("EXPLAIN UPDATE forced SET a = 0"))
        assert "forced by dualtable.mode" in out

    def test_explain_merge(self, session):
        out = text(session.execute(
            "EXPLAIN MERGE INTO dt USING ref ON dt.day = ref.day "
            "WHEN MATCHED THEN UPDATE SET v = 1 "
            "WHEN NOT MATCHED THEN INSERT VALUES (0, ref.day, 0.0)"))
        assert "MERGE INTO dt" in out
        assert "WHEN MATCHED: update 1 column(s)" in out
        assert "WHEN NOT MATCHED: insert" in out

    def test_explain_insert(self, session):
        out = text(session.execute(
            "EXPLAIN INSERT OVERWRITE TABLE ref SELECT day, tag FROM ref"))
        assert "INSERT OVERWRITE TABLE ref" in out

    def test_explain_compact(self, session):
        out = text(session.execute("EXPLAIN COMPACT TABLE dt"))
        assert "COMPACT dt" in out


class TestExplainDmlHeaders:
    def test_update_header_names_table_and_storage(self, session):
        out = text(session.execute("EXPLAIN UPDATE dt SET v = 0"))
        assert out.startswith("UPDATE dt (storage=dualtable)")
        assert "SET 1 column(s): v" in out

    def test_delete_header(self, session):
        out = text(session.execute(
            "EXPLAIN DELETE FROM dt WHERE day = '2013-07-03'"))
        assert out.startswith("DELETE FROM dt (storage=dualtable)")
        assert "cost evaluation" in out

    def test_merge_header(self, session):
        out = text(session.execute(
            "EXPLAIN MERGE INTO dt USING ref ON dt.day = ref.day "
            "WHEN MATCHED THEN UPDATE SET v = 1"))
        assert out.startswith("MERGE INTO dt (storage=dualtable)")
        assert "USING ref" in out


class TestExplainAnalyze:
    def test_update_executes_and_reports_observed(self, session):
        result = session.execute(
            "EXPLAIN ANALYZE UPDATE dt SET v = -1 "
            "WHERE day = '2013-07-03'")
        out = text(result)
        assert result.plan == "explain-analyze"
        assert "== observed (statement executed) ==" in out
        assert "row(s) affected" in out
        assert "job " in out
        # PostgreSQL semantics: the DML really ran.
        touched = session.execute(
            "SELECT count(*) FROM dt WHERE v = -1").scalar()
        assert touched == result.affected > 0

    def test_update_shows_cost_model_audit(self, session):
        out = text(session.execute(
            "EXPLAIN ANALYZE UPDATE dt SET v = 0 "
            "WHERE day = '2013-07-05'"))
        assert "cost-model audit: plan=" in out
        assert "predicted=" in out and "observed=" in out
        assert "rel_error=" in out

    def test_analyze_select_reports_rows_and_io(self, session):
        result = session.execute(
            "EXPLAIN ANALYZE SELECT count(*) FROM dt")
        out = text(result)
        assert "row(s)" in out
        assert "io: " in out
        assert "cost-model audit" not in out  # SELECTs aren't audited

    def test_analyze_does_not_leak_spans_when_tracing_off(self, session):
        assert not session.cluster.tracer.enabled
        session.execute("EXPLAIN ANALYZE SELECT count(*) FROM dt")
        assert session.cluster.tracer.spans == []
        assert not session.cluster.tracer.enabled

    def test_analyze_preserves_enabled_tracer(self, session):
        session.cluster.tracer.enable()
        session.execute("EXPLAIN ANALYZE SELECT count(*) FROM dt")
        assert session.cluster.tracer.enabled
        assert session.cluster.tracer.spans  # spans kept for the user


class TestExplainPartitioned:
    def test_scan_shows_partitioned_storage(self, session):
        session.execute("CREATE TABLE p (a int) PARTITIONED BY (d string)")
        session.load_rows("p", [(1, "x")])
        out = text(session.execute("EXPLAIN SELECT a FROM p WHERE d = 'x'"))
        assert "storage=orc-partitioned" in out
