"""Tests for EXPLAIN."""

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import AnalysisError
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
        # The aggregation ran as a local job, which is audited; its job
        # is not.
        assert "cost-model audit: plan=local" in out
        session.execute("SET dualtable.plan = scan")
        out = text(session.execute("EXPLAIN ANALYZE SELECT count(*) FROM dt"))
        assert "job groupby" in out and "cost-model audit" not in out

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


# ----------------------------------------------------------------------
# EXPLAIN prints the plan the executor runs: the same leaves, the same
# route (LOOKUP, fetch or job) for each.
# ----------------------------------------------------------------------
GRID = [
    "SELECT * FROM t WHERE v >= 0",
    "SELECT k, v FROM t WHERE k = 3",
    "SELECT t.v, u.z FROM t JOIN u ON t.v = u.z WHERE u.k = 3",
    "SELECT t.v, u.z FROM t JOIN u ON t.v = u.z WHERE t.k = 3 AND u.k = 4",
    "SELECT count(*) FROM t WHERE k IN (3, 4)",
    "SELECT k FROM vw WHERE k = 3",
    "SELECT s.v FROM (SELECT k, v FROM t WHERE k IN (5, 6)) s",
]


def keyed_grid_session(shards):
    session = HiveSession(profile=ClusterProfile.laptop())
    sharded = " SHARDED BY (k) INTO %d" % shards if shards > 1 else ""
    session.execute("CREATE TABLE t (k int, v int) PRIMARY KEY (k) "
                    "STORED AS DUALTABLE" + sharded)
    session.load_rows("t", [(k, k % 50) for k in range(300)])
    session.execute("CREATE TABLE u (k int, z int) PRIMARY KEY (k) "
                    "STORED AS DUALTABLE" + sharded)
    session.load_rows("u", [(k, k) for k in range(100)])
    session.execute("CREATE VIEW vw AS SELECT k, v FROM t")
    return session


@pytest.fixture(scope="module")
def keyed_grid():
    return {shards: keyed_grid_session(shards) for shards in (1, 4)}


def leaf_plans(lines):
    """The route EXPLAIN prints for each SCAN: its last ``plan:`` line,
    normalized to ``lookup``, ``fetch``, ``job``, ``job (feeds ...)``,
    ``local (feeds ...)`` or ``none`` (the statement fails)."""
    plans = []
    depth = None
    for line in lines:
        indent = len(line) - len(line.lstrip())
        if line.strip().startswith("SCAN "):
            plans.append(None)
            depth = indent
        elif depth is not None and indent <= depth:
            depth = None
        elif depth is not None and line.strip().startswith("plan: "):
            plans[-1] = line.strip()[len("plan: "):]
    return [plan if plan is None or "(feeds" in plan
            else plan.split(",")[0].split(" ")[0] for plan in plans]


def ran_leaves(session, monkeypatch, sql):
    """Run ``sql`` and return the reads each leaf took: a LOOKUP, a fetch,
    a scan job, or its share of the join or aggregation it fed, run as a
    job or a local job."""
    from repro.core.handler import DualTableHandler
    runner = session.env.runner
    ran = []
    run_job, run_lookup = runner.run, DualTableHandler.execute_lookup

    def job(job_spec):
        result = run_job(job_spec)
        stage = "local" if result.local else "job"
        if result.local and job_spec.name == "select-scan":
            ran.append("fetch")
        elif job_spec.name == "select-scan":
            ran.append("job")
        elif job_spec.name == "join":
            ran.extend([stage + " (feeds a join)"] * 2)
        elif job_spec.name == "groupby":
            ran.append(stage + " (feeds an aggregation)")
        return result

    def lookup(handler, *args, **kwargs):
        ran.append("lookup")
        return run_lookup(handler, *args, **kwargs)

    monkeypatch.setattr(runner, "run", job)
    monkeypatch.setattr(DualTableHandler, "execute_lookup", lookup)
    result = session.execute(sql)
    return result, ran


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("mode", ["cost", "lookup", "scan"])
@pytest.mark.parametrize("sql", GRID)
def test_explain_names_the_plan_that_runs(keyed_grid, monkeypatch, shards,
                                          mode, sql):
    session = keyed_grid[shards]
    session.execute("SET dualtable.plan = %s" % mode)
    try:
        lines = [line for (line,) in session.execute("EXPLAIN " + sql).rows]
        plans = leaf_plans(lines)
        assert plans and None not in plans
        if "none" in plans:
            assert "the statement will fail" in "\n".join(lines)
            with pytest.raises(AnalysisError):
                session.execute(sql)
            return
        result, ran = ran_leaves(session, monkeypatch, "EXPLAIN ANALYZE " + sql)
        assert [line for (line,) in result.rows][:len(lines)] == lines
        assert sorted(ran) == sorted(plans)
    finally:
        session.execute("SET dualtable.plan = cost")


def test_explain_of_a_join_filters_each_side_by_its_own_conjuncts(
        keyed_grid):
    """``u.k = 3`` bounds u's key, not t's: neither side of a join
    LOOKUPs, and only u prunes by k."""
    lines = [line.strip() for (line,) in keyed_grid[1].execute(
        "EXPLAIN SELECT t.v, u.z FROM t JOIN u ON t.v = u.z "
        "WHERE u.k = 3").rows]
    assert lines.count("plan: local (feeds a join)") == 2
    assert lines.count("stripe-prunable predicate columns: k") == 1
    assert not any(line.startswith("LOOKUP") for line in lines)


def test_explain_select_star_prints_the_expanded_read(keyed_grid):
    session = keyed_grid[4]
    sql = "SELECT * FROM t WHERE v >= 0"
    lines = [line.strip() for (line,) in
             session.execute("EXPLAIN " + sql).rows]
    assert lines[0] == "SELECT (2 output column(s))"
    assert "projection: k, v" in lines
    result = session.execute("EXPLAIN ANALYZE " + sql)
    fetch_cost = next(line for (line,) in result.rows
                      if line.strip().startswith("fetch cost:"))
    assert fetch_cost.split()[-1] == "%.4fs" % result.detail["local_seconds"]


def test_explain_of_a_view_leaves_the_view_as_stored(keyed_grid):
    import copy
    session = keyed_grid[1]
    session.execute("CREATE VIEW IF NOT EXISTS vw2 AS SELECT * FROM vw")
    stored = copy.deepcopy(session.views)
    text = "\n".join(line for (line,) in session.execute(
        "EXPLAIN SELECT k FROM vw2 WHERE k = 3").rows)
    assert "derived table vw2" in text and "derived table vw" in text
    first = session.execute("SELECT k FROM vw2 WHERE k = 3").rows
    second = session.execute("SELECT k FROM vw2 WHERE k = 3").rows
    assert first == second == [(3,)]
    assert session.views == stored


def test_star_over_a_derived_table_takes_the_executed_names(keyed_grid):
    """A derived table's column names are its star expansion's: the
    unnamed expression after ``*`` is ``_c2``, as the executor names it."""
    result = keyed_grid[1].execute(
        "SELECT * FROM (SELECT *, v + 1 FROM t WHERE k = 7) s")
    assert result.names == ["k", "v", "_c2"]
    assert result.rows == [(7, 7, 8)]
