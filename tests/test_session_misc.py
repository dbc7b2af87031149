"""Session-level behaviours not covered elsewhere: reports, engine edges."""

import pytest

from repro.cluster import Cluster, ClusterProfile
from repro.common.errors import HiveError
from repro.hive import HiveSession
from repro.hive import ast_nodes as ast


@pytest.fixture
def session():
    return HiveSession(profile=ClusterProfile.laptop())


def io_report(session):
    """Per-(subsystem, op) ledger totals plus ``"total_seconds"``."""
    ledger = session.cluster.ledger
    report = {key: {"bytes": ledger.bytes_by_key[key],
                    "ops": ledger.ops_by_key[key],
                    "sim_seconds": ledger.seconds_by_key[key]}
              for key in ledger.bytes_by_key}
    report["total_seconds"] = ledger.total_seconds
    return report


class TestIoReport:
    def test_report_shape(self, session):
        session.execute("CREATE TABLE t (a int)")
        session.execute("INSERT INTO t VALUES (1), (2)")
        session.execute("SET dualtable.plan = scan")   # the job, not local
        session.execute("SELECT count(*) FROM t")
        report = io_report(session)
        assert report["total_seconds"] > 0
        assert ("hdfs", "write") in report
        assert report[("hdfs", "write")]["bytes"] > 0
        assert ("mapreduce", "job_startup") in report

    def test_report_accumulates(self, session):
        session.execute("CREATE TABLE t (a int)")
        session.execute("INSERT INTO t VALUES (1)")
        first = io_report(session)["total_seconds"]
        session.execute("SELECT * FROM t")
        assert io_report(session)["total_seconds"] > first


class TestSessionConstruction:
    def test_accepts_explicit_cluster(self):
        cluster = Cluster(ClusterProfile.laptop())
        session = HiveSession(cluster=cluster)
        assert session.cluster is cluster

    def test_default_cluster(self):
        assert HiveSession().cluster is not None

    def test_executes_preparsed_ast(self, session):
        session.execute("CREATE TABLE t (a int)")
        stmt = ast.SelectStmt(items=[ast.SelectItem(expr=ast.Star())],
                              source=ast.TableRef(name="t"))
        assert session.execute(stmt).rows == []

    def test_unsupported_statement_type(self, session):
        class Oddball(ast.Statement):
            pass
        with pytest.raises(HiveError):
            session.execute_statement(Oddball())


class TestEngineEdges:
    def test_three_way_join_with_side_filters(self, session):
        session.execute("CREATE TABLE a (k int, av string)")
        session.execute("CREATE TABLE b (k int, bv string)")
        session.execute("CREATE TABLE c (k int, cv string)")
        session.load_rows("a", [(i, "a%d" % i) for i in range(10)])
        session.load_rows("b", [(i, "b%d" % i) for i in range(10)])
        session.load_rows("c", [(i, "c%d" % i) for i in range(10)])
        got = session.execute(
            "SELECT a.av, c.cv FROM a JOIN b ON a.k = b.k "
            "JOIN c ON b.k = c.k "
            "WHERE a.k > 2 AND b.bv != 'b9' AND c.k < 8")
        assert sorted(got.rows) == [("a%d" % i, "c%d" % i)
                                    for i in range(3, 8)]

    def test_in_subquery_inside_join_query(self, session):
        session.execute("CREATE TABLE t (k int, grp string)")
        session.load_rows("t", [(i, "g%d" % (i % 3)) for i in range(12)])
        got = session.execute(
            "SELECT count(*) FROM t WHERE grp IN "
            "(SELECT grp FROM t WHERE k = 0)")
        assert got.scalar() == 4

    def test_order_by_expression(self, session):
        session.execute("CREATE TABLE t (a int)")
        session.load_rows("t", [(3,), (1,), (2,)])
        got = session.execute("SELECT a FROM t ORDER BY 0 - a")
        assert got.rows == [(3,), (2,), (1,)]

    def test_group_by_having_on_aggregate_expression(self, session):
        session.execute("CREATE TABLE t (g string, v int)")
        session.load_rows("t", [("a", 1), ("a", 2), ("b", 10)])
        got = session.execute(
            "SELECT g FROM t GROUP BY g HAVING sum(v) + 1 > 4")
        assert got.rows == [("b",)]

    def test_select_distinct_like_via_group_by(self, session):
        session.execute("CREATE TABLE t (g string)")
        session.load_rows("t", [("x",), ("y",), ("x",)])
        got = session.execute("SELECT g FROM t GROUP BY g ORDER BY g")
        assert got.rows == [("x",), ("y",)]

    def test_union_read_during_join(self, session):
        """Joins read DualTables through UNION READ (edits visible)."""
        session.execute("CREATE TABLE dt (k int, v string) "
                        "STORED AS DUALTABLE "
                        "TBLPROPERTIES ('dualtable.mode' = 'edit')")
        session.load_rows("dt", [(i, "old") for i in range(10)])
        session.execute("CREATE TABLE ref (k int)")
        session.load_rows("ref", [(3,), (4,)])
        session.execute("UPDATE dt SET v = 'new' WHERE k = 3")
        session.execute("DELETE FROM dt WHERE k = 4")
        got = session.execute(
            "SELECT dt.k, dt.v FROM dt JOIN ref ON dt.k = ref.k")
        assert got.rows == [(3, "new")]

    def test_insert_select_between_storage_kinds(self, session):
        session.execute("CREATE TABLE src (a int, b string) "
                        "STORED AS HBASE")
        session.load_rows("src", [(1, "x"), (2, "y")])
        session.execute("CREATE TABLE dst (a int, b string) "
                        "STORED AS DUALTABLE")
        session.execute("INSERT INTO dst SELECT a, b FROM src")
        assert session.execute(
            "SELECT count(*) FROM dst").scalar() == 2

    def test_aggregate_over_join_of_dualtables(self, session):
        for name in ("x", "y"):
            session.execute("CREATE TABLE %s (k int, v int) "
                            "STORED AS DUALTABLE" % name)
            session.load_rows(name, [(i, i) for i in range(20)])
        got = session.execute(
            "SELECT sum(x.v + y.v) FROM x JOIN y ON x.k = y.k")
        assert got.scalar() == 2 * sum(range(20))

    def test_empty_table_queries(self, session):
        session.execute("CREATE TABLE t (a int, b string)")
        assert session.execute("SELECT * FROM t").rows == []
        assert session.execute("SELECT count(*) FROM t").scalar() == 0
        assert session.execute(
            "SELECT b, count(*) FROM t GROUP BY b").rows == []

    def test_update_empty_table(self, session):
        session.execute("CREATE TABLE t (a int) STORED AS DUALTABLE")
        result = session.execute("UPDATE t SET a = 1")
        assert result.affected == 0

    def test_where_true_and_false_literals(self, session):
        session.execute("CREATE TABLE t (a int)")
        session.load_rows("t", [(1,), (2,)])
        assert len(session.execute("SELECT a FROM t WHERE true").rows) == 2
        assert session.execute("SELECT a FROM t WHERE false").rows == []

    def test_column_named_like_keyword_fragment(self, session):
        # 'values'/'tables' are keywords; backticks allow them as names.
        session.execute("CREATE TABLE t (`values` int)")
        session.execute("INSERT INTO t VALUES (5)")
        assert session.execute("SELECT `values` FROM t").scalar() == 5


class TestViews:
    def test_create_and_query_view(self, session):
        session.execute("CREATE TABLE t (k int, g string)")
        session.load_rows("t", [(i, "g%d" % (i % 2)) for i in range(10)])
        session.execute(
            "CREATE VIEW evens AS SELECT k, g FROM t WHERE k % 2 = 0")
        assert session.execute("SELECT count(*) FROM evens").scalar() == 5

    def test_view_reflects_underlying_changes(self, session):
        session.execute("CREATE TABLE t (k int) STORED AS DUALTABLE")
        session.load_rows("t", [(i,) for i in range(10)])
        session.execute("CREATE VIEW big AS SELECT k FROM t WHERE k >= 5")
        assert session.execute("SELECT count(*) FROM big").scalar() == 5
        session.execute("DELETE FROM t WHERE k = 7")
        assert session.execute("SELECT count(*) FROM big").scalar() == 4

    def test_view_with_scalar_subquery_not_frozen(self, session):
        session.execute("CREATE TABLE t (k int)")
        session.load_rows("t", [(1,), (2,), (3,)])
        session.execute(
            "CREATE VIEW tops AS SELECT k FROM t "
            "WHERE k = (SELECT max(k) FROM t)")
        assert session.execute("SELECT k FROM tops").rows == [(3,)]
        session.execute("INSERT INTO t VALUES (9)")
        assert session.execute("SELECT k FROM tops").rows == [(9,)]

    def test_view_in_join(self, session):
        session.execute("CREATE TABLE t (k int)")
        session.load_rows("t", [(1,), (2,)])
        session.execute("CREATE VIEW v AS SELECT k FROM t WHERE k = 2")
        got = session.execute(
            "SELECT t.k FROM t JOIN v ON t.k = v.k")
        assert got.rows == [(2,)]

    def test_view_over_union(self, session):
        session.execute("CREATE TABLE a (k int)")
        session.execute("CREATE TABLE b (k int)")
        session.load_rows("a", [(1,)])
        session.load_rows("b", [(2,)])
        session.execute("CREATE VIEW u AS "
                        "SELECT k FROM a UNION ALL SELECT k FROM b")
        assert session.execute(
            "SELECT count(*) FROM u").scalar() == 2

    def test_duplicate_view_name(self, session):
        session.execute("CREATE TABLE t (k int)")
        session.execute("CREATE VIEW v AS SELECT k FROM t")
        from repro.common.errors import AnalysisError
        with pytest.raises(AnalysisError):
            session.execute("CREATE VIEW v AS SELECT k FROM t")
        session.execute("CREATE VIEW IF NOT EXISTS v AS SELECT k FROM t")

    def test_view_name_cannot_shadow_table(self, session):
        session.execute("CREATE TABLE t (k int)")
        from repro.common.errors import AnalysisError
        with pytest.raises(AnalysisError):
            session.execute("CREATE VIEW t AS SELECT k FROM t")

    def test_drop_view(self, session):
        session.execute("CREATE TABLE t (k int)")
        session.execute("CREATE VIEW v AS SELECT k FROM t")
        session.execute("DROP TABLE v")
        from repro.common.errors import CatalogError
        with pytest.raises(CatalogError):
            session.execute("SELECT * FROM v")


class TestShowTablesWithViews:
    def test_views_listed(self, session):
        session.execute("CREATE TABLE t (k int)")
        session.execute("CREATE VIEW v AS SELECT k FROM t")
        rows = session.execute("SHOW TABLES").rows
        assert ("t",) in rows and ("v",) in rows
