"""End-to-end SELECT tests across the full engine."""

import pytest

from repro.common.errors import AnalysisError, CatalogError
from repro.hive import HiveSession
from repro.cluster import ClusterProfile


@pytest.fixture
def db():
    session = HiveSession(profile=ClusterProfile.laptop())
    session.execute("CREATE TABLE emp (id int, name string, dept string, "
                    "salary double, boss int)")
    session.load_rows("emp", [
        (1, "ann", "eng", 120.0, None),
        (2, "bob", "eng", 100.0, 1),
        (3, "cat", "sales", 90.0, 1),
        (4, "dan", "sales", 80.0, 3),
        (5, "eve", "hr", None, 1),
    ])
    session.execute("CREATE TABLE dept (dept string, city string)")
    session.load_rows("dept", [
        ("eng", "sf"), ("sales", "nyc"), ("finance", "chi"),
    ])
    return session


class TestBasics:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM emp")
        assert len(result.rows) == 5
        assert result.names == ["id", "name", "dept", "salary", "boss"]

    def test_projection_and_expression(self, db):
        result = db.execute("SELECT name, salary * 2 AS double_pay "
                            "FROM emp WHERE id = 2")
        assert result.rows == [("bob", 200.0)]
        assert result.names == ["name", "double_pay"]

    def test_where_filters(self, db):
        result = db.execute("SELECT id FROM emp WHERE dept = 'eng'")
        assert sorted(r[0] for r in result.rows) == [1, 2]

    def test_where_null_filtered(self, db):
        result = db.execute("SELECT id FROM emp WHERE salary > 0")
        assert 5 not in [r[0] for r in result.rows]

    def test_is_null_predicate(self, db):
        result = db.execute("SELECT id FROM emp WHERE salary IS NULL")
        assert [r[0] for r in result.rows] == [5]

    def test_order_by_and_limit(self, db):
        # salary is not in the select list, and the fixture is loaded in
        # descending salary order: only the ASC form shows a sort ran.
        result = db.execute("SELECT name FROM emp ORDER BY salary DESC "
                            "LIMIT 2")
        assert result.rows == [("ann",), ("bob",)]
        result = db.execute("SELECT name FROM emp ORDER BY salary LIMIT 2")
        assert result.rows == [("dan",), ("cat",)]

    def test_order_by_nulls_last(self, db):
        result = db.execute("SELECT name FROM emp ORDER BY salary")
        assert result.rows == [("dan",), ("cat",), ("bob",), ("ann",),
                               ("eve",)]
        result = db.execute("SELECT name FROM emp ORDER BY salary DESC")
        assert result.rows[-1] == ("eve",)

    def test_order_by_qualified_and_unprojected_keys(self, db):
        """Regression: a key that was not an unqualified output name used
        to compile to a no-op and the rows came back in scan order."""
        rows = db.execute("SELECT name FROM emp e ORDER BY e.name DESC "
                          "LIMIT 2").rows
        assert rows == [("eve",), ("dan",)]
        rows = db.execute("SELECT id AS kk FROM emp ORDER BY id DESC").rows
        assert rows == [(5,), (4,), (3,), (2,), (1,)]
        rows = db.execute("SELECT name FROM emp ORDER BY 0 - id LIMIT 1").rows
        assert rows == [("eve",)]
        result = db.execute("SELECT e.name, d.city FROM emp e JOIN dept d "
                            "ON e.dept = d.dept ORDER BY e.salary")
        assert result.names == ["name", "city"]
        assert result.rows == [("dan", "nyc"), ("cat", "nyc"),
                               ("bob", "sf"), ("ann", "sf")]
        rows = db.execute("SELECT big.name FROM (SELECT name, salary "
                          "FROM emp WHERE salary >= 90) big "
                          "ORDER BY big.salary").rows
        assert rows == [("cat",), ("bob",), ("ann",)]

    def test_order_by_aggregate_not_in_select_list(self, db):
        rows = db.execute("SELECT dept FROM emp GROUP BY dept "
                          "ORDER BY count(*) DESC, dept").rows
        assert rows == [("eng",), ("sales",), ("hr",)]
        rows = db.execute("SELECT dept, count(*) FROM emp GROUP BY dept "
                          "ORDER BY sum(salary)").rows
        assert rows == [("sales", 2), ("eng", 2), ("hr", 1)]
        rows = db.execute("SELECT e.dept, max(salary) FROM emp e "
                          "GROUP BY e.dept ORDER BY e.dept DESC").rows
        assert rows == [("sales", 90.0), ("hr", None), ("eng", 120.0)]

    def test_order_by_unresolvable_key_is_an_error(self, db):
        with pytest.raises(AnalysisError, match="nosuch"):
            db.execute("SELECT name FROM emp ORDER BY nosuch")
        with pytest.raises(AnalysisError, match="GROUP BY"):
            db.execute("SELECT dept, count(*) FROM emp GROUP BY dept "
                       "ORDER BY name")
        with pytest.raises(AnalysisError):
            db.execute("SELECT name FROM emp ORDER BY count(*)")
        # As in Hive: after DISTINCT only output columns can order.
        with pytest.raises(AnalysisError, match="DISTINCT"):
            db.execute("SELECT DISTINCT dept FROM emp ORDER BY salary")
        assert db.execute("SELECT DISTINCT dept FROM emp "
                          "ORDER BY dept DESC").rows == \
            [("sales",), ("hr",), ("eng",)]

    def test_hidden_sort_column_moves_no_charge(self, db):
        """The scan already read the sort column (``_needed_columns``);
        carrying it through the projection costs nothing simulated."""
        ledger = db.cluster.ledger
        before = ledger.snapshot()
        db.execute("SELECT name, salary FROM emp ORDER BY salary")
        shown = ledger.diff(before)
        before = ledger.snapshot()
        db.execute("SELECT name FROM emp ORDER BY salary")
        hidden = ledger.diff(before)
        assert hidden["bytes"] == shown["bytes"]
        assert hidden["ops"] == shown["ops"]
        assert hidden["total_seconds"] == pytest.approx(
            shown["total_seconds"], rel=1e-12)

    def test_constant_select(self, db):
        assert db.execute("SELECT 1 + 2, 'x'").rows == [(3, "x")]

    def test_limit_zero(self, db):
        assert db.execute("SELECT id FROM emp LIMIT 0").rows == []

    def test_alias_in_where(self, db):
        result = db.execute("SELECT e.id FROM emp e WHERE e.name = 'cat'")
        assert result.rows == [(3,)]

    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM missing")

    def test_unknown_column(self, db):
        with pytest.raises(AnalysisError):
            db.execute("SELECT nothere FROM emp")


class TestAggregation:
    def test_global_aggregates(self, db):
        result = db.execute("SELECT count(*), sum(salary), min(salary), "
                            "max(salary) FROM emp")
        assert result.rows == [(5, 390.0, 80.0, 120.0)]

    def test_count_ignores_nulls_sum_skips(self, db):
        result = db.execute("SELECT count(salary), avg(salary) FROM emp")
        count, avg = result.rows[0]
        assert count == 4
        assert avg == pytest.approx(390.0 / 4)

    def test_group_by(self, db):
        result = db.execute("SELECT dept, count(*) c FROM emp "
                            "GROUP BY dept ORDER BY dept")
        assert result.rows == [("eng", 2), ("hr", 1), ("sales", 2)]

    def test_group_by_with_having(self, db):
        result = db.execute("SELECT dept, count(*) c FROM emp GROUP BY dept "
                            "HAVING count(*) > 1 ORDER BY dept")
        assert result.rows == [("eng", 2), ("sales", 2)]

    def test_aggregate_expression(self, db):
        result = db.execute("SELECT dept, sum(salary) / count(*) AS mean "
                            "FROM emp WHERE salary IS NOT NULL "
                            "GROUP BY dept ORDER BY dept")
        assert result.rows[0] == ("eng", 110.0)

    def test_count_distinct(self, db):
        result = db.execute("SELECT count(DISTINCT dept) FROM emp")
        assert result.scalar() == 3

    def test_conditional_aggregate(self, db):
        result = db.execute(
            "SELECT sum(CASE WHEN dept = 'eng' THEN 1 ELSE 0 END) FROM emp")
        assert result.scalar() == 2

    def test_aggregate_on_empty_group_set(self, db):
        result = db.execute("SELECT count(*), sum(salary) FROM emp "
                            "WHERE id > 99")
        assert result.rows == [(0, None)]

    def test_group_key_expression(self, db):
        result = db.execute("SELECT substr(name, 1, 1) ch, count(*) "
                            "FROM emp GROUP BY substr(name, 1, 1) "
                            "ORDER BY ch LIMIT 2")
        assert result.rows == [("a", 1), ("b", 1)]

    def test_bare_column_outside_group_by_rejected(self, db):
        with pytest.raises(AnalysisError):
            db.execute("SELECT name, count(*) FROM emp GROUP BY dept")


class TestJoins:
    def test_inner_join(self, db):
        result = db.execute(
            "SELECT e.name, d.city FROM emp e "
            "JOIN dept d ON e.dept = d.dept WHERE e.id = 3")
        assert result.rows == [("cat", "nyc")]

    def test_left_join_null_extends(self, db):
        result = db.execute(
            "SELECT e.name, d.city FROM emp e "
            "LEFT JOIN dept d ON e.dept = d.dept ORDER BY e.name")
        by_name = dict(result.rows)
        assert by_name["eve"] is None       # hr has no dept row
        assert by_name["ann"] == "sf"

    def test_right_join(self, db):
        result = db.execute(
            "SELECT e.name, d.dept FROM emp e "
            "RIGHT JOIN dept d ON e.dept = d.dept")
        depts = [r[1] for r in result.rows]
        assert "finance" in depts           # unmatched right side kept
        assert (None, "finance") in result.rows

    def test_full_join(self, db):
        result = db.execute(
            "SELECT e.name, d.dept FROM emp e "
            "FULL JOIN dept d ON e.dept = d.dept")
        names = [r[0] for r in result.rows]
        depts = [r[1] for r in result.rows]
        assert "eve" in names and "finance" in depts

    def test_self_join(self, db):
        result = db.execute(
            "SELECT w.name, b.name FROM emp w "
            "JOIN emp b ON w.boss = b.id ORDER BY w.name")
        assert ("bob", "ann") in result.rows
        assert ("dan", "cat") in result.rows

    def test_three_way_join(self, db):
        result = db.execute(
            "SELECT w.name, d.city FROM emp w "
            "JOIN emp b ON w.boss = b.id "
            "JOIN dept d ON b.dept = d.dept WHERE w.name = 'dan'")
        assert result.rows == [("dan", "nyc")]

    def test_join_with_extra_condition(self, db):
        result = db.execute(
            "SELECT e.name FROM emp e "
            "JOIN dept d ON e.dept = d.dept AND e.salary > 95 "
            "ORDER BY e.name")
        assert result.rows == [("ann",), ("bob",)]

    def test_join_aggregate(self, db):
        result = db.execute(
            "SELECT d.city, count(*) c FROM emp e "
            "JOIN dept d ON e.dept = d.dept GROUP BY d.city ORDER BY d.city")
        assert result.rows == [("nyc", 2), ("sf", 2)]

    def test_null_keys_do_not_match(self, db):
        # ann's boss is NULL: must not join to anything.
        result = db.execute(
            "SELECT w.name FROM emp w JOIN emp b ON w.boss = b.id")
        assert "ann" not in [r[0] for r in result.rows]

    def test_non_equi_join_rejected(self, db):
        with pytest.raises(AnalysisError):
            db.execute("SELECT e.name FROM emp e "
                       "JOIN dept d ON e.salary > 10")


class TestSubqueries:
    def test_derived_table(self, db):
        result = db.execute(
            "SELECT big.name FROM (SELECT name, salary FROM emp "
            "WHERE salary >= 100) big ORDER BY big.name")
        assert result.rows == [("ann",), ("bob",)]

    def test_scalar_subquery(self, db):
        result = db.execute(
            "SELECT name FROM emp "
            "WHERE salary = (SELECT max(salary) FROM emp)")
        assert result.rows == [("ann",)]

    def test_in_subquery(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE dept IN "
            "(SELECT dept FROM dept WHERE city = 'nyc') ORDER BY name")
        assert result.rows == [("cat",), ("dan",)]

    def test_scalar_subquery_multirow_rejected(self, db):
        with pytest.raises(AnalysisError):
            db.execute("SELECT name FROM emp "
                       "WHERE salary = (SELECT salary FROM emp)")

    def test_derived_table_with_aggregate(self, db):
        result = db.execute(
            "SELECT s.dept FROM (SELECT dept, count(*) n FROM emp "
            "GROUP BY dept) s WHERE s.n = 1")
        assert result.rows == [("hr",)]


class TestCostReporting:
    def test_select_reports_jobs_and_time(self, db):
        result = db.execute("SELECT count(*) FROM emp")
        assert result.sim_seconds > 0
        assert len(result.jobs) == 1

    def test_join_runs_a_reduce_phase(self, db):
        simple = db.execute("SELECT id FROM emp")
        joined = db.execute("SELECT e.id FROM emp e "
                            "JOIN dept d ON e.dept = d.dept")
        assert simple.jobs[0].num_reduce_tasks == 0
        assert joined.jobs[0].num_reduce_tasks >= 1
        assert joined.jobs[0].shuffle_bytes > 0

    def test_projection_cheaper_than_star(self, db):
        narrow = db.execute("SELECT id FROM emp")
        wide = db.execute("SELECT * FROM emp")
        assert narrow.sim_seconds < wide.sim_seconds


class TestUnionAll:
    def test_basic_union(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE dept = 'eng' "
            "UNION ALL SELECT name FROM emp WHERE dept = 'hr'")
        assert sorted(result.rows) == [("ann",), ("bob",), ("eve",)]

    def test_duplicates_kept(self, db):
        result = db.execute(
            "SELECT dept FROM emp UNION ALL SELECT dept FROM emp")
        assert len(result.rows) == 10

    def test_union_in_derived_table(self, db):
        result = db.execute(
            "SELECT u.dept, count(*) c FROM "
            "(SELECT dept FROM emp UNION ALL SELECT dept FROM dept) u "
            "GROUP BY u.dept ORDER BY u.dept")
        by_dept = dict(result.rows)
        assert by_dept["eng"] == 3       # 2 from emp + 1 from dept
        assert by_dept["finance"] == 1

    def test_arity_mismatch_rejected(self, db):
        import pytest as _pytest
        from repro.common.errors import AnalysisError
        with _pytest.raises(AnalysisError):
            db.execute("SELECT id FROM emp UNION ALL "
                       "SELECT id, name FROM emp")

    def test_union_of_aggregates(self, db):
        result = db.execute(
            "SELECT count(*) FROM emp UNION ALL SELECT count(*) FROM dept")
        assert sorted(r[0] for r in result.rows) == [3, 5]

    def test_insert_from_union(self, db):
        db.execute("CREATE TABLE all_names (n string)")
        db.execute("INSERT INTO all_names "
                   "SELECT name FROM emp UNION ALL SELECT dept FROM dept")
        assert db.execute(
            "SELECT count(*) FROM all_names").scalar() == 8


class TestSelectDistinct:
    def test_distinct_single_column(self, db):
        result = db.execute("SELECT DISTINCT dept FROM emp ORDER BY dept")
        assert result.rows == [("eng",), ("hr",), ("sales",)]

    def test_distinct_multi_column(self, db):
        db.execute("INSERT INTO emp VALUES (6, 'ann', 'eng', 120.0, null)")
        result = db.execute("SELECT DISTINCT name, dept FROM emp "
                            "WHERE dept = 'eng' ORDER BY name")
        assert result.rows == [("ann", "eng"), ("bob", "eng")]

    def test_distinct_preserves_first_occurrence_order(self, db):
        result = db.execute("SELECT DISTINCT dept FROM emp")
        assert result.rows[0] == ("eng",)

    def test_distinct_with_aggregate_rejected(self, db):
        with pytest.raises(AnalysisError):
            db.execute("SELECT DISTINCT count(*) FROM emp")
