"""Tests for predicate-range extraction, pruning and selectivity."""

import pytest

from repro.hive.parser import parse
from repro.hive.pushdown import (ColumnRange, admit_stripes,
                                 estimate_selection, extract_ranges)
from repro.orc import OrcReader, write_orc


def ranges_of(sql_where):
    stmt = parse("SELECT a FROM t WHERE " + sql_where)
    return extract_ranges(stmt.where)


class TestExtractRanges:
    def test_equality(self):
        r = ranges_of("a = 5")["a"]
        assert r.low == 5 and r.high == 5
        assert r.in_set == frozenset([5])

    def test_flipped_operand_order(self):
        r = ranges_of("5 < a")["a"]
        assert r.low == 5 and not r.low_inclusive

    def test_range_pair_intersects(self):
        r = ranges_of("a >= 3 AND a < 9")["a"]
        assert r.low == 3 and r.low_inclusive
        assert r.high == 9 and not r.high_inclusive

    def test_between(self):
        r = ranges_of("a BETWEEN 2 AND 4")["a"]
        assert (r.low, r.high) == (2, 4)

    def test_in_list(self):
        r = ranges_of("a IN (3, 1, 7)")["a"]
        assert r.in_set == frozenset([1, 3, 7])
        assert r.low == 1 and r.high == 7

    def test_in_with_materialized_set(self):
        from repro.hive import ast_nodes as ast
        expr = ast.InList(operand=ast.ColumnRef("a"),
                          items=[ast.Literal(frozenset([2, 4]))])
        r = extract_ranges(expr)["a"]
        assert r.in_set == frozenset([2, 4])

    def test_multiple_columns(self):
        got = ranges_of("a = 1 AND b >= 'x'")
        assert set(got) == {"a", "b"}

    def test_or_not_extracted(self):
        assert ranges_of("a = 1 OR a = 2") == {}

    def test_negated_in_not_extracted(self):
        assert ranges_of("a NOT IN (1)") == {}

    def test_column_vs_column_not_extracted(self):
        assert ranges_of("a = b") == {}

    def test_negative_literal(self):
        r = ranges_of("a > -5")["a"]
        assert r.low == -5

    def test_none_where(self):
        assert extract_ranges(None) == {}


class TestColumnRange:
    def test_may_overlap(self):
        r = ColumnRange(low=10, high=20)
        assert r.may_overlap(5, 15)
        assert r.may_overlap(15, 25)
        assert not r.may_overlap(0, 9)
        assert not r.may_overlap(21, 30)

    def test_exclusive_bounds(self):
        r = ColumnRange(low=10, low_inclusive=False)
        assert not r.may_overlap(5, 10)
        assert r.may_overlap(5, 11)

    def test_unknown_stats_never_pruned(self):
        r = ColumnRange(low=10)
        assert r.may_overlap(None, None)

    def test_mixed_types_never_pruned(self):
        r = ColumnRange(low=10)
        assert r.may_overlap("a", "z")

    def test_in_set_overlap(self):
        r = ColumnRange(in_set=frozenset([5, 100]), low=5, high=100)
        assert r.may_overlap(90, 110)
        assert not r.may_overlap(6, 80)

    def test_overlap_fraction_uniform(self):
        r = ColumnRange(low=0, high=50)
        stats = {"min": 0, "max": 100, "ndv": 100}
        assert abs(r.overlap_fraction(stats, 1000) - 0.5) < 0.01

    def test_overlap_fraction_equality_uses_ndv(self):
        r = ColumnRange(low="x", high="x", in_set=frozenset(["x"]))
        stats = {"min": "a", "max": "z", "ndv": 20}
        assert r.overlap_fraction(stats, 1000) == 1 / 20

    def test_overlap_fraction_zero_when_disjoint(self):
        r = ColumnRange(low=10, high=20)
        assert r.overlap_fraction({"min": 30, "max": 40, "ndv": 5},
                                  100) == 0.0

    def test_intersect(self):
        a = ColumnRange(low=0, high=10)
        b = ColumnRange(low=5, high=20)
        c = a.intersect(b)
        assert (c.low, c.high) == (5, 10)


class TestStripeFiltering:
    SCHEMA = [("id", "int"), ("day", "string")]

    def _reader(self):
        rows = [(i, "2013-07-%02d" % (1 + i // 25)) for i in range(100)]
        return OrcReader(write_orc(self.SCHEMA, rows, stripe_rows=25))

    def test_filter_prunes_stripes(self):
        reader = self._reader()
        ranges = ranges_of("id >= 50")
        spans, scan_bytes, read_bytes = admit_stripes(
            reader, None, {"id": ranges["id"]})
        assert spans == {2: [(50, 75)], 3: [(75, 100)]}
        assert read_bytes == sum(sum(c["length"] for c in s.columns)
                                 for s in reader.stripes[2:])
        assert scan_bytes == sum(sum(c["length"] for c in s.columns)
                                 for s in reader.stripes)

    def test_filter_on_sorted_string_column(self):
        reader = self._reader()
        ranges = ranges_of("day = '2013-07-03'")
        spans, _, _ = admit_stripes(reader, None, ranges)
        assert list(spans) == [2]

    def test_no_constrained_columns_returns_none(self):
        reader = self._reader()
        every = {s.index: [(s.first_row, s.first_row + s.num_rows)]
                 for s in reader.stripes}
        for ranges in ({}, None, ranges_of("other = 1")):
            spans, scan_bytes, read_bytes = admit_stripes(reader, ["id"],
                                                          ranges)
            assert spans == every and read_bytes == scan_bytes > 0

    def test_pruning_never_loses_matches(self):
        """Safety: rows matching the predicate survive pruning."""
        reader = self._reader()
        ranges = ranges_of("id >= 37 AND id <= 61")
        spans, _, _ = admit_stripes(reader, None, ranges)
        kept_rows = [v for _, v in reader.rows(row_spans=spans)]
        matching = [v for v in kept_rows if 37 <= v[0] <= 61]
        assert len(matching) == 25

    def test_estimate_selection_sorted_column(self):
        reader = self._reader()
        selected, total = estimate_selection([reader],
                                             ranges_of("id < 25"))
        assert total == 100
        assert selected <= 30       # one stripe's worth

    def test_estimate_selection_equality_ndv(self):
        rows = [(i % 50, "x") for i in range(1000)]
        reader = OrcReader(write_orc(self.SCHEMA, rows, stripe_rows=250))
        selected, total = estimate_selection([reader], ranges_of("id = 7"))
        assert abs(selected / total - 1 / 50) < 0.01

    def test_estimate_conjunct_independence(self):
        rows = [(i % 10, "d%d" % (i % 5)) for i in range(1000)]
        reader = OrcReader(write_orc(self.SCHEMA, rows, stripe_rows=500))
        ranges = ranges_of("id = 3 AND day = 'd2'")
        selected, total = estimate_selection([reader], ranges)
        assert abs(selected / total - (1 / 10) * (1 / 5)) < 0.005


class TestUnorderedValues:
    """Literals with no order among them give no range, so they prune
    nothing: the WHERE alone picks rows, as the evaluator compares
    (``IN`` never coerces ``'2'`` to ``2``).  They used to raise the
    builtin ``TypeError`` of ``min``."""

    def test_mixed_in_list_has_no_range(self):
        assert ranges_of("a IN (1, '2', 3.0)") == {}
        assert ranges_of("a IN (1, NULL)") == {}
        assert ranges_of("a IN (1, 2.5) AND b IN ('g1', 5)").keys() == {"a"}

    def test_unordered_bounds_keep_the_first(self):
        r = ranges_of("a < 5 AND a < 'x'")["a"]
        assert r.high == 5 and r.low is None

    TABLES = {
        "orc": "STORED AS orc TBLPROPERTIES ('orc.stripe_rows' = '2')",
        "dualtable": "STORED AS dualtable TBLPROPERTIES "
                     "('orc.stripe_rows' = '2', 'dualtable.mode' = 'edit')",
        "dirty": "STORED AS dualtable TBLPROPERTIES "
                 "('orc.stripe_rows' = '2', 'dualtable.mode' = 'edit')",
        "sharded": "STORED AS dualtable SHARDED BY (k) INTO 4 TBLPROPERTIES "
                   "('orc.stripe_rows' = '2', 'dualtable.mode' = 'edit')",
    }

    def session(self, kind):
        from repro.cluster import ClusterProfile
        from repro.hive import HiveSession

        session = HiveSession(profile=ClusterProfile.laptop())
        key = ", PRIMARY KEY (k)" if kind == "sharded" else ""
        session.execute("CREATE TABLE t (k int, g string, w int%s) %s"
                        % (key, self.TABLES[kind]))
        session.load_rows("t", [(k, "g%d" % (k % 3), k) for k in range(12)])
        if kind == "dirty":
            session.execute("UPDATE t SET w = w + 100 WHERE k % 4 = 1")
        return session

    @pytest.mark.parametrize("kind", sorted(TABLES))
    def test_statements_run_as_the_ordered_list(self, kind):
        session = self.session(kind)

        def rows(sql):
            return sorted(session.execute(sql).rows)

        assert rows("SELECT count(*) FROM t WHERE k IN (1, '2', 3.0)") \
            == rows("SELECT count(*) FROM t WHERE k IN (1, 3.0)") == [(2,)]
        explain = rows("EXPLAIN SELECT k FROM t WHERE k IN (1, '2')")
        assert not any("stripe-prunable" in line for line, in explain)
        assert session.execute(
            "UPDATE t SET g = 'x' WHERE k IN (1, '2', 3.0)").affected == 2
        assert rows("SELECT k FROM t WHERE g = 'x'") == [(1,), (3,)]
        assert session.execute(
            "DELETE FROM t WHERE g IN ('g1', 5)").affected == 3
        assert rows("SELECT k FROM t") == [
            (k,) for k in range(12) if k % 3 != 1 or k in (1,)]
