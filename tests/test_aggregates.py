"""Unit tests for the aggregate accumulator protocol."""

import pytest

from repro.common.errors import AnalysisError
from repro.hive.aggregates import (AggregateSpec, rewrite_aggregates,
                                   validate_no_nested_aggregates)
from repro.hive.expressions import SlotRef
from repro.hive.parser import parse


def _spec(name, distinct=False, count_star=False):
    return AggregateSpec(name, distinct=distinct, count_star=count_star)


def _run(spec, column):
    acc = spec.init()
    for value in column:
        acc = spec.add_value(acc, value)
    return spec.finalize(acc)


def _run_partitioned(spec, column, split_at):
    """Simulate the map-side partial + reduce-side merge path."""
    left = spec.init()
    for value in column[:split_at]:
        left = spec.add_value(left, value)
    right = spec.init()
    for value in column[split_at:]:
        right = spec.add_value(right, value)
    return spec.finalize(spec.merge(left, right))


class TestAccumulators:
    def test_sum(self):
        assert _run(_spec("sum"), [1, 2, 3]) == 6

    def test_sum_empty_is_null(self):
        assert _run(_spec("sum"), []) is None

    def test_sum_skips_nulls(self):
        assert _run(_spec("sum"), [1, None, 2]) == 3

    def test_count_column_skips_nulls(self):
        assert _run(_spec("count"), [1, None, 2]) == 2

    def test_count_star_counts_everything(self):
        assert _run(_spec("count", count_star=True), [1, None, 2]) == 3

    def test_avg(self):
        assert _run(_spec("avg"), [2, 4]) == 3.0
        assert _run(_spec("avg"), []) is None

    def test_min_max(self):
        assert _run(_spec("min"), [5, 1, 9]) == 1
        assert _run(_spec("max"), [5, 1, 9]) == 9

    def test_min_max_strings(self):
        assert _run(_spec("min"), ["b", "a"]) == "a"

    @pytest.mark.parametrize("name,column,expected", [
        ("sum", [1, 2, 3, 4], 10),
        ("count", [1, None, 3, 4], 3),
        ("avg", [2.0, 4.0, 6.0, 8.0], 5.0),
        ("min", [4, 2, 9, 7], 2),
        ("max", [4, 2, 9, 7], 9),
    ])
    def test_merge_equals_single_pass(self, name, column, expected):
        spec = _spec(name)
        for split in range(len(column) + 1):
            assert _run_partitioned(spec, column, split) == expected

    def test_distinct_count(self):
        spec = _spec("count", distinct=True)
        assert _run(spec, [1, 1, 2, None, 2]) == 2

    def test_distinct_sum_merge(self):
        spec = _spec("sum", distinct=True)
        assert _run_partitioned(spec, [1, 1, 2, 2, 3], 2) == 6

    def test_distinct_avg_and_min_max(self):
        assert _run(_spec("avg", distinct=True), [2, 2, 4]) == 3.0
        assert _run(_spec("min", distinct=True), [5, 5, 1]) == 1
        assert _run(_spec("max", distinct=True), [5, 5, 1]) == 5

    def test_distinct_empty(self):
        assert _run(_spec("sum", distinct=True), [None]) is None


class TestRewrite:
    def _parts(self, sql):
        stmt = parse(sql)
        calls = []
        rewritten = [rewrite_aggregates(item.expr, stmt.group_by, calls)
                     for item in stmt.items]
        return stmt, calls, rewritten

    def test_group_key_becomes_slot_zero(self):
        _, calls, rewritten = self._parts(
            "SELECT g, sum(v) FROM t GROUP BY g")
        assert isinstance(rewritten[0], SlotRef)
        assert rewritten[0].index == 0
        assert rewritten[1].index == 1
        assert len(calls) == 1

    def test_duplicate_aggregates_share_a_slot(self):
        _, calls, rewritten = self._parts(
            "SELECT sum(v), sum(v) + 1 FROM t")
        assert len(calls) == 1
        assert rewritten[0].index == 0

    def test_expression_over_aggregates(self):
        _, calls, rewritten = self._parts(
            "SELECT sum(v) / count(*) FROM t")
        assert len(calls) == 2

    def test_bare_column_not_in_group_by_rejected(self):
        with pytest.raises(AnalysisError):
            self._parts("SELECT v, count(*) FROM t GROUP BY g")

    def test_nested_aggregate_rejected(self):
        stmt = parse("SELECT sum(count(*)) FROM t")
        calls = []
        rewrite_aggregates(stmt.items[0].expr, [], calls)
        with pytest.raises(AnalysisError):
            validate_no_nested_aggregates(calls)
