"""Unit tests for executor internals: envs, sources, split planning."""

import pytest

from repro.cluster import Cluster, ClusterProfile
from repro.hive import HiveSession
from repro.hive import ast_nodes as ast
from repro.hive.executor import (MaterializedSource, SelectExecutor,
                                 _NullsLast, _and, _iter_conjuncts,
                                 _output_name, merge_envs)
from repro.hive.expressions import Env
from repro.hive.parser import parse


class TestMergeEnvs:
    def test_offsets_right_side(self):
        left = Env()
        left.add_schema(["a", "b"], alias="l")
        right = Env()
        right.add_schema(["c"], alias="r")
        merged = merge_envs(left, right)
        assert merged.width == 3
        assert merged.try_resolve("l.a") == 0
        assert merged.try_resolve("r.c") == 2

    def test_shared_bare_names_become_ambiguous(self):
        left = Env()
        left.add_schema(["k"], alias="l")
        right = Env()
        right.add_schema(["k"], alias="r")
        merged = merge_envs(left, right)
        assert merged.try_resolve("k") is None      # ambiguous
        assert merged.try_resolve("l.k") == 0
        assert merged.try_resolve("r.k") == 1


class TestMaterializedSource:
    def test_splits_chunking(self):
        env = Env()
        env.add_schema(["a"])
        rows = [(i,) for i in range(45)]
        source = MaterializedSource(rows, env, bytes_estimate=450)
        splits = source.splits(chunk_rows=20)
        assert [len(s.payload) for s in splits] == [20, 20, 5]
        assert sum(s.size_bytes for s in splits) == 450

    def test_empty_rows_single_split(self):
        env = Env()
        env.add_schema(["a"])
        source = MaterializedSource([], env, 0)
        splits = source.splits()
        assert len(splits) == 1
        assert splits[0].payload == []

    def test_reader_charges_hdfs(self):
        cluster = Cluster(ClusterProfile.laptop())
        env = Env()
        env.add_schema(["a"])
        source = MaterializedSource([(1,), (2,)], env, 1000)
        reader = source.make_batch_reader()

        class Ctx:
            pass
        ctx = Ctx()
        ctx.cluster = cluster
        split = source.splits()[0]
        assert [row for batch in reader(split, ctx)
                for row in batch.rows()] == [(1,), (2,)]
        assert cluster.ledger.bytes_for("hdfs", "read") == split.size_bytes


class TestConjunctHelpers:
    def test_iter_conjuncts_flattens_nested_ands(self):
        expr = parse("SELECT a FROM t WHERE x = 1 AND (y = 2 AND z = 3)"
                     ).where
        assert len(list(_iter_conjuncts(expr))) == 3

    def test_or_is_a_single_conjunct(self):
        expr = parse("SELECT a FROM t WHERE x = 1 OR y = 2").where
        assert len(list(_iter_conjuncts(expr))) == 1

    def test_and_builder(self):
        a, b = ast.Literal(1), ast.Literal(2)
        assert _and([]) is None
        assert _and([a]) is a
        combined = _and([a, b])
        assert isinstance(combined, ast.LogicalOp)


class TestOutputNames:
    def test_alias_wins(self):
        item = parse("SELECT a + 1 AS total").items[0]
        assert _output_name(item, 0) == "total"

    def test_column_name(self):
        item = parse("SELECT t.col").items[0]
        assert _output_name(item, 0) == "col"

    def test_function_name(self):
        item = parse("SELECT sum(a)").items[0]
        assert _output_name(item, 3) == "sum_3"

    def test_fallback(self):
        item = parse("SELECT 1 + 2").items[0]
        assert _output_name(item, 2) == "_c2"


class TestNullsLastOrdering:
    def test_nulls_sort_last_ascending(self):
        values = [3, None, 1, None, 2]
        wrapped = sorted(values, key=lambda v: _NullsLast(v, False))
        assert wrapped == [1, 2, 3, None, None]

    def test_descending(self):
        values = [3, None, 1]
        wrapped = sorted(values, key=lambda v: _NullsLast(v, True))
        assert wrapped == [3, 1, None]

    def test_mixed_types_fall_back_to_repr(self):
        values = ["b", 1, "a"]
        sorted(values, key=lambda v: _NullsLast(v, False))   # must not raise


class TestSplitPlanning:
    def test_scan_splits_carry_predicate_ranges(self):
        session = HiveSession(profile=ClusterProfile.laptop())
        session.execute("CREATE TABLE t (a int, b string) "
                        "TBLPROPERTIES ('orc.rows_per_file' = '20')")
        session.load_rows("t", [(i, "s") for i in range(100)])
        executor = SelectExecutor(session)
        stmt = parse("SELECT b FROM t WHERE a >= 60")
        result = executor.run(stmt)
        assert len(result.rows) == 40
        # The scan job touched fewer bytes than a full read would have.
        full = SelectExecutor(session).run(parse("SELECT b FROM t"))
        assert len(full.rows) == 100

    def test_pruned_scan_cheaper(self):
        session = HiveSession(profile=ClusterProfile.laptop())
        session.execute("CREATE TABLE t (a int, b string) "
                        "TBLPROPERTIES ('orc.rows_per_file' = '20', "
                        "'orc.stripe_rows' = '5')")
        session.load_rows("t", [(i, "filler" * 10) for i in range(200)])
        narrow = session.execute("SELECT b FROM t WHERE a = 5")
        wide = session.execute("SELECT b FROM t")
        assert narrow.sim_seconds < wide.sim_seconds
