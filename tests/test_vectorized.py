"""The batch engine contract: the simulated clock cannot see it.

Runs one mixed workload (DML, scans with LIKE/IN/CASE predicates,
grouped aggregation, HAVING, ORDER BY ... LIMIT, outer joins, COMPACT)
at 1 and 4 workers and three batch sizes, demanding the result rows,
simulated seconds, cost-ledger snapshot and metric counters (``cache.*``
excluded, the one documented exclusion) the row engine produced before
it was deleted (``tests/golden.py``).  Also covered here: UNION READ
merge-stat parity with the specification merge, the exception-divergence
fallback, the interpreted fallback for unvectorizable nodes, the
``batch_rows`` knob, and the top-k ORDER BY ... LIMIT heap.
"""

import pytest

from repro.cluster import ClusterProfile
from repro.core import encode_record_id
from repro.hive import HiveSession
from repro.hive import ast_nodes as ast
from repro.hive import vexpr
from repro.hive.expressions import Env, compile_expr, is_true
from repro.hive.parser import parse
from repro.vector import (DEFAULT_BATCH_ROWS, MAX_BATCH_ROWS,
                          MIN_BATCH_ROWS, ColumnBatch, batch_from_rows,
                          batches_from_rows, validate_batch_rows)

from tests.delta_reference import union_read_rows
from tests.golden import golden, jsonable

LEFT_ROWS = [(i, None if i % 4 == 0 else i % 5, "l%d" % i)
             for i in range(24)]
RIGHT_ROWS = [(i, None if i % 3 == 0 else i % 5, i * 10)
              for i in range(18)]

WORKLOAD = [
    "SELECT count(*), sum(v), min(grp), max(grp) FROM t",
    "SELECT k, v FROM t WHERE v < 4 AND grp = 'g1' AND w >= 0 "
    "ORDER BY k",
    "SELECT k FROM t WHERE grp LIKE 'g%' AND v IN (1, 2, 5) ORDER BY k",
    "SELECT k, CASE WHEN v < 3 THEN 'lo' ELSE 'hi' END FROM t "
    "WHERE k < 12 ORDER BY k",
    "UPDATE t SET v = 111 WHERE k < 20",
    "SELECT count(*), sum(v) FROM t WHERE v = 111",
    "DELETE FROM t WHERE k >= 70",
    "INSERT INTO t VALUES (200, 'z', 5, 0.5), (201, 'z', 6, 1.5)",
    "SELECT grp, count(*), sum(v), avg(w), min(v), max(w) FROM t "
    "GROUP BY grp ORDER BY grp",
    "SELECT grp, count(*) FROM t GROUP BY grp "
    "HAVING count(*) > 5 ORDER BY grp",
    "SELECT count(*), sum(v + 1), avg(v * 2) FROM t WHERE v IS NOT NULL",
    "COMPACT TABLE t",
    "SELECT count(*), sum(v) FROM t",
    "SELECT k, grp, v FROM t ORDER BY grp, k LIMIT 7",
    "SELECT a.k, a.j, b.v FROM a LEFT JOIN b ON a.j = b.j "
    "ORDER BY a.k, b.v",
    "SELECT a.tag, b.v FROM a FULL JOIN b ON a.j = b.j "
    "ORDER BY a.tag, b.v",
    "SELECT count(*) FROM a JOIN b ON a.j = b.j",
]


def run_workload(workers=1, batch_rows=None):
    """Run the workload; return everything that must be identical."""
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers),
                          batch_rows=batch_rows)
    session.execute(
        "CREATE TABLE t (k int, grp string, v int, w double) "
        "STORED AS dualtable "
        "TBLPROPERTIES ('orc.rows_per_file' = '10')")
    session.load_rows("t", [(i, "g%d" % (i % 3), i % 7, i / 8.0)
                            for i in range(90)])
    session.execute(
        "CREATE TABLE a (k int, j int, tag string) STORED AS orc "
        "TBLPROPERTIES ('orc.rows_per_file' = '6')")
    session.load_rows("a", LEFT_ROWS)
    session.execute(
        "CREATE TABLE b (k int, j int, v int) STORED AS orc "
        "TBLPROPERTIES ('orc.rows_per_file' = '6')")
    session.load_rows("b", RIGHT_ROWS)

    transcript = []
    for sql in WORKLOAD:
        result = session.execute(sql)
        transcript.append((sql, repr(result.rows), result.sim_seconds))
    cluster = session.cluster
    counters = {name: value
                for name, value in cluster.metrics.counters.items()
                if not name.startswith("cache.")}
    return transcript, cluster.ledger.snapshot(), counters


#: batch_rows changes split chunking (hence simulated time), so the row
#: engine was recorded once per size.
BATCH_ROWS = {"default": None, "64": 64, "97": 97}


def golden_sections():
    return {"workload/" + name: run_workload(batch_rows=batch_rows)
            for name, batch_rows in BATCH_ROWS.items()}


def assert_reproduces_row_engine(size, workers):
    transcript, ledger, counters = jsonable(
        run_workload(workers, BATCH_ROWS[size]))
    want_transcript, want_ledger, want_counters = golden("workload/" + size)
    for (sql, rows, seconds), (_, want_rows, want_seconds) \
            in zip(transcript, want_transcript):
        assert rows == want_rows, sql
        assert seconds == want_seconds, sql
    assert ledger == want_ledger
    assert counters == want_counters


class TestEngineEquivalence:
    def test_vectorized_serial_matches_row(self):
        assert_reproduces_row_engine("default", workers=1)

    def test_vectorized_parallel_matches_row(self):
        assert_reproduces_row_engine("default", workers=4)

    def test_engines_match_at_odd_batch_size(self):
        for size in ("64", "97"):
            for workers in (1, 4):
                assert_reproduces_row_engine(size, workers)


# ----------------------------------------------------------------------
# UNION READ merge-stat parity: production merge vs the specification.
# ----------------------------------------------------------------------
UNIONREAD_COUNTERS = ("unionread.files", "unionread.rows",
                      "unionread.deltas_applied", "unionread.rows_deleted",
                      "unionread.deltas_skipped",
                      "unionread.trailing_deltas")


def unionread_scenario(specification, compacted=False):
    """Dualtable with update/delete deltas plus one trailing orphan,
    read by a SELECT or through ``union_read_file``."""
    session = HiveSession(profile=ClusterProfile.laptop())
    session.execute(
        "CREATE TABLE t (k int, v int) STORED AS dualtable "
        "TBLPROPERTIES ('orc.rows_per_file' = '10', "
        "'dualtable.mode' = 'edit')")
    session.load_rows("t", [(i, i * 10) for i in range(40)])
    session.execute("UPDATE t SET v = 1 WHERE k < 5")
    session.execute("UPDATE t SET v = 2 WHERE k >= 20 AND k < 23")
    session.execute("DELETE FROM t WHERE k >= 12 AND k < 15")
    handler = session.table("t").handler
    if compacted:
        session.execute("COMPACT TABLE t")
    else:
        path = handler.master.file_paths()[0]
        file_id = handler.master.file_id_of(path)
        # Orphan id beyond the file's last row: trailing, never merged.
        handler.attached.put_update(encode_record_id(file_id, 99),
                                    {1: 777})
    counters = session.cluster.metrics.counters
    before = {name: counters.get(name, 0) for name in UNIONREAD_COUNTERS}
    if specification:
        rows = sorted(values for split in handler.scan_splits(["k", "v"])
                      for _, values in union_read_rows(handler, split))
    else:
        rows = session.execute("SELECT k, v FROM t ORDER BY k").rows
    return rows, {name: counters.get(name, 0) - before[name]
                  for name in UNIONREAD_COUNTERS}


class TestUnionReadStatsParity:
    def test_dirty_table_counters_match_row_path(self):
        row_rows, row_stats = unionread_scenario(specification=True)
        vec_rows, vec_stats = unionread_scenario(specification=False)
        assert vec_rows == row_rows
        assert vec_stats == row_stats
        # The final SELECT genuinely exercises every classification:
        # 5 + 3 updates applied, 3 deletes, the one trailing orphan.
        assert row_stats["unionread.deltas_applied"] == 8
        assert row_stats["unionread.rows_deleted"] == 3
        assert row_stats["unionread.trailing_deltas"] == 1
        assert row_stats["unionread.deltas_skipped"] == 0

    def test_zero_delta_counters_match_row_path(self):
        row_rows, row_stats = unionread_scenario(True, compacted=True)
        vec_rows, vec_stats = unionread_scenario(False, compacted=True)
        assert vec_rows == row_rows
        assert vec_stats == row_stats
        assert row_stats["unionread.files"] > 0
        assert row_stats["unionread.rows"] == len(row_rows)
        assert row_stats["unionread.deltas_applied"] == 0
        assert row_stats["unionread.trailing_deltas"] == 0


# ----------------------------------------------------------------------
# Fallback shields.
# ----------------------------------------------------------------------
SMALL_ROWS = [(i, "g%d" % (i % 3), i % 5) for i in range(30)]


def small_session():
    session = HiveSession(profile=ClusterProfile.laptop())
    session.execute("CREATE TABLE t (k int, grp string, v int) "
                    "STORED AS orc "
                    "TBLPROPERTIES ('orc.rows_per_file' = '8')")
    session.load_rows("t", SMALL_ROWS)
    return session


def row_closure(sql):
    """``sql``'s WHERE (or, without one, its first select item) as the
    row compiler's closure over ``SMALL_ROWS`` tuples."""
    stmt = parse(sql)
    env = Env().add_schema(["k", "grp", "v"])
    return compile_expr(stmt.where if stmt.where is not None
                        else stmt.items[0].expr, env)


class TestFallbacks:
    def test_eager_conjunct_error_falls_back_to_row_semantics(self):
        # The row closure short-circuits past the erroring conjunct
        # ((v + 0) = -1 is false everywhere); eager batch evaluation
        # raises, and the shield must reproduce the row result.
        sql = ("SELECT k FROM t WHERE (v + 0) = -1 AND ('a' + 1) > 0")
        predicate = row_closure(sql)
        expect = [(row[0],) for row in SMALL_ROWS if is_true(predicate(row))]
        assert small_session().execute(sql).rows == expect == []

    def test_error_reached_by_both_engines_raises_identically(self):
        """A row the closure raises on fails the statement with the
        closure's own error, not one of the batch kernel's making."""
        sql = "SELECT ('a' + k) FROM t"
        with pytest.raises(TypeError) as row_err:
            row_closure(sql)(SMALL_ROWS[0])
        with pytest.raises(Exception) as vec_err:
            small_session().execute(sql)
        assert type(vec_err.value.__cause__) is type(row_err.value)
        assert str(row_err.value) in str(vec_err.value)

    def test_unvectorizable_node_uses_interpreted_fallback(self,
                                                           monkeypatch):
        sql = ("SELECT k, v * 2 FROM t "
               "WHERE grp LIKE 'g1%' AND v > 0 ORDER BY k")
        expect = small_session().execute(sql).rows
        assert expect
        monkeypatch.delitem(vexpr.VECTORIZERS, ast.LikeOp)
        monkeypatch.delitem(vexpr.VECTORIZERS, ast.BinaryOp)
        assert small_session().execute(sql).rows == expect

    def test_compile_batch_interpret_equals_vectorized(self):
        expr = parse("SELECT v * 2 + k").items[0].expr
        env = Env().add_schema(["k", "v"])
        cols = [[1, 2, None, 4], [10, None, 30, 40]]
        fast = vexpr.compile_batch(expr, env)(cols, 4)
        try:
            saved = vexpr.VECTORIZERS.pop(ast.BinaryOp)
            slow = vexpr.compile_batch(expr, env)(cols, 4)
        finally:
            vexpr.VECTORIZERS[ast.BinaryOp] = saved
        assert fast == slow == [21, None, None, 84]


# ----------------------------------------------------------------------
# The batch_rows knob.
# ----------------------------------------------------------------------
class TestBatchRowsKnob:
    def test_bounds_validation(self):
        assert validate_batch_rows(MIN_BATCH_ROWS) == MIN_BATCH_ROWS
        assert validate_batch_rows(MAX_BATCH_ROWS) == MAX_BATCH_ROWS
        assert validate_batch_rows("256") == 256
        for bad in (MIN_BATCH_ROWS - 1, 0, -5, MAX_BATCH_ROWS + 1,
                    "not-a-number", None):
            with pytest.raises(ValueError):
                validate_batch_rows(bad)

    def test_session_knob(self):
        session = HiveSession(profile=ClusterProfile.laptop())
        assert session.batch_rows == DEFAULT_BATCH_ROWS
        assert session.set_batch_rows(128).batch_rows == 128
        with pytest.raises(ValueError):
            session.set_batch_rows(1)
        session = HiveSession(profile=ClusterProfile.laptop(),
                              batch_rows=512)
        assert session.batch_rows == 512

    def test_engine_knob(self, monkeypatch):
        """There is none: one engine, and no way to name another."""
        with pytest.raises(TypeError):
            HiveSession(profile=ClusterProfile.laptop(), engine="row")
        monkeypatch.setenv("REPRO_ENGINE", "row")
        session = HiveSession(profile=ClusterProfile.laptop())
        assert not hasattr(session, "engine")
        assert not hasattr(session, "set_engine")


# ----------------------------------------------------------------------
# Top-k ORDER BY ... LIMIT.
# ----------------------------------------------------------------------
class TestTopKOrderLimit:
    @pytest.fixture(scope="class")
    def session(self):
        session = HiveSession(profile=ClusterProfile.laptop())
        session.execute("CREATE TABLE t (k int, grp string, v int) "
                        "STORED AS orc "
                        "TBLPROPERTIES ('orc.rows_per_file' = '9')")
        # Heavy duplication in grp and v: ties must match a full sort.
        session.load_rows("t", [(i, "g%d" % (i % 3),
                                 None if i % 11 == 0 else i % 4)
                                for i in range(60)])
        return session

    @pytest.mark.parametrize("order", ["grp", "grp DESC", "v, grp",
                                       "v DESC, k", "grp, v DESC"])
    @pytest.mark.parametrize("k", [1, 5, 59, 60, 200])
    def test_limit_equals_full_sort_prefix(self, session, order, k):
        full = session.execute(
            "SELECT k, grp, v FROM t ORDER BY %s" % order).rows
        limited = session.execute(
            "SELECT k, grp, v FROM t ORDER BY %s LIMIT %d"
            % (order, k)).rows
        assert limited == full[:k]

    def test_limit_zero(self, session):
        assert session.execute(
            "SELECT k FROM t ORDER BY k LIMIT 0").rows == []


# ----------------------------------------------------------------------
# ColumnBatch plumbing.
# ----------------------------------------------------------------------
class TestColumnBatch:
    def test_rows_roundtrip(self):
        batch = batch_from_rows([(1, "a"), (2, "b")], 2)
        assert list(batch.rows()) == [(1, "a"), (2, "b")]
        assert len(batch) == 2

    def test_zero_width_batch(self):
        batch = batch_from_rows([(), (), ()], 0)
        assert batch.length == 3
        assert list(batch.rows()) == [(), (), ()]

    def test_take_copies(self):
        batch = batch_from_rows([(1, "a"), (2, "b"), (3, "c")], 2)
        taken = batch.take([0, 2])
        assert list(taken.rows()) == [(1, "a"), (3, "c")]
        taken.columns[0][0] = 99
        assert batch.columns[0][0] == 1

    def test_batches_from_rows_chunks(self):
        rows = [(i,) for i in range(10)]
        batches = list(batches_from_rows(rows, 1, batch_rows=4))
        assert [b.length for b in batches] == [4, 4, 2]
        assert [v for b in batches for (v,) in b.rows()] \
            == list(range(10))

    def test_reader_batches_carry_row_base(self):
        session = small_session()
        handler = session.table("t").handler
        for split in handler.scan_splits():
            batches = list(handler.read_split_batches(split, None))
            base = 0
            for batch in batches:
                assert batch.row_base == base
                base += batch.length

    def test_reader_batches_respect_batch_rows(self):
        session = small_session()
        handler = session.table("t").handler
        split = handler.scan_splits()[0]
        batches = list(handler.read_split_batches(split, None,
                                                  batch_rows=3))
        assert all(b.length <= 3 for b in batches)
        rows = [values for b in batches for values in b.rows()]
        assert rows == SMALL_ROWS[:8]
