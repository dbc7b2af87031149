"""Tests for MERGE INTO (the grid's proprietary upsert, Table I)."""

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import (AnalysisError, FaultInjectedError,
                                 ParseError, TaskFailedError)
from repro.faults import Fault, FaultPlan
from repro.hive import HiveSession
from repro.hive import ast_nodes as ast
from repro.hive.parser import parse

from tests.golden import golden, jsonable


@pytest.fixture
def session():
    return HiveSession(profile=ClusterProfile.laptop())


STORAGES = ["orc", "hbase", "dualtable", "acid"]


def setup_tables(session, storage):
    session.execute(
        "CREATE TABLE archive (dev_id int, model string, fw double) "
        "STORED AS %s" % storage)
    session.load_rows("archive", [(i, "m%d" % (i % 3), 1.0)
                                  for i in range(50)])
    session.execute(
        "CREATE TABLE incoming (dev_id int, model string, fw double)")
    session.load_rows("incoming", [
        (10, "m-upgraded", 2.0),        # existing: should update
        (20, "m-upgraded", 2.0),        # existing: should update
        (999, "m-new", 3.0),            # new: should insert
    ])


MERGE_SQL = """
MERGE INTO archive a USING incoming i ON a.dev_id = i.dev_id
WHEN MATCHED THEN UPDATE SET model = i.model, fw = i.fw
WHEN NOT MATCHED THEN INSERT VALUES (i.dev_id, i.model, i.fw)
"""


class TestParsing:
    def test_full_merge(self):
        stmt = parse(MERGE_SQL)
        assert isinstance(stmt, ast.MergeStmt)
        assert stmt.target == "archive" and stmt.alias == "a"
        assert len(stmt.matched_assignments) == 2
        assert len(stmt.insert_values) == 3

    def test_update_only(self):
        stmt = parse("MERGE INTO t USING s ON t.k = s.k "
                     "WHEN MATCHED THEN UPDATE SET v = s.v")
        assert stmt.insert_values is None

    def test_insert_only(self):
        stmt = parse("MERGE INTO t USING s ON t.k = s.k "
                     "WHEN NOT MATCHED THEN INSERT VALUES (s.k, s.v)")
        assert stmt.matched_assignments == []
        assert len(stmt.insert_values) == 2

    def test_subquery_source(self):
        stmt = parse("MERGE INTO t USING (SELECT k, v FROM u) s "
                     "ON t.k = s.k WHEN MATCHED THEN UPDATE SET v = s.v")
        assert stmt.source.subquery is not None

    def test_no_arms_rejected(self):
        with pytest.raises(ParseError):
            parse("MERGE INTO t USING s ON t.k = s.k")


@pytest.mark.parametrize("storage", STORAGES)
class TestMergeSemantics:
    def test_upsert(self, session, storage):
        setup_tables(session, storage)
        result = session.execute(MERGE_SQL)
        assert result.detail["matched"] == 2
        assert result.detail["inserted"] == 1
        assert result.affected == 3
        assert session.execute(
            "SELECT count(*) FROM archive").scalar() == 51
        assert session.execute(
            "SELECT model FROM archive WHERE dev_id = 10"
        ).scalar() == "m-upgraded"
        assert session.execute(
            "SELECT fw FROM archive WHERE dev_id = 999").scalar() == 3.0

    def test_unmatched_target_rows_untouched(self, session, storage):
        setup_tables(session, storage)
        session.execute(MERGE_SQL)
        assert session.execute(
            "SELECT model FROM archive WHERE dev_id = 11"
        ).scalar() == "m2"

    def test_update_only_merge(self, session, storage):
        setup_tables(session, storage)
        result = session.execute(
            "MERGE INTO archive a USING incoming i ON a.dev_id = i.dev_id "
            "WHEN MATCHED THEN UPDATE SET fw = i.fw")
        assert result.detail["matched"] == 2
        assert result.detail["inserted"] == 0
        assert session.execute(
            "SELECT count(*) FROM archive").scalar() == 50

    def test_insert_only_merge(self, session, storage):
        setup_tables(session, storage)
        result = session.execute(
            "MERGE INTO archive a USING incoming i ON a.dev_id = i.dev_id "
            "WHEN NOT MATCHED THEN INSERT VALUES (i.dev_id, i.model, i.fw)")
        assert result.detail["inserted"] == 1
        assert session.execute(
            "SELECT count(*) FROM archive").scalar() == 51
        # matched rows untouched
        assert session.execute(
            "SELECT model FROM archive WHERE dev_id = 10").scalar() == "m1"

    def test_merge_idempotent_second_run(self, session, storage):
        setup_tables(session, storage)
        session.execute(MERGE_SQL)
        result = session.execute(MERGE_SQL)
        assert result.detail["inserted"] == 0        # 999 exists now
        assert result.detail["matched"] == 3
        assert session.execute(
            "SELECT count(*) FROM archive").scalar() == 51


class TestMergeDetails:
    def test_expressions_using_both_sides(self, session):
        setup_tables(session, "dualtable")
        session.execute(
            "MERGE INTO archive a USING incoming i ON a.dev_id = i.dev_id "
            "WHEN MATCHED THEN UPDATE SET fw = a.fw + i.fw")
        assert session.execute(
            "SELECT fw FROM archive WHERE dev_id = 10").scalar() == 3.0

    def test_subquery_source_end_to_end(self, session):
        setup_tables(session, "orc")
        result = session.execute(
            "MERGE INTO archive a USING "
            "(SELECT dev_id, model, fw FROM incoming WHERE fw >= 3) s "
            "ON a.dev_id = s.dev_id "
            "WHEN MATCHED THEN UPDATE SET model = s.model "
            "WHEN NOT MATCHED THEN INSERT VALUES (s.dev_id, s.model, s.fw)")
        assert result.detail["source_rows"] == 1
        assert result.detail["inserted"] == 1

    def test_duplicate_source_keys_first_wins(self, session):
        session.execute("CREATE TABLE t (k int, v string)")
        session.load_rows("t", [(1, "old")])
        session.execute("CREATE TABLE s (k int, v string)")
        session.load_rows("s", [(1, "first"), (1, "second")])
        session.execute("MERGE INTO t USING s ON t.k = s.k "
                        "WHEN MATCHED THEN UPDATE SET v = s.v")
        assert session.execute("SELECT v FROM t").scalar() == "first"

    def test_dualtable_merge_reports_plan(self, session):
        setup_tables(session, "dualtable")
        result = session.execute(MERGE_SQL)
        assert result.detail["plan"] in ("edit", "overwrite")

    def test_dualtable_edit_merge_uses_attached(self, session):
        session.execute(
            "CREATE TABLE archive (dev_id int, model string, fw double) "
            "STORED AS dualtable TBLPROPERTIES "
            "('dualtable.mode' = 'edit')")
        session.load_rows("archive", [(i, "m", 1.0) for i in range(50)])
        session.execute("CREATE TABLE incoming "
                        "(dev_id int, model string, fw double)")
        session.load_rows("incoming", [(10, "x", 2.0)])
        handler = session.table("archive").handler
        files = handler.master.file_paths()
        session.execute(
            "MERGE INTO archive a USING incoming i ON a.dev_id = i.dev_id "
            "WHEN MATCHED THEN UPDATE SET model = i.model")
        assert handler.master.file_paths() == files   # master untouched
        assert not handler.attached.is_empty()

    def test_non_equi_on_rejected(self, session):
        setup_tables(session, "orc")
        with pytest.raises(AnalysisError):
            session.execute(
                "MERGE INTO archive a USING incoming i ON a.dev_id > 1 "
                "WHEN MATCHED THEN UPDATE SET fw = 0")

    def test_merge_after_compact_consistent(self, session):
        setup_tables(session, "dualtable")
        session.execute(MERGE_SQL)
        session.execute("COMPACT TABLE archive")
        assert session.execute(
            "SELECT model FROM archive WHERE dev_id = 20"
        ).scalar() == "m-upgraded"
        assert session.execute(
            "SELECT count(*) FROM archive").scalar() == 51


class TestMergeOnBtreeBackend:
    def test_merge_with_btree_attached(self, session):
        session.execute(
            "CREATE TABLE archive (dev_id int, model string, fw double) "
            "STORED AS dualtable TBLPROPERTIES "
            "('dualtable.attached' = 'btree', 'dualtable.mode' = 'edit')")
        session.load_rows("archive", [(i, "m", 1.0) for i in range(30)])
        session.execute(
            "CREATE TABLE incoming (dev_id int, model string, fw double)")
        session.load_rows("incoming", [(5, "x", 2.0), (99, "new", 3.0)])
        result = session.execute(
            "MERGE INTO archive a USING incoming i ON a.dev_id = i.dev_id "
            "WHEN MATCHED THEN UPDATE SET model = i.model "
            "WHEN NOT MATCHED THEN INSERT VALUES (i.dev_id, i.model, i.fw)")
        assert result.detail["matched"] == 1
        assert result.detail["inserted"] == 1
        assert session.execute(
            "SELECT model FROM archive WHERE dev_id = 5").scalar() == "x"
        assert session.execute(
            "SELECT count(*) FROM archive").scalar() == 31


# ----------------------------------------------------------------------
# The matched arm is the storage's UPDATE: coercion, the redo log, the
# cost model and shard routing come with it.
# ----------------------------------------------------------------------
UPDATE_KINDS = {
    "orc": "STORED AS orc",
    "partitioned": "PARTITIONED BY (p string) STORED AS orc",
    "hbase": "STORED AS hbase",
    "acid": "STORED AS acid",
    "edit": "STORED AS dualtable TBLPROPERTIES ('dualtable.mode' = 'edit')",
    "overwrite": "STORED AS dualtable "
                 "TBLPROPERTIES ('dualtable.mode' = 'overwrite')",
    "sharded1": "STORED AS dualtable SHARDED BY (k) INTO 1 "
                "TBLPROPERTIES ('dualtable.mode' = 'edit')",
    "sharded4": "STORED AS dualtable SHARDED BY (k) INTO 4 "
                "TBLPROPERTIES ('dualtable.mode' = 'edit')",
}
UPSERT = ("MERGE INTO t USING u ON t.k = u.k "
          "WHEN MATCHED THEN UPDATE SET v = u.d")


def int_table(session, storage, rows=8):
    """``t (k int, v int)`` with v = 10 k, and ``u (k int, d double)``."""
    session.execute("CREATE TABLE t (k int, v int) %s" % storage)
    data = [(k, 10 * k) for k in range(rows)]
    session.load_rows("t", [row + ("p%d" % (row[0] % 2),) for row in data]
                      if "PARTITIONED" in storage else data)
    session.execute("CREATE TABLE u (k int, d double)")
    return session.table("t").handler


@pytest.mark.parametrize("kind", list(UPDATE_KINDS))
def test_double_source_values_take_the_int_column_type(session, kind):
    int_table(session, UPDATE_KINDS[kind])
    session.load_rows("u", [(1, 2.5), (2, 3.75)])
    result = session.execute(UPSERT)
    assert result.affected == 2
    rows = session.execute("SELECT k, v FROM t ORDER BY k").rows
    assert [[(type(v), v) for v in row] for row in rows[:4]] == [
        [(int, 0), (int, 0)], [(int, 1), (int, 2)], [(int, 2), (int, 3)],
        [(int, 3), (int, 30)]]


def test_sharded_merge_follows_the_dualtable_mode(session):
    handler = int_table(session, UPDATE_KINDS["sharded4"])
    session.load_rows("u", [(1, 5.0), (6, 7.0)])
    files = handler.master.file_paths()
    result = session.execute(UPSERT)
    assert result.plan == "merge(update=edit)"
    assert handler.master.file_paths() == files     # master untouched
    assert not handler.attached.is_empty()
    assert session.execute("SELECT v FROM t WHERE k = 6").scalar() == 7


def test_failed_merge_leaves_no_delta_visible(session):
    """Every attempt of map task 3 crashes (hit 1 is the source scan,
    tasks 0-2 are hits 2-4): the statement fails and no task's edits are
    published, as for the same UPDATE."""
    handler = int_table(session, "STORED AS dualtable TBLPROPERTIES ("
                        "'dualtable.mode' = 'edit', 'orc.rows_per_file' = '10')",
                        rows=40)
    session.load_rows("u", [(1, 100.0), (35, 350.0)])
    session.cluster.faults.install(FaultPlan(
        [Fault("mapreduce.map", n, "crash") for n in range(5, 15)]))
    with pytest.raises(TaskFailedError):
        session.execute(UPSERT)
    session.cluster.faults.uninstall()
    assert handler.attached.is_empty()
    assert session.execute("SELECT v FROM t WHERE k = 1").scalar() == 10


def test_killed_publish_is_rolled_forward(session):
    handler = int_table(session, UPDATE_KINDS["edit"])
    session.load_rows("u", [(1, 2.5), (7, 70.0)])
    session.cluster.faults.install(FaultPlan([
        Fault("dualtable.dml.publish", nth_hit=1, kind="kill")]))
    with pytest.raises(FaultInjectedError):
        session.execute(UPSERT)
    session.cluster.faults.uninstall()
    assert handler.attached.is_empty()      # staged, not yet published
    outcome = handler.recover()
    assert [verdict for _, verdict in outcome["dml"]] == ["rolled_forward"]
    assert session.execute("SELECT k, v FROM t WHERE k IN (1, 7) "
                           "ORDER BY k").rows == [(1, 2), (7, 70)]


# ----------------------------------------------------------------------
# MERGE reads ColumnBatches; what it returned, charged and wrote while it
# still read rows is the reference (tests/golden.py).  ``merge/edit`` and
# ``merge/sharded`` were re-recorded when the matched arm became an
# UPDATE: it commits through the redo log, and a sharded table follows
# its ``dualtable.mode``.
# ----------------------------------------------------------------------
GOLDEN_KINDS = {
    "orc": "STORED AS orc TBLPROPERTIES (",
    "partitioned": "PARTITIONED BY (p string) STORED AS orc TBLPROPERTIES (",
    "edit": "STORED AS dualtable TBLPROPERTIES ('dualtable.mode' = 'edit', ",
    "overwrite": "STORED AS dualtable TBLPROPERTIES ("
                 "'dualtable.mode' = 'overwrite', ",
    "sharded": "STORED AS dualtable SHARDED BY (k) INTO 4 TBLPROPERTIES ("
               "'dualtable.mode' = 'edit', ",
}
#: duplicate key 5 (the first row wins), a NULL key, keys behind a
#: deleted row (77) and at a file's end (119), and two new keys.
SOURCE = [(5, 1, "a"), (5, 2, "dup"), (None, 3, "nil"), (77, 4, "b"),
          (119, 5, "c"), (500, 6, "new"), (501, 7, "new")]
GOLDEN_MERGES = [
    # Insert-only: a key-column probe finds the four keys that exist.
    "MERGE INTO t USING u ON t.k = u.k "
    "WHEN NOT MATCHED THEN INSERT VALUES (u.k, u.d, u.tag%s)",
    # Both arms; the assignments read the target and the source row.
    "MERGE INTO t USING u ON t.k = u.k "
    "WHEN MATCHED THEN UPDATE SET v = t.v * 10 + u.d, s = concat(t.s, u.tag) "
    "WHEN NOT MATCHED THEN INSERT VALUES (u.k, u.d, u.tag%s)",
]


def observe_merges(kind, workers=1, batch_rows=None):
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers),
                          batch_rows=batch_rows)
    partitioned = kind == "partitioned"
    session.execute(
        "CREATE TABLE t (k int, v int, s string) %s"
        "'orc.rows_per_file' = '40', 'orc.stripe_rows' = '10')"
        % GOLDEN_KINDS[kind])
    rows = [(k, k % 9, "s%d" % (k % 4)) for k in range(120)]
    rows.insert(60, (None, -1, "nil"))
    session.load_rows("t", [row + ("p%d" % (row[1] % 2),) for row in rows]
                      if partitioned else rows)
    session.execute("CREATE TABLE u (k int, d int, tag string)")
    session.load_rows("u", SOURCE)
    handler = session.table("t").handler
    if kind in ("edit", "sharded"):
        # MERGE meets live deltas: a patched key and a row whose record
        # id sits behind a deleted one.
        session.execute("UPDATE t SET v = v + 100 WHERE k IN (4, 5, 6)")
        session.execute("DELETE FROM t WHERE k = 76")
    steps = []
    for sql in GOLDEN_MERGES:
        before = session.cluster.ledger.snapshot()
        result = session.execute(sql % (", 'p9'" if partitioned else ""))
        cells = [(shard, record_id, delta.deleted, delta.updates)
                 for shard, child in enumerate(
                     getattr(handler, "children", [handler]))
                 if hasattr(child, "attached")
                 for record_id, delta in child.attached.scan_range()]
        steps.append({
            "plan": result.plan, "affected": result.affected,
            "detail": {name: result.detail.get(name) for name in
                       ("plan", "matched", "inserted", "source_rows")},
            "sim_seconds": result.sim_seconds,
            "ledger": session.cluster.ledger.diff(before),
            "cells": cells,
            "rows": sorted(map(repr, session.execute("SELECT * FROM t"))),
        })
    return steps


def golden_sections():
    return {"merge/" + kind: observe_merges(kind) for kind in GOLDEN_KINDS}


@pytest.mark.parametrize("kind", list(GOLDEN_KINDS))
def test_merge_reproduces_the_row_reader(kind):
    want = golden("merge/" + kind)
    assert want[0]["detail"]["inserted"] == 2       # 500 and 501
    assert want[1]["detail"]["matched"] == 6        # 5, NULL, 77, 119 too
    assert bool(want[0]["cells"]) == (kind in ("edit", "sharded"))
    assert bool(want[1]["cells"]) == (kind in ("edit", "sharded"))
    for workers, batch_rows in ((1, None), (4, None), (1, 64)):
        for got, expect in zip(jsonable(observe_merges(kind, workers,
                                                       batch_rows)), want):
            for name in expect:
                assert got[name] == expect[name], (name, workers, batch_rows)
