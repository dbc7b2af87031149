"""Stripe pruning on master files with deltas.

One rule serves every reader of a DualTable master file
(``DualTableStore.pruning_ranges``): a file's stripe statistics prune by
each predicate column that none of its deltas assigns, and a file with
no surviving stripe is read for its footer only.

The differential oracle is the same SELECT with pruning off: every
split's ranges emptied and the LOOKUP plan switched off, so every file
is read whole and the WHERE alone picks the rows.  Dropping the
assigned-column exclusion from the rule (pruning a ``w`` range in a
file whose delta moved a row's ``w`` into it) fails the ``update-w``,
``merge``, ``compact-partial`` and ``crash`` cases.
"""

import pytest

from repro.cluster import ClusterProfile
from repro.core.master import FILE_ID_KEY
from repro.core.record_id import encode_record_id
from repro.core.store import DualTableStore
from repro.hive import HiveSession
from repro.hive.parser import parse
from repro.hive.pushdown import extract_ranges
from repro.hive.rowedit import WhereEdit
from repro.orc.reader import OrcReader

N, PER_FILE, STRIPE = 240, 40, 10
FILES = N // PER_FILE

MOVE_W = ["UPDATE t SET w = w + 1000 WHERE k % 9 = 0 AND k < 80",
          "UPDATE t SET w = 5 WHERE k = 200"]
SCENARIOS = {
    "update-other": ["UPDATE t SET v = v + 1 WHERE k % 7 = 0"],
    "update-w": MOVE_W,
    "delete": ["DELETE FROM t WHERE k % 5 = 1",
               "DELETE FROM t WHERE w >= 100 AND w < 110"],
    "update-pk": ["UPDATE t SET k = k + 1000 WHERE k = 33"],
    "merge": ["MERGE INTO t USING s ON t.k = s.k "
              "WHEN MATCHED THEN UPDATE SET w = s.w, g = s.g "
              "WHEN NOT MATCHED THEN INSERT VALUES (s.k, s.g, 0, s.w)"],
    "compact-partial": MOVE_W + ["DELETE FROM t WHERE k % 5 = 1",
                                 "COMPACT TABLE t PARTIAL 2",
                                 "UPDATE t SET w = 7 WHERE k = 150"],
    "crash": MOVE_W + ["DELETE FROM t WHERE k % 5 = 1", "crash"],
}
PREDICATES = [
    "w = 5", "w IN (5, 7, 36, 1009, 1063)", "w >= 1000", "w < 20",
    "w BETWEEN 100 AND 130", "k < 60 AND w > 30", "g = 'g1' AND w < 100",
    "k IN (33, 1033, 150)", "v > 2000 AND k >= 200", "k = 1033",
    "k >= 140 AND k < 160 AND w <= 10",
]


def build(workers=1, shards=1, scenario=(), attached="hbase"):
    """``t (k, g, v, w)``: six files of 40 rows, stripes of 10, ``w``
    sorted like the key; ``s`` is a MERGE source."""
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers))
    sharded = " SHARDED BY (k) INTO %d" % shards if shards > 1 else ""
    session.execute(
        "CREATE TABLE t (k int, g string, v int, w int, PRIMARY KEY (k)) "
        "STORED AS dualtable%s TBLPROPERTIES ('orc.rows_per_file' = '%d', "
        "'orc.stripe_rows' = '%d', 'dualtable.mode' = 'edit', "
        "'dualtable.attached' = '%s')" % (sharded, PER_FILE, STRIPE, attached))
    session.load_rows("t", [(k, "g%d" % (k % 4), k * 10, k)
                            for k in range(N)])
    session.execute("CREATE TABLE s (k int, g string, w int)")
    session.load_rows("s", [(3, "g1", 1003), (170, "g1", 12), (500, "g9", 9)])
    for sql in scenario:
        if sql == "crash":
            session.hbase.crash_region_server()
        else:
            session.execute(sql)
    return session


def ranges_of(where):
    return extract_ranges(parse("SELECT k FROM t WHERE " + where).where)


def select(session, where):
    return sorted(session.execute(
        "SELECT k, g, v, w FROM t WHERE " + where).rows)


def unpruned(session, monkeypatch, where):
    """The oracle: ``where`` with every file read whole."""
    with monkeypatch.context() as patch:
        patch.setattr(DualTableStore, "pruning_ranges",
                      lambda self, file_id, ranges, dirty=None: {})
        session.execute("SET dualtable.plan = scan")
        try:
            return select(session, where)
        finally:
            session.execute("SET dualtable.plan = cost")


@pytest.mark.parametrize("workers,shards", [(1, 1), (4, 1), (1, 4), (4, 4)])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_pruned_select_equals_unpruned(scenario, workers, shards,
                                       monkeypatch):
    session = build(workers, shards, SCENARIOS[scenario])
    for where in PREDICATES:
        assert select(session, where) \
            == unpruned(session, monkeypatch, where), where


@pytest.mark.parametrize("scenario", ["update-w", "merge"])
def test_btree_attached_table_prunes_by_the_same_rule(scenario, monkeypatch):
    session = build(scenario=SCENARIOS[scenario], attached="btree")
    # every file with deltas has one that assigns w
    assert session.table("t").handler.pruning_on_dirty_files(
        ranges_of("w = 5")) == ((2 if scenario == "merge" else 3), {"w": 0})
    for where in PREDICATES:
        assert select(session, where) \
            == unpruned(session, monkeypatch, where), where


def test_the_cases_are_dirty_and_pruned():
    """The differential means something: deltas sit on the files the
    predicates prune, and reads skip stripes and whole files there."""
    session = build(scenario=MOVE_W + ["DELETE FROM t WHERE k % 5 = 1"])
    handler = session.table("t").handler
    dirty, kept = handler.pruning_on_dirty_files(ranges_of("k = 1 AND w = 1"))
    assert (dirty, kept) == (FILES, {"k": FILES, "w": FILES - 3})
    counters = session.cluster.metrics.counters
    before = dict(counters)

    def counted(name):
        return counters[name] - before.get(name, 0)

    assert [k for k, *_ in select(session, "w >= 1000 AND k < 160")] \
        == [0, 9, 18, 27, 45, 54, 63, 72]
    # files 0 and 1 are read whole (their deltas assign w), 2 and 3
    # pruned by w, 4 and 5 by k
    assert counted("unionread.files_skipped") == 4
    assert counted("unionread.stripes_pruned") == 4 * PER_FILE // STRIPE


class TestOneFileOnly:
    def splits(self, session, where):
        handler = session.table("t").handler
        edit = WhereEdit(parse("DELETE FROM t WHERE " + where),
                         handler.schema)
        return [sorted(f.ranges)
                for f in handler.plan_files(["k"], edit.ranges)]

    def test_update_of_w_turns_w_pruning_off_in_that_file_only(self):
        session = build()
        where = "k >= 0 AND w >= 0 AND v >= 0"
        assert self.splits(session, where) == [["k", "v", "w"]] * FILES
        session.execute("UPDATE t SET v = 0 WHERE k = 90")
        session.execute("DELETE FROM t WHERE k = 130")
        expect = [["k", "v", "w"]] * FILES
        expect[2] = ["k", "w"]
        assert self.splits(session, where) == expect
        session.execute("UPDATE t SET w = -1 WHERE k = 41")
        expect[1] = ["k", "v"]
        assert self.splits(session, where) == expect
        assert select(session, "w < 0") == [(41, "g1", 410, -1)]


def footer_bytes(session):
    handler = session.table("t").handler
    return sum(handler.master.meta(path)._footer_bytes
               for path in handler.master.file_paths())


class TestFootersOnly:
    def test_a_fully_pruned_dirty_file_charges_its_footer_only(self):
        session = build()
        ledger = session.cluster.ledger
        sql = "SELECT k, w FROM t WHERE w > 100000"

        def charged():
            before = ledger.snapshot()
            assert session.execute(sql).rows == []
            return ledger.diff(before)

        clean = charged()
        session.execute("UPDATE t SET v = v + 1 WHERE k % 3 = 0")
        counters = session.cluster.metrics.counters
        skipped = counters.get("unionread.files_skipped", 0)
        dirty = charged()
        # the same charges; seconds differ in the last bits only, as
        # they add onto a different running total
        assert (dirty["bytes"], dirty["ops"]) == (clean["bytes"], clean["ops"])
        assert dirty["total_seconds"] == pytest.approx(clean["total_seconds"])
        assert not any(key.startswith("hbase/")
                       for key in map("/".join, dirty["bytes"]))
        # each file's task opens its footer; planning reads metadata
        assert dirty["bytes"][("hdfs", "read")] == footer_bytes(session)
        assert counters["unionread.files_skipped"] - skipped == FILES
        assert counters["unionread.files_skipped.t"] >= FILES


class TestObservability:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_counters_table_wide_and_per_store(self, shards):
        session = build(shards=shards, scenario=MOVE_W)
        stores = [store.name for store in session.table("t").handler.shards]
        counters = session.cluster.metrics.counters
        before = dict(counters)

        def counted(name):
            return counters.get(name, 0) - before.get(name, 0)

        select(session, "w < 20")
        for name in ("stripes_pruned", "files_skipped"):
            total = counted("unionread." + name)
            assert total > 0
            assert total == sum(counted("unionread.%s.%s" % (name, store))
                                for store in stores)
        if shards == 1:
            # the deltas of files 0, 1 and 5 assign w: read whole; the
            # clean files 2, 3 and 4 are skipped
            assert counted("unionread.files_skipped") == 3
            assert counted("unionread.stripes_pruned") \
                == 3 * PER_FILE // STRIPE

    def test_explain_counts_files_that_keep_pruning(self):
        session = build(scenario=["UPDATE t SET v = 0 WHERE k = 90"]
                        + MOVE_W)
        lines = [line for line, in session.execute(
            "EXPLAIN SELECT k FROM t WHERE w < 20 AND v > 5").rows]
        # deltas on files 0, 1 and 5 assign w, on file 2 v
        assert "    stripe-prunable predicate columns: v (on in 3 of 4 "\
            "files with deltas), w (on in 1 of 4 files with deltas)" \
            in [line.rstrip() for line in lines]


def test_edit_estimate_equals_the_stripe_bytes_the_job_charges(monkeypatch):
    """The cost model prices the EDIT scan with the rule the scan
    follows: a file whose delta assigns ``w`` is read whole."""
    session = build(scenario=["UPDATE t SET w = 500 WHERE k = 50"])
    handler = session.table("t").handler
    sql = "UPDATE t SET g = 'x' WHERE w >= 20 AND w < 35"
    session.execute("SET dualtable.plan = scan")
    predicted = handler._edit_scan_bytes(WhereEdit(parse(sql),
                                                   handler.schema))
    charged = []
    decode = OrcReader._decode_stripe_columns

    def counting(reader, stripe, indices):
        charged.append(sum(stripe.columns[i]["length"] for i in indices))
        return decode(reader, stripe, indices)

    monkeypatch.setattr(OrcReader, "_decode_stripe_columns", counting)
    result = session.execute(sql)
    assert result.plan == "update-edit" and result.jobs
    assert result.affected == 15
    # file 0 by its statistics (2 stripes), file 1 whole (4)
    assert len(charged) == 6
    assert predicted == sum(charged)


def test_edit_estimate_prices_the_job_projection_when_the_edit_reads_none():
    """An edit that reads no column still scans one (``RowEdit
    .projection``); the estimate prices that one, not every column."""
    session = build()
    handler = session.table("t").handler
    sql = "UPDATE t SET g = 'x'"
    predicted = handler._edit_scan_bytes(WhereEdit(parse(sql),
                                                   handler.schema))
    ledger = session.cluster.ledger
    before = ledger.snapshot()
    result = session.execute(sql)
    assert result.plan == "update-edit" and result.affected == N
    # planning reads metadata: the statement's HDFS reads are the tasks'
    # footers and the stripe columns the estimate priced
    read = ledger.diff(before)["bytes"][("hdfs", "read")]
    assert predicted == read - footer_bytes(session) > 0


class TestTrailingDeltas:
    """``unionread.trailing_deltas`` counts deltas past a file's last
    row, by the file's row count, not by the last batch a read took."""

    def counted(self, session, where):
        counters = session.cluster.metrics.counters
        before = counters.get("unionread.trailing_deltas", 0)
        select(session, where)
        return counters.get("unionread.trailing_deltas", 0) - before

    def test_deltas_of_pruned_stripes_do_not_trail(self):
        session = build(scenario=["UPDATE t SET v = -v WHERE k % 40 >= 30"])
        assert self.counted(session, "w < 15") == 0
        assert self.counted(session, "k = 45") == 0

    def test_a_delta_past_the_last_row_still_trails(self):
        session = build(scenario=["UPDATE t SET v = -v WHERE k % 40 >= 30"])
        handler = session.table("t").handler
        master = handler.master
        file_id = int(master.meta(master.file_paths()[0])
                      .metadata[FILE_ID_KEY])
        handler.attached.put_update(encode_record_id(file_id, PER_FILE + 3),
                                    {2: 777})
        assert self.counted(session, "w < 15") == 1
        assert self.counted(session, "k >= 0") == 1
