"""End-to-end tests of the DualTable storage handler through the session."""

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import (CompactionInProgressError, DualTableError,
                                 TaskFailedError)
from repro.core.record_id import encode_record_id
from repro.hive import HiveSession
from repro.hive.pushdown import ColumnRange


@pytest.fixture
def session():
    return HiveSession(profile=ClusterProfile.laptop())


def make_dualtable(session, mode="edit", n=200, rows_per_file=50):
    session.execute(
        "CREATE TABLE dt (id int, day string, amount double, tag string) "
        "STORED AS DUALTABLE TBLPROPERTIES ("
        "'dualtable.mode' = '%s', 'orc.rows_per_file' = '%d', "
        "'orc.stripe_rows' = '10')" % (mode, rows_per_file))
    rows = [(i, "2013-07-%02d" % (1 + i % 20), float(i), "t%d" % (i % 3))
            for i in range(n)]
    session.load_rows("dt", rows)
    return session.table("dt").handler


class TestReads:
    def test_scan_equals_loaded_rows(self, session):
        make_dualtable(session)
        assert session.execute("SELECT count(*) FROM dt").scalar() == 200

    def test_splits_one_per_master_file(self, session):
        handler = make_dualtable(session, rows_per_file=50)
        assert len(handler.scan_splits()) == 4

    def test_read_split_with_rids_sorted(self, session):
        """A split's batches come in file order: ascending ordinals."""
        handler = make_dualtable(session)
        session.execute("DELETE FROM dt WHERE id % 7 = 0")
        for split in handler.scan_splits():
            ordinals = [ordinal for batch
                        in handler.read_split_batches(split, None,
                                                      batch_rows=64)
                        for ordinal in batch.ordinals(range(batch.length))]
            assert ordinals and ordinals == sorted(set(ordinals))

    def test_pruning_disabled_when_attached_nonempty(self, session):
        """Pruning by a column stops in a file whose deltas assign it,
        and only there; its other columns and other files keep theirs."""
        handler = make_dualtable(session)
        ranges = {"id": ColumnRange(high=5), "tag": ColumnRange(low="t1")}

        def pruned_by():
            return [sorted(f.ranges)
                    for f in handler.plan_files(ranges=ranges)]

        assert pruned_by() == [["id", "tag"]] * 4
        session.execute("UPDATE dt SET tag = 'x' WHERE id = 0")
        # the first file's delta assigns ``tag``: pruning unsafe there.
        assert pruned_by() == [["id"]] + [["id", "tag"]] * 3
        session.execute("DELETE FROM dt WHERE id = 60")
        assert pruned_by() == [["id"]] + [["id", "tag"]] * 3


class TestUpdateCorrectness:
    def test_update_visible_through_union_read(self, session):
        make_dualtable(session)
        session.execute("UPDATE dt SET amount = 0 WHERE day = '2013-07-03'")
        got = session.execute(
            "SELECT count(*) FROM dt WHERE amount = 0 AND id > 0")
        assert got.scalar() == 10

    def test_update_moves_row_into_predicate_range(self, session):
        """Pruning soundness: a second update must see values written by
        the first one even when stripe stats say otherwise."""
        make_dualtable(session)
        session.execute("UPDATE dt SET day = '2099-01-01' WHERE id = 5")
        result = session.execute(
            "UPDATE dt SET tag = 'future' WHERE day = '2099-01-01'")
        assert result.affected == 1
        assert session.execute("SELECT tag FROM dt WHERE id = 5"
                               ).scalar() == "future"

    def test_repeated_updates_last_wins(self, session):
        make_dualtable(session)
        for value in ("a", "b", "c"):
            session.execute("UPDATE dt SET tag = '%s' WHERE id = 7" % value)
        assert session.execute(
            "SELECT tag FROM dt WHERE id = 7").scalar() == "c"

    def test_edit_plan_does_not_touch_master(self, session):
        handler = make_dualtable(session)
        files_before = handler.master.file_paths()
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 10")
        assert handler.master.file_paths() == files_before
        assert not handler.attached.is_empty()

    def test_overwrite_plan_rewrites_master_and_clears_attached(self,
                                                                session):
        handler = make_dualtable(session, mode="edit")
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 10")
        assert not handler.attached.is_empty()
        handler.mode = "overwrite"
        session.execute("UPDATE dt SET tag = 'y' WHERE id < 5")
        assert handler.attached.is_empty()
        assert session.execute(
            "SELECT count(*) FROM dt WHERE tag = 'y'").scalar() == 5
        # earlier edit survived the rewrite
        assert session.execute(
            "SELECT count(*) FROM dt WHERE tag = 'x'").scalar() == 5

    def test_update_history_tracked(self, session):
        handler = make_dualtable(session)
        session.execute("UPDATE dt SET tag = 'v1' WHERE id = 3")
        session.execute("UPDATE dt SET tag = 'v2' WHERE id = 3")
        history = handler.attached.history(encode_record_id(0, 3))
        tag_index = handler.schema.index_of("tag")
        assert [v for _, v in history[tag_index]] == ["v2", "v1"]


class TestSetValuesTakeTheColumnType:
    """Regression: the EDIT plan stored SET values as evaluated — a
    float, or a string, in an int column read back as such, and the next
    COMPACT died in the ORC encoder with a raw ``TypeError``.  Both plans
    now store what the declared type makes of the value, and reject the
    same statements with the same ``AnalysisError``."""

    STATEMENTS = ["UPDATE t SET v = v / 2 WHERE k = 1",
                  "UPDATE t SET grp = 5, w = 96 WHERE k < 3",
                  "UPDATE t SET v = '12', w = k WHERE k = 2",
                  "UPDATE t SET v = w * 1.5 WHERE k >= 7"]

    @staticmethod
    def _run(mode, sharded, statements, server=False):
        session = HiveSession(profile=ClusterProfile.laptop())
        session.execute(
            "CREATE TABLE t (k int, grp string, v int, w double) "
            "PRIMARY KEY (k) STORED AS DUALTABLE %s"
            "TBLPROPERTIES ('dualtable.mode' = '%s')"
            % ("SHARDED BY (k) INTO 4 " if sharded else "", mode))
        session.load_rows("t", [(k, "g%d" % (k % 3), 3 * k, k / 2.0)
                                for k in range(10)])
        execute = session.execute
        if server:
            from repro.server import DualTableServer
            execute = DualTableServer(session, concurrency=1) \
                .connect().execute
        for sql in statements:
            execute(sql)
        before = session.execute("SELECT * FROM t ORDER BY k").rows
        session.execute("COMPACT TABLE t")
        after = session.execute("SELECT * FROM t ORDER BY k").rows
        return [[(type(v), v) for v in row] for row in before], \
            [[(type(v), v) for v in row] for row in after]

    @pytest.mark.parametrize("sharded", [False, True])
    def test_edit_stores_what_overwrite_writes(self, sharded):
        edit = self._run("edit", sharded, self.STATEMENTS)
        overwrite = self._run("overwrite", sharded, self.STATEMENTS)
        assert edit == overwrite
        before, after = edit
        assert before == after
        assert before[1][2] == (int, 1)             # 3 / 2 = 1.5 -> 1
        assert before[2] == [(int, 2), (str, "5"), (int, 12), (float, 2.0)]
        assert before[0][3] == (float, 96.0)

    def test_deferred_server_commit_coerces_too(self):
        assert self._run("edit", False, self.STATEMENTS, server=True) \
            == self._run("overwrite", False, self.STATEMENTS)

    @pytest.mark.parametrize("mode", ["edit", "overwrite"])
    def test_unstorable_value_is_a_typed_error_and_leaves_no_trace(
            self, session, mode):
        from repro.common.errors import AnalysisError
        clean = self._run(mode, False, [])
        session.execute(
            "CREATE TABLE t (k int, grp string, v int, w double) "
            "STORED AS DUALTABLE TBLPROPERTIES ('dualtable.mode' = '%s')"
            % mode)
        session.load_rows("t", [(k, "g%d" % (k % 3), 3 * k, k / 2.0)
                                for k in range(10)])
        handler = session.table("t").handler
        with pytest.raises(AnalysisError) as err:
            session.execute("UPDATE t SET w = 1, v = 'abc' WHERE k = 1")
        assert str(err.value).startswith(
            "cannot coerce 'abc' to int for column v:")
        assert handler.attached.is_empty()
        assert not session.fs.exists(handler.txn_dir) \
            or not session.fs.list_files(handler.txn_dir)
        rows = session.execute("SELECT * FROM t ORDER BY k").rows
        assert [[(type(v), v) for v in row] for row in rows] == clean[0]

    def test_redo_log_replay_coerces_like_the_first_publish(self, session):
        """The staged log holds the values as evaluated; a recovery that
        replays it must store the same cells the commit would have."""
        from repro.common.errors import FaultInjectedError
        from repro.faults import Fault, FaultPlan
        session.execute(
            "CREATE TABLE t (k int, grp string, v int, w double) "
            "STORED AS DUALTABLE TBLPROPERTIES ('dualtable.mode' = 'edit')")
        session.load_rows("t", [(k, "g%d" % (k % 3), 3 * k, k / 2.0)
                                for k in range(10)])
        session.cluster.faults.install(FaultPlan([
            Fault("dualtable.dml.publish", nth_hit=1, kind="kill")]))
        with pytest.raises(FaultInjectedError):
            session.execute("UPDATE t SET v = v / 2, grp = 7 WHERE k = 1")
        session.cluster.faults.uninstall()
        session.table("t").handler.recover()
        row = session.execute("SELECT * FROM t WHERE k = 1").rows[0]
        assert [(type(v), v) for v in row] == [(int, 1), (str, "7"),
                                               (int, 1), (float, 0.5)]
        session.execute("COMPACT TABLE t")
        assert session.execute("SELECT * FROM t WHERE k = 1").rows == [row]


class TestDeleteCorrectness:
    def test_delete_hides_rows(self, session):
        make_dualtable(session)
        result = session.execute("DELETE FROM dt WHERE id < 20")
        assert result.affected == 20
        assert session.execute("SELECT count(*) FROM dt").scalar() == 180
        assert session.execute("SELECT min(id) FROM dt").scalar() == 20

    def test_delete_then_insert_appends_new_file(self, session):
        handler = make_dualtable(session)
        session.execute("DELETE FROM dt WHERE id >= 100")
        session.execute("INSERT INTO dt VALUES (999, 'd', 1.0, 'new')")
        assert session.execute("SELECT count(*) FROM dt").scalar() == 101
        assert session.execute(
            "SELECT tag FROM dt WHERE id = 999").scalar() == "new"

    def test_aggregates_respect_deletes(self, session):
        make_dualtable(session, n=10, rows_per_file=10)
        before = session.execute("SELECT sum(amount) FROM dt").scalar()
        session.execute("DELETE FROM dt WHERE id = 9")
        after = session.execute("SELECT sum(amount) FROM dt").scalar()
        assert before - after == pytest.approx(9.0)


class TestCompact:
    def test_compact_preserves_logical_table(self, session):
        handler = make_dualtable(session)
        session.execute("UPDATE dt SET tag = 'upd' WHERE id < 30")
        session.execute("DELETE FROM dt WHERE id >= 150")
        expect = session.execute("SELECT * FROM dt ORDER BY id").rows
        result = session.execute("COMPACT TABLE dt")
        assert result.plan == "compact"
        got = session.execute("SELECT * FROM dt ORDER BY id").rows
        assert got == expect
        assert handler.attached.is_empty()

    def test_compact_empty_attached_is_noop(self, session):
        make_dualtable(session)
        result = session.execute("COMPACT TABLE dt")
        assert result.plan == "compact-noop"

    def test_compact_blocks_concurrent_ops(self, session):
        handler = make_dualtable(session)
        handler._compacting = True
        with pytest.raises(CompactionInProgressError):
            handler.scan_splits()
        with pytest.raises(CompactionInProgressError):
            handler.insert_rows([(1, "d", 1.0, "t")])
        handler._compacting = False

    def test_compact_resets_read_cost(self, session):
        make_dualtable(session)
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 100")
        costly = session.execute("SELECT count(*) FROM dt").sim_seconds
        session.execute("COMPACT TABLE dt")
        cheap = session.execute("SELECT count(*) FROM dt").sim_seconds
        assert cheap < costly


class TestCostModelIntegration:
    def test_ratio_estimated_from_stripe_stats(self, session):
        make_dualtable(session, mode="cost")
        result = session.execute(
            "UPDATE dt SET tag = 'x' WHERE id < 20")
        assert result.detail["ratio"] == pytest.approx(0.1, abs=0.05)

    def test_sampling_fallback_for_opaque_predicate(self, session):
        make_dualtable(session, mode="cost")
        # column-vs-column predicate: no ranges, must sample.
        result = session.execute(
            "UPDATE dt SET tag = 'x' WHERE id % 2 = 0")
        assert 0.3 < result.detail["ratio"] < 0.7

    @pytest.mark.parametrize("sharding", ["", " SHARDED BY (k) INTO 4"])
    @pytest.mark.parametrize("mode", ["edit", "cost", "overwrite"])
    def test_predicate_that_raises_while_sampling_fails_in_the_scan(
            self, session, mode, sharding):
        """Regression: an un-rangeable WHERE is sampled at plan time, and
        a predicate raising there leaked a raw ``TypeError`` where the
        same predicate in a SELECT raises ``TaskFailedError``."""
        session.execute(
            "CREATE TABLE t (k int, g string, v int) STORED AS DUALTABLE"
            "%s TBLPROPERTIES ('dualtable.mode' = '%s')" % (sharding, mode))
        session.load_rows("t", [(i, "g%d" % i, i) for i in range(20)])
        handler = session.table("t").handler
        with pytest.raises(TaskFailedError, match="concatenate"):
            session.execute("SELECT k FROM t WHERE g + 1 > 0")
        for dml in ("UPDATE t SET v = 1 WHERE g + 1 > 0",
                    "DELETE FROM t WHERE g + 1 > 0"):
            with pytest.raises(TaskFailedError, match="concatenate"):
                session.execute(dml)
            # no delta written, no edit log left behind
            assert not session.env.fs.exists(handler.txn_dir)
            assert all(shard.attached.size_bytes == 0
                       for shard in handler.shards)
            assert session.execute(
                "SELECT count(*), sum(v) FROM t").rows == [(20, 190)]
        # EXPLAIN estimates with the same sampler and must not raise.
        session.execute("EXPLAIN UPDATE t SET v = 1 WHERE g + 1 > 0")

    def test_detail_reports_costs(self, session):
        make_dualtable(session, mode="cost")
        result = session.execute("UPDATE dt SET tag = 'x' WHERE id = 1")
        for key in ("plan", "cost_plan", "cost_difference",
                    "edit_seconds", "overwrite_seconds", "ratio"):
            assert key in result.detail

    def test_forced_modes_override_cost_model(self, session):
        make_dualtable(session, mode="overwrite")
        result = session.execute("UPDATE dt SET tag = 'x' WHERE id = 1")
        assert result.detail["plan"] == "overwrite"

    def test_bad_mode_rejected(self, session):
        with pytest.raises(Exception):
            session.execute(
                "CREATE TABLE bad (a int) STORED AS DUALTABLE "
                "TBLPROPERTIES ('dualtable.mode' = 'sometimes')")

    def test_ratio_recorded_in_history(self, session):
        handler = make_dualtable(session, mode="cost")
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 20")
        history = handler.metadata.ratio_history("dt")
        assert len(history) == 1
        assert history[0] == pytest.approx(0.1, abs=0.05)


class TestTableProperties:
    """DualTable properties are parsed once, at CREATE, into typed errors."""

    @pytest.mark.parametrize("sharding", ["", " SHARDED BY (k) INTO 4"])
    @pytest.mark.parametrize("key, value", [
        ("orc.rows_per_file", "-5"),      # lost every inserted row
        ("orc.rows_per_file", "0"),       # builtin ValueError at INSERT
        ("orc.stripe_rows", "0"),         # OrcError at the first INSERT
        ("dualtable.read_factor", "x"),   # builtin ValueError at CREATE
        ("dualtable.read_factor", "-3"),  # accepted; ALTER refuses 0
        ("dualtable.lookup.max_rows", "abc"),
        ("dualtable.attached", "foo"),    # builtin ValueError at CREATE
        ("dualtable.mode", "sometimes"),
    ])
    def test_bad_value_is_rejected_at_create(self, session, key, value,
                                             sharding):
        with pytest.raises(DualTableError, match=key.replace(".", r"\.")):
            session.execute(
                "CREATE TABLE t (k int, v int) STORED AS DUALTABLE%s "
                "TBLPROPERTIES ('%s' = '%s')" % (sharding, key, value))
        assert not session.metastore.has_table("t")
        session.execute("CREATE TABLE t (k int, v int) STORED AS DUALTABLE")
        session.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        assert session.execute("SELECT * FROM t ORDER BY k").rows \
            == [(1, 10), (2, 20)]

    @pytest.mark.parametrize("value", [0, "x", 2.5])
    def test_alter_read_factor_uses_the_same_check(self, session, value):
        make_dualtable(session)
        with pytest.raises(DualTableError, match="read_factor"):
            session.execute("ALTER TABLE dt SET DUALTABLE (read_factor = %r)"
                            % (value,))
        assert session.table("dt").handler.read_factor == 1

    @pytest.mark.parametrize("sharding", ["", " SHARDED BY (id) INTO 4"])
    def test_alter_read_factor_reaches_the_planner(self, sharding):
        """``ALTER ... (read_factor = 5)`` prices the next UPDATE exactly
        like a table created with ``'dualtable.read_factor' = '5'``."""
        def costs(properties, alter=None):
            session = HiveSession(profile=ClusterProfile.laptop(
                byte_scale=50_000.0))
            session.execute(
                "CREATE TABLE dt (id int, day string, amount double, "
                "tag string) STORED AS DUALTABLE%s TBLPROPERTIES ("
                "'orc.rows_per_file' = '50', 'orc.stripe_rows' = '10'%s)"
                % (sharding, properties))
            session.load_rows("dt", [(i, "d%d" % (i % 20), float(i),
                                      "t%d" % (i % 3)) for i in range(200)])
            if alter:
                session.execute("ALTER TABLE dt SET DUALTABLE (%s)" % alter)
            info = session.metastore.table("dt")
            plan = session.execute(
                "EXPLAIN UPDATE dt SET tag = 'x' WHERE id < 40").rows
            cost = [line for (line,) in plan if " cost: " in line
                    or "successive reads" in line]
            return cost, info.properties.get("dualtable.read_factor")

        created = costs(", 'dualtable.read_factor' = '5'")
        altered = costs("", alter="read_factor = 5")
        assert altered == (created[0], 5)
        assert created[0] != costs("")[0]
        assert created[0][-1].endswith("successive reads (k): 5")
