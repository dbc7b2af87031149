"""Tests for the Hive-ACID-style base+delta baseline."""

import pytest

from repro.cluster import ClusterProfile
from repro.hive import HiveSession
from repro.orc import OrcReader


@pytest.fixture
def session():
    return HiveSession(profile=ClusterProfile.laptop())


def make_acid(session, n=100):
    session.execute(
        "CREATE TABLE a (id int, grp string, v double) STORED AS ACID "
        "TBLPROPERTIES ('orc.rows_per_file' = '40', "
        "'orc.stripe_rows' = '10')")
    session.load_rows("a", [(i, "g%d" % (i % 5), float(i))
                            for i in range(n)])
    return session.table("a").handler


class TestReads:
    def test_base_scan(self, session):
        make_acid(session)
        assert session.execute("SELECT count(*) FROM a").scalar() == 100

    def test_global_rids_unique_across_base_files(self, session):
        handler = make_acid(session)
        rids = []
        for split in handler.scan_splits():
            rids.extend(r for r, _ in
                        handler.read_split_with_rids(split, None))
        assert sorted(rids) == list(range(100))

    def test_scan_splits_open_each_base_footer_once(self, session,
                                                     monkeypatch):
        """One metadata open per base file serves both its row-id offset
        and its stripe admission."""
        session.execute(
            "CREATE TABLE a (k int, v int) STORED AS ACID TBLPROPERTIES "
            "('orc.rows_per_file' = '100', 'orc.stripe_rows' = '25')")
        session.load_rows("a", [(i, -i) for i in range(400)])
        handler = session.table("a").handler
        opened = []
        init = OrcReader.__init__

        def counting(self, *args, **kwargs):
            opened.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(OrcReader, "__init__", counting)
        splits = handler.scan_splits(["k"], {})
        assert len(opened) == 4
        monkeypatch.undo()
        assert [split.payload["rid_offset"] for split in splits] \
            == [0, 100, 200, 300]
        assert [rid_row for split in splits
                for rid_row in handler.read_split_with_rids(split, None)] \
            == [(i, (i,)) for i in range(400)]


class TestUpdates:
    def test_update_creates_delta_not_rewrites_base(self, session):
        handler = make_acid(session)
        base_before = handler.base_files()
        session.execute("UPDATE a SET v = 0 WHERE id < 10")
        assert handler.base_files() == base_before
        assert len(handler.delta_dirs()) == 1

    def test_update_visible_on_read(self, session):
        make_acid(session)
        session.execute("UPDATE a SET v = -1 WHERE grp = 'g0'")
        got = session.execute("SELECT count(*) FROM a WHERE v = -1")
        assert got.scalar() == 20

    def test_each_statement_new_delta(self, session):
        handler = make_acid(session)
        session.execute("UPDATE a SET v = 1 WHERE id = 1")
        session.execute("UPDATE a SET v = 2 WHERE id = 2")
        session.execute("DELETE FROM a WHERE id = 3")
        assert len(handler.delta_dirs()) == 3

    def test_later_delta_wins(self, session):
        make_acid(session)
        session.execute("UPDATE a SET v = 10 WHERE id = 5")
        session.execute("UPDATE a SET v = 20 WHERE id = 5")
        assert session.execute(
            "SELECT v FROM a WHERE id = 5").scalar() == 20.0

    def test_delete_masks_row(self, session):
        make_acid(session)
        session.execute("DELETE FROM a WHERE id >= 90")
        assert session.execute("SELECT count(*) FROM a").scalar() == 90
        assert session.execute("SELECT max(id) FROM a").scalar() == 89

    def test_update_after_delete_is_noop(self, session):
        make_acid(session)
        session.execute("DELETE FROM a WHERE id = 7")
        result = session.execute("UPDATE a SET v = 1 WHERE id = 7")
        assert result.affected == 0


class TestCompaction:
    def test_minor_compact_merges_deltas(self, session):
        handler = make_acid(session)
        session.execute("UPDATE a SET v = 1 WHERE id = 1")
        session.execute("UPDATE a SET v = 2 WHERE id = 2")
        session.execute("DELETE FROM a WHERE id = 3")
        expect = session.execute("SELECT * FROM a ORDER BY id").rows
        result = session.execute("COMPACT TABLE a minor")
        assert result.plan == "acid-minor-compact"
        assert len(handler.delta_dirs()) == 1
        assert session.execute("SELECT * FROM a ORDER BY id").rows == expect

    def test_major_compact_folds_into_base(self, session):
        handler = make_acid(session)
        session.execute("UPDATE a SET v = 99 WHERE id < 10")
        session.execute("DELETE FROM a WHERE id >= 95")
        expect = session.execute("SELECT * FROM a ORDER BY id").rows
        result = session.execute("COMPACT TABLE a major")
        assert result.plan == "acid-major-compact"
        assert handler.delta_dirs() == []
        assert session.execute("SELECT * FROM a ORDER BY id").rows == expect

    def test_minor_compact_single_delta_noop(self, session):
        make_acid(session)
        session.execute("UPDATE a SET v = 1 WHERE id = 1")
        result = session.execute("COMPACT TABLE a minor")
        assert result.plan == "acid-minor-noop"

    def test_major_compact_no_deltas_noop(self, session):
        make_acid(session)
        assert session.execute("COMPACT TABLE a").plan == "acid-major-noop"


class TestReadAmplification:
    def test_read_cost_grows_with_delta_count(self, session):
        """The paper's Section V-C point: every read rescans all deltas."""
        make_acid(session)
        base = session.execute("SELECT count(*) FROM a").sim_seconds
        for i in range(5):
            session.execute("UPDATE a SET v = %d WHERE id < 20" % i)
        amplified = session.execute("SELECT count(*) FROM a").sim_seconds
        assert amplified > base
        session.execute("COMPACT TABLE a major")
        recovered = session.execute("SELECT count(*) FROM a").sim_seconds
        assert recovered < amplified

    def test_update_writes_full_rows_into_delta(self, session):
        """Hive ACID puts the whole updated record into the delta even
        when a single cell changed."""
        handler = make_acid(session)
        session.execute("UPDATE a SET v = 0 WHERE id < 50")
        delta_bytes = sum(handler.fs.file_size(p)
                          for p in handler.delta_files())
        # 50 of 100 rows, all columns: the delta is a sizable fraction
        # of the base, unlike DualTable's per-cell edits.
        base_bytes = sum(handler.fs.file_size(p)
                         for p in handler.base_files())
        assert delta_bytes > base_bytes / 10
