"""Tests for the B-tree row store and its use as an Attached backend."""

import pytest

from repro.cluster import Cluster, ClusterProfile
from repro.core.cost_model import AttachedRates, CostModel
from repro.core.record_id import encode_record_id
from repro.hive import HiveSession
from repro.kvstore import BTreeTable


@pytest.fixture
def table():
    return BTreeTable(Cluster(ClusterProfile.laptop()), "t")


class TestBTreeTable:
    def test_put_get_roundtrip(self, table):
        table.put(b"k", {b"a": b"1", b"b": b"2"})
        assert table.get(b"k") == {b"a": b"1", b"b": b"2"}

    def test_get_missing(self, table):
        assert table.get(b"nope") is None

    def test_update_in_place_latest_wins(self, table):
        table.put(b"k", {b"a": b"old"})
        table.put(b"k", {b"a": b"new"})
        assert table.get(b"k") == {b"a": b"new"}

    def test_bounded_version_history(self, table):
        for i in range(12):
            table.put(b"k", {b"a": b"v%d" % i})
        history = table.get(b"k", versions=20)
        values = [v for _, v in history[b"a"]]
        assert values[0] == b"v11"
        assert len(values) == 8        # MAX_VERSIONS cap

    def test_scan_sorted_and_ranged(self, table):
        for key in (b"d", b"a", b"c", b"b"):
            table.put(key, {b"q": key})
        assert [k for k, _ in table.scan()] == [b"a", b"b", b"c", b"d"]
        assert [k for k, _ in table.scan(b"b", b"d")] == [b"b", b"c"]

    def test_delete_row(self, table):
        table.put(b"k", {b"a": b"1"})
        table.delete_row(b"k")
        assert table.get(b"k") is None
        assert table.is_empty()

    def test_delete_column(self, table):
        table.put(b"k", {b"a": b"1", b"b": b"2"})
        table.delete_column(b"k", b"a")
        assert table.get(b"k") == {b"b": b"2"}
        table.delete_column(b"k", b"b")
        assert table.get(b"k") is None

    def test_qualifiers_in_range(self, table):
        table.put(b"a", {b"x": b"1"})
        table.put(b"b", {b"y": b"2", b"z": b"3"})
        table.put(b"c", {b"w": b"4"})
        table.delete_column(b"b", b"z")
        assert table.qualifiers_in_range(b"a", b"c") == {b"x", b"y"}
        assert table.qualifiers_in_range(b"d") == set()

    def test_truncate(self, table):
        table.put(b"k", {b"a": b"1"})
        table.truncate()
        assert table.count_rows() == 0

    def test_bytes_in_range(self, table):
        for i in range(10):
            table.put(b"k%d" % i, {b"q": b"value"})
        full = table.bytes_in_range()
        part = table.bytes_in_range(b"k3", b"k6")
        assert part == full * 3 // 10

    def test_writes_pay_amortized_page_rmw(self, table):
        ledger = table.cluster.ledger
        table.put(b"k", {b"a": b"1"})
        # The op's charged seconds exceed pure latency: amortized page
        # read-modify-write I/O is folded into every write op.
        assert ledger.seconds_for("hbase", "write") > table.op_latency_s
        assert table._write_op_latency > table.op_latency_s

    def test_rate_overrides_via_profile_extra(self):
        profile = ClusterProfile.laptop()
        profile.extra["kvstore.write_bps"] = 999.0
        profile.extra["kvstore.page_bytes"] = 4096
        table = BTreeTable(Cluster(profile), "t")
        assert table.write_bps == 999.0
        assert table.page_bytes == 4096


class TestBTreeAttachedBackend:
    def _session(self, mode="edit"):
        session = HiveSession(profile=ClusterProfile.laptop())
        session.execute(
            "CREATE TABLE t (id int, v string) STORED AS DUALTABLE "
            "TBLPROPERTIES ('dualtable.attached' = 'btree', "
            "'dualtable.mode' = '%s', 'orc.rows_per_file' = '50')" % mode)
        session.load_rows("t", [(i, "v%d" % i) for i in range(200)])
        return session

    def test_update_delete_compact_cycle(self):
        session = self._session()
        session.execute("UPDATE t SET v = 'x' WHERE id < 20")
        session.execute("DELETE FROM t WHERE id >= 190")
        assert session.execute(
            "SELECT count(*) FROM t WHERE v = 'x'").scalar() == 20
        session.execute("COMPACT TABLE t")
        assert session.execute("SELECT count(*) FROM t").scalar() == 190
        handler = session.table("t").handler
        assert handler.attached.is_empty()

    def test_history_preserved(self):
        session = self._session()
        session.execute("UPDATE t SET v = 'a' WHERE id = 3")
        session.execute("UPDATE t SET v = 'b' WHERE id = 3")
        handler = session.table("t").handler
        history = handler.attached.history(encode_record_id(0, 3))
        assert [v for _, v in history[1]] == ["b", "a"]

    def test_rates_reflect_backend(self):
        session = self._session()
        handler = session.table("t").handler
        rates = handler.attached.rates(session.cluster.profile)
        assert rates.page_bytes > 0          # B-tree: page RMW modeled
        hbase_rates = AttachedRates.from_hbase_profile(
            session.cluster.profile)
        assert hbase_rates.page_bytes == 0

    def test_unknown_backend_rejected(self):
        session = HiveSession(profile=ClusterProfile.laptop())
        with pytest.raises(Exception):
            session.execute(
                "CREATE TABLE t (a int) STORED AS DUALTABLE "
                "TBLPROPERTIES ('dualtable.attached' = 'floppy')")


class TestCostModelWithBackendRates:
    def test_page_overhead_raises_edit_cost(self):
        profile = ClusterProfile(name="t")
        hbase = CostModel(profile)
        btree = CostModel(profile, attached_rates=AttachedRates(
            write_bps=profile.hbase_write_bps,
            read_bps=profile.hbase_read_bps,
            op_latency_s=profile.hbase_op_latency_s,
            scan_row_latency_s=profile.hbase_scan_row_latency_s,
            page_bytes=16 * 1024))
        a = hbase.choose_update_plan(10**9, 10**6, 0.05, 40)
        b = btree.choose_update_plan(10**9, 10**6, 0.05, 40)
        assert b.edit_seconds > a.edit_seconds

    def test_crossover_differs_by_backend(self):
        profile = ClusterProfile(name="t")
        hbase = CostModel(profile)
        btree = CostModel(profile, attached_rates=AttachedRates(
            write_bps=120e6, read_bps=300e6, op_latency_s=8e-6,
            scan_row_latency_s=5e-7, page_bytes=16 * 1024))
        upd_hbase = hbase.update_crossover_ratio(10**9, 10**6, 40)
        upd_btree = btree.update_crossover_ratio(10**9, 10**6, 40)
        assert upd_hbase != pytest.approx(upd_btree, rel=0.01)
