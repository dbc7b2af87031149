"""Tests for DualTable internals: record IDs, attached table, union read,
metadata, master table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterProfile
from repro.core import (AttachedTable, DeltaRecord, DualTableMetadata,
                        MasterTable, RECORD_ID_BYTES, decode_record_id,
                        encode_record_id, file_key_range)
from repro.core.attached import (DELETE_MARKER, parse_qualifier,
                                 update_qualifier)
from repro.core.master import FILE_ID_KEY
from repro.hbase import HBaseService
from repro.hdfs import HdfsFileSystem
from repro.hive.types import TableSchema

from tests.delta_reference import apply_update, union_read_file


@pytest.fixture
def hbase():
    return HBaseService(Cluster(ClusterProfile.laptop()))


# ----------------------------------------------------------------------
# Record IDs.
# ----------------------------------------------------------------------
class TestRecordId:
    def test_roundtrip(self):
        key = encode_record_id(7, 12345)
        assert decode_record_id(key) == (7, 12345)
        assert len(key) == RECORD_ID_BYTES

    def test_byte_order_matches_tuple_order(self):
        pairs = [(0, 5), (0, 6), (1, 0), (1, 10), (2, 3)]
        keys = [encode_record_id(f, r) for f, r in pairs]
        assert sorted(keys) == keys

    def test_file_key_range_covers_exactly_one_file(self):
        start, stop = file_key_range(3)
        assert start <= encode_record_id(3, 0) < stop
        assert start <= encode_record_id(3, 2**40) < stop
        assert encode_record_id(2, 2**40) < start
        assert encode_record_id(4, 0) >= stop


@given(st.lists(st.tuples(st.integers(0, 2**32 - 1),
                          st.integers(0, 2**63 - 1)),
                min_size=2, max_size=50))
@settings(max_examples=50)
def test_record_id_order_property(pairs):
    """encode preserves lexicographic (file, row) order for any ids."""
    keys = [encode_record_id(f, r) for f, r in pairs]
    assert sorted(keys) == [encode_record_id(f, r)
                            for f, r in sorted(pairs)]


# ----------------------------------------------------------------------
# Attached table.
# ----------------------------------------------------------------------
class TestQualifiers:
    def test_update_qualifier_roundtrip(self):
        kind, idx = parse_qualifier(update_qualifier(37))
        assert (kind, idx) == ("update", 37)

    def test_delete_marker(self):
        assert parse_qualifier(DELETE_MARKER) == ("delete", None)

    def test_unknown(self):
        assert parse_qualifier(b"zz")[0] == "unknown"


class TestAttachedTable:
    def _attached(self, hbase):
        attached = AttachedTable(hbase, "dt_t_attached")
        attached.create()
        return attached

    def test_update_then_get(self, hbase):
        attached = self._attached(hbase)
        rid = encode_record_id(0, 5)
        attached.put_update(rid, {1: "new", 3: 42})
        delta = attached.get(rid)
        assert not delta.deleted
        assert delta.updates == {1: "new", 3: 42}

    def test_delete_marker_resolves(self, hbase):
        attached = self._attached(hbase)
        rid = encode_record_id(0, 5)
        attached.put_update(rid, {1: "x"})
        attached.put_delete(rid)
        delta = attached.get(rid)
        assert delta.deleted

    def test_scan_file_is_sorted_and_scoped(self, hbase):
        attached = self._attached(hbase)
        attached.put_update(encode_record_id(1, 9), {0: "a"})
        attached.put_update(encode_record_id(1, 2), {0: "b"})
        attached.put_update(encode_record_id(2, 0), {0: "c"})
        items = attached.delta_items(attached.file_deltas(1)[0])
        assert [decode_record_id(k)[1] for k, _ in items] == [2, 9]

    def test_latest_update_wins(self, hbase):
        attached = self._attached(hbase)
        rid = encode_record_id(0, 1)
        attached.put_update(rid, {2: "old"})
        attached.put_update(rid, {2: "new"})
        assert attached.get(rid).updates[2] == "new"

    def test_history_multiversion(self, hbase):
        attached = self._attached(hbase)
        rid = encode_record_id(0, 1)
        attached.put_update(rid, {2: "v1"})
        attached.put_update(rid, {2: "v2"})
        history = attached.history(rid)
        assert [v for _, v in history[2]] == ["v2", "v1"]

    def test_has_entries_in_file(self, hbase):
        attached = self._attached(hbase)
        attached.put_update(encode_record_id(5, 1), {0: "x"})
        assert attached.has_entries_in_file(5)
        assert not attached.has_entries_in_file(4)

    def test_clear(self, hbase):
        attached = self._attached(hbase)
        attached.put_delete(encode_record_id(0, 0))
        attached.clear()
        assert attached.is_empty()
        assert attached.scan_range() == []

    def test_null_value_update(self, hbase):
        attached = self._attached(hbase)
        rid = encode_record_id(0, 0)
        attached.put_update(rid, {1: None})
        assert attached.get(rid).updates == {1: None}


# ----------------------------------------------------------------------
# Union read.
# ----------------------------------------------------------------------
class TestUnionRead:
    def _merge(self, orc_rows, deltas, projection_map=None):
        projection_map = projection_map or {0: 0, 1: 1}
        orc_rows = list(orc_rows)
        return list(union_read_file(0, iter(orc_rows), deltas,
                                    projection_map, len(orc_rows)))

    def test_no_deltas_passthrough(self):
        rows = [(0, ("a", 1)), (1, ("b", 2))]
        merged = self._merge(iter(rows), iter([]))
        assert [v for _, v in merged] == [("a", 1), ("b", 2)]

    def test_update_applied(self):
        rows = [(0, ("a", 1)), (1, ("b", 2))]
        deltas = [(encode_record_id(0, 1),
                   DeltaRecord(updates={1: 99}))]
        merged = self._merge(iter(rows), iter(deltas))
        assert merged[1][1] == ("b", 99)

    def test_delete_skipped(self):
        rows = [(0, ("a", 1)), (1, ("b", 2)), (2, ("c", 3))]
        deltas = [(encode_record_id(0, 1), DeltaRecord(deleted=True))]
        merged = self._merge(iter(rows), iter(deltas))
        assert [v for _, v in merged] == [("a", 1), ("c", 3)]

    def test_update_outside_projection_ignored(self):
        rows = [(0, ("a",))]
        deltas = [(encode_record_id(0, 0), DeltaRecord(updates={5: "x"}))]
        merged = self._merge(iter(rows), iter(deltas),
                             projection_map={0: 0})
        assert merged[0][1] == ("a",)

    def test_stale_deltas_before_rows_skipped(self):
        # deltas for row numbers below the first ORC row (pruned stripes).
        rows = [(10, ("k",))]
        deltas = [(encode_record_id(0, 2), DeltaRecord(updates={0: "z"})),
                  (encode_record_id(0, 10), DeltaRecord(updates={0: "y"}))]
        merged = self._merge(iter(rows), iter(deltas),
                             projection_map={0: 0})
        assert merged == [(encode_record_id(0, 10), ("y",))]

    def test_apply_delta_to_row(self):
        """Update cells land on projected positions; others are dropped."""
        assert apply_update(("a", 1), {}, {0: 0}) == ("a", 1)
        assert apply_update(("a", 1), {1: 9}, {0: 0, 1: 1}) == ("a", 9)
        assert apply_update(("a",), {1: 9, 0: "b"}, {0: 0}) == ("b",)


@given(st.lists(st.integers(0, 2), min_size=0, max_size=40),
       st.integers(2, 10))
@settings(max_examples=50)
def test_union_read_matches_oracle_property(row_ops, n_rows):
    """union_read(master, deltas) == oracle dict replay, any op pattern.

    row_ops[i] applies to row i % n_rows: 0 = no-op, 1 = update, 2 = delete.
    """
    master = [(i, ("val%d" % i, i)) for i in range(n_rows)]
    oracle = {i: list(v) for i, v in master}
    deltas = {}
    for step, op in enumerate(row_ops):
        row = step % n_rows
        rid = encode_record_id(0, row)
        if op == 1:
            deltas.setdefault(rid, DeltaRecord()).updates[1] = 1000 + step
            if row in oracle:
                oracle[row][1] = 1000 + step
        elif op == 2:
            deltas.setdefault(rid, DeltaRecord()).deleted = True
            oracle.pop(row, None)
    # A deleted row stays deleted even if updated earlier/later.
    for rid, delta in deltas.items():
        if delta.deleted:
            oracle.pop(decode_record_id(rid)[1], None)
    merged = list(union_read_file(0, iter(master),
                                  iter(sorted(deltas.items())),
                                  {0: 0, 1: 1}, len(master)))
    got = {decode_record_id(rid)[1]: list(values) for rid, values in merged}
    assert got == oracle


# ----------------------------------------------------------------------
# Metadata manager.
# ----------------------------------------------------------------------
class TestMetadata:
    def test_file_ids_unique_and_incremental(self, hbase):
        meta = DualTableMetadata(hbase)
        meta.register_table("t")
        ids = [meta.next_file_id("t") for _ in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_counters_independent_per_table(self, hbase):
        meta = DualTableMetadata(hbase)
        meta.register_table("a")
        meta.register_table("b")
        assert meta.next_file_id("a") == 0
        assert meta.next_file_id("b") == 0
        assert meta.next_file_id("a") == 1

    def test_ratio_history(self, hbase):
        meta = DualTableMetadata(hbase)
        meta.register_table("t")
        assert meta.ratio_history("t") == []
        meta.record_ratio("t", 0.1)
        meta.record_ratio("t", 0.3)
        history = meta.ratio_history("t")
        assert sum(history) / len(history) == pytest.approx(0.2)

    def test_history_bounded(self, hbase):
        meta = DualTableMetadata(hbase)
        meta.register_table("t")
        for i in range(50):
            meta.record_ratio("t", float(i))
        assert len(meta.ratio_history("t")) == 32

    def test_unregister(self, hbase):
        meta = DualTableMetadata(hbase)
        meta.register_table("t")
        meta.next_file_id("t")
        meta.unregister_table("t")
        meta.register_table("t")
        assert meta.next_file_id("t") == 0


# ----------------------------------------------------------------------
# Master table.
# ----------------------------------------------------------------------
class TestMasterTable:
    def _master(self, rows_per_file=10):
        cluster = Cluster(ClusterProfile.laptop())
        fs = HdfsFileSystem(cluster)
        hbase = HBaseService(cluster)
        meta = DualTableMetadata(hbase)
        meta.register_table("t")
        schema = TableSchema([("id", "int"), ("v", "string")])
        master = MasterTable(fs, "/warehouse/t/master", schema, meta, "t",
                             rows_per_file=rows_per_file, stripe_rows=5)
        master.create()
        return master

    def test_write_splits_into_files_with_unique_ids(self):
        master = self._master(rows_per_file=10)
        master.write_rows([(i, "v%d" % i) for i in range(25)])
        paths = master.file_paths()
        assert len(paths) == 3
        ids = [int(master.meta(p).metadata[FILE_ID_KEY]) for p in paths]
        assert len(set(ids)) == 3

    def test_row_count_and_bytes(self):
        master = self._master()
        master.write_rows([(i, "v") for i in range(25)])
        assert master.row_count() == 25
        assert master.data_bytes() > 0

    def test_replace_with_swaps_atomically(self):
        master = self._master()
        master.write_rows([(i, "old") for i in range(5)])
        old_ids = {int(master.meta(p).metadata[FILE_ID_KEY])
                   for p in master.file_paths()}
        master.replace_with([(9, "new")])
        assert master.row_count() == 1
        new_ids = {int(master.meta(p).metadata[FILE_ID_KEY])
                   for p in master.file_paths()}
        assert not (old_ids & new_ids)     # fresh file ids after rewrite
