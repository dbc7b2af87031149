"""Tests for the simulated HBase: cells, LSM semantics, client API."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterProfile
from repro.common.errors import TableExistsError, TableNotFoundError
from repro.hbase import (CellType, HBaseService, HFile, KeyValue, MemStore,
                         Region, row_tombstone)


@pytest.fixture
def service():
    return HBaseService(Cluster(ClusterProfile.laptop()))


# ----------------------------------------------------------------------
# Cells.
# ----------------------------------------------------------------------
class TestCells:
    def test_sort_order_rows_then_qualifiers(self):
        a = KeyValue(b"a", b"q1", 1, CellType.PUT, b"v")
        b = KeyValue(b"a", b"q2", 1, CellType.PUT, b"v")
        c = KeyValue(b"b", b"q1", 1, CellType.PUT, b"v")
        assert sorted([c, b, a]) == [a, b, c]

    def test_newer_versions_sort_first(self):
        old = KeyValue(b"a", b"q", 1, CellType.PUT, b"old")
        new = KeyValue(b"a", b"q", 2, CellType.PUT, b"new")
        assert sorted([old, new]) == [new, old]

    def test_tombstone_sorts_before_put_at_same_ts(self):
        put = KeyValue(b"a", b"q", 5, CellType.PUT, b"v")
        dele = KeyValue(b"a", b"q", 5, CellType.DELETE_COLUMN)
        assert sorted([put, dele]) == [dele, put]

    def test_row_tombstone_qualifier_sorts_first(self):
        tomb = row_tombstone(b"a", 1)
        put = KeyValue(b"a", b"q", 9, CellType.PUT, b"v")
        assert sorted([put, tomb]) == [tomb, put]

    def test_type_validation(self):
        with pytest.raises(TypeError):
            KeyValue("str-row", b"q", 1, CellType.PUT)
        with pytest.raises(TypeError):
            KeyValue(b"row", "q", 1, CellType.PUT)

    def test_size_bytes(self):
        cell = KeyValue(b"rr", b"qq", 1, CellType.PUT, b"vvv")
        assert cell.size_bytes() == 2 + 2 + 9 + 3


# ----------------------------------------------------------------------
# MemStore / HFile.
# ----------------------------------------------------------------------
class TestMemStore:
    def test_sorted_scan(self):
        store = MemStore()
        for row in (b"c", b"a", b"b"):
            store.add(KeyValue(row, b"q", 1, CellType.PUT, b"v"))
        assert [c.row for c in store.scan()] == [b"a", b"b", b"c"]

    def test_range_scan(self):
        store = MemStore()
        for row in (b"a", b"b", b"c", b"d"):
            store.add(KeyValue(row, b"q", 1, CellType.PUT, b"v"))
        assert [c.row for c in store.scan(b"b", b"d")] == [b"b", b"c"]

    def test_drain_empties(self):
        store = MemStore()
        store.add(KeyValue(b"a", b"q", 1, CellType.PUT, b"v"))
        cells = store.drain()
        assert len(cells) == 1
        assert len(store) == 0
        assert store.size_bytes == 0


class TestHFile:
    def test_sorted_and_bounds(self):
        cells = [KeyValue(row, b"q", 1, CellType.PUT, b"v")
                 for row in (b"m", b"a", b"z")]
        hfile = HFile(cells)
        assert hfile.min_row == b"a"
        assert hfile.max_row == b"z"
        assert [c.row for c in hfile.scan()] == [b"a", b"m", b"z"]

    def test_may_contain_row(self):
        def may_contain_row(hfile, row):
            return hfile.min_row is not None \
                and hfile.min_row <= row <= hfile.max_row

        hfile = HFile([KeyValue(b"d", b"q", 1, CellType.PUT, b"v")])
        assert may_contain_row(hfile, b"d")
        assert not may_contain_row(hfile, b"a")
        assert not may_contain_row(HFile([]), b"d")

    def test_bytes_in_range(self):
        cells = [KeyValue(bytes([i]), b"q", 1, CellType.PUT, b"v")
                 for i in range(10)]
        hfile = HFile(cells)
        full = hfile.bytes_in_range()
        part = hfile.bytes_in_range(bytes([3]), bytes([6]))
        assert part == full * 3 // 10


# ----------------------------------------------------------------------
# Region semantics.
# ----------------------------------------------------------------------
class TestRegion:
    def test_latest_version_wins(self):
        region = Region()
        region.put(b"r", b"q", b"v1", 1)
        region.put(b"r", b"q", b"v2", 2)
        assert region.get(b"r") == {b"q": b"v2"}

    def test_column_delete_shadows_older_puts(self):
        region = Region()
        region.put(b"r", b"q", b"v1", 1)
        region.delete_column(b"r", b"q", 2)
        assert region.get(b"r") is None
        region.put(b"r", b"q", b"v3", 3)
        assert region.get(b"r") == {b"q": b"v3"}

    def test_row_delete_shadows_all_columns(self):
        region = Region()
        region.put(b"r", b"q1", b"a", 1)
        region.put(b"r", b"q2", b"b", 1)
        region.delete_row(b"r", 2)
        assert region.get(b"r") is None

    def test_row_delete_then_newer_put(self):
        region = Region()
        region.put(b"r", b"q", b"old", 1)
        region.delete_row(b"r", 2)
        region.put(b"r", b"q", b"new", 3)
        assert region.get(b"r") == {b"q": b"new"}

    def test_semantics_preserved_across_flush(self):
        region = Region()
        region.put(b"r", b"q", b"v1", 1)
        region.flush()
        region.delete_column(b"r", b"q", 2)
        region.flush()
        region.put(b"r", b"q", b"v3", 3)
        assert region.get(b"r") == {b"q": b"v3"}
        assert len(region.hfiles) == 2

    def test_minor_compact_merges_files_keeps_semantics(self):
        region = Region()
        region.put(b"a", b"q", b"1", 1)
        region.flush()
        region.put(b"b", b"q", b"2", 2)
        region.delete_row(b"a", 3)
        region.flush()
        region.compact(major=False)
        assert len(region.hfiles) == 1
        assert region.get(b"a") is None
        assert region.get(b"b") == {b"q": b"2"}

    def test_major_compact_drops_tombstones(self):
        region = Region()
        region.put(b"a", b"q", b"1", 1)
        region.delete_row(b"a", 2)
        region.put(b"b", b"q", b"2", 3)
        region.compact(major=True)
        assert region.cell_count() == 1       # only b's put survives
        assert region.get(b"b") == {b"q": b"2"}

    def test_versions_api(self):
        region = Region()
        for ts, val in ((1, b"v1"), (2, b"v2"), (3, b"v3")):
            region.put(b"r", b"q", val, ts)
        history = region.get(b"r", versions=2)
        assert history == {b"q": [(3, b"v3"), (2, b"v2")]}

    def test_auto_flush_on_threshold(self):
        region = Region(flush_threshold_bytes=100)
        for i in range(20):
            region.put(b"r%02d" % i, b"q", b"v" * 10, i)
        assert region.hfiles     # flushed at least once


# Oracle-based property: arbitrary op sequence == dict replay.
_ops = st.lists(st.tuples(
    st.sampled_from(["put", "del_col", "del_row"]),
    st.integers(0, 5),        # row
    st.integers(0, 2),        # qualifier
    st.integers(0, 100),      # value payload
), max_size=60)


@given(_ops, st.sets(st.integers(0, 59)))
@settings(max_examples=50, deadline=None)
def test_region_matches_dict_oracle(ops, flush_points):
    region = Region()
    oracle = {}
    for ts, (op, row_i, qual_i, payload) in enumerate(ops, start=1):
        row, qual = b"r%d" % row_i, b"q%d" % qual_i
        if op == "put":
            value = b"v%d" % payload
            region.put(row, qual, value, ts)
            oracle.setdefault(row, {})[qual] = value
        elif op == "del_col":
            region.delete_column(row, qual, ts)
            oracle.get(row, {}).pop(qual, None)
        else:
            region.delete_row(row, ts)
            oracle.pop(row, None)
        if ts in flush_points:
            region.flush()
    expected = {row: cells for row, cells in oracle.items() if cells}
    got = {row: cells for row, cells in region.scan()}
    assert got == expected
    region.compact(major=True)
    assert {row: cells for row, cells in region.scan()} == expected


# ----------------------------------------------------------------------
# HTable / service.
# ----------------------------------------------------------------------
class TestHTable:
    def test_put_get_roundtrip(self, service):
        table = service.create_table("t")
        table.put(b"row", {b"a": b"1", b"b": b"2"})
        assert table.get(b"row") == {b"a": b"1", b"b": b"2"}

    def test_get_missing_row(self, service):
        table = service.create_table("t")
        assert table.get(b"nope") is None

    def test_scan_sorted_across_regions(self, service):
        table = service.create_table("t", split_points=[b"m"])
        for row in (b"z", b"a", b"q", b"m"):
            table.put(row, {b"c": row})
        assert [r for r, _ in table.scan()] == [b"a", b"m", b"q", b"z"]

    def test_scan_range(self, service):
        table = service.create_table("t", split_points=[b"m"])
        for row in (b"a", b"h", b"p", b"z"):
            table.put(row, {b"c": b"v"})
        assert [r for r, _ in table.scan(b"h", b"z")] == [b"h", b"p"]

    def test_qualifiers_in_range_uncharged_across_regions(self, service):
        """The put qualifiers a scan of the range could return, flushed
        or not, from every region; a put a tombstone shadows counts."""
        table = service.create_table("t", split_points=[b"m"])
        table.put(b"a", {b"x": b"1"})
        table.flush()
        table.put(b"h", {b"y": b"2"})
        table.put(b"p", {b"z": b"3"})
        table.put(b"q", {b"w": b"4"})
        table.delete_column(b"h", b"y")
        ledger = service.cluster.ledger
        before = ledger.snapshot()
        assert table.qualifiers_in_range(b"a", b"q") == {b"x", b"y", b"z"}
        assert table.qualifiers_in_range(b"b", b"h") == set()
        assert ledger.diff(before)["bytes"] == {}

    def test_delete_row_and_column(self, service):
        table = service.create_table("t")
        table.put(b"r", {b"a": b"1", b"b": b"2"})
        table.delete_column(b"r", b"a")
        assert table.get(b"r") == {b"b": b"2"}
        table.delete_row(b"r")
        assert table.get(b"r") is None

    def test_multi_version_get(self, service):
        table = service.create_table("t")
        table.put(b"r", {b"c": b"v1"})
        table.put(b"r", {b"c": b"v2"})
        history = table.get(b"r", versions=5)
        assert [v for _, v in history[b"c"]] == [b"v2", b"v1"]

    def test_truncate(self, service):
        table = service.create_table("t")
        table.put(b"r", {b"c": b"v"})
        table.truncate()
        assert table.is_empty()

    def test_count_rows_excludes_deleted(self, service):
        table = service.create_table("t")
        table.put(b"a", {b"c": b"v"})
        table.put(b"b", {b"c": b"v"})
        table.delete_row(b"a")
        assert table.count_rows() == 1

    def test_charging_on_ops(self, service):
        table = service.create_table("t")
        ledger = service.cluster.ledger
        table.put(b"r", {b"c": b"v"})
        assert ledger.bytes_for("hbase", "write") > 0
        table.get(b"r")
        assert ledger.bytes_for("hbase", "read") > 0
        list(table.scan())
        assert ledger.ops_for("hbase", "scan") > 0

    def test_system_table_not_charged(self, service):
        table = service.create_table("meta", system=True)
        table.put(b"r", {b"c": b"v"})
        table.get(b"r")
        list(table.scan())
        assert service.cluster.ledger.seconds_for("hbase") == 0.0

    def test_compact_reduces_store_bytes(self, service):
        table = service.create_table("t")
        for i in range(50):
            table.put(b"r", {b"c": b"version%d" % i})
        table.flush()
        before = table.store_bytes
        table.compact(major=True)
        assert table.store_bytes < before
        assert table.get(b"r") == {b"c": b"version49"}


class TestService:
    def test_create_duplicate_rejected(self, service):
        service.create_table("t")
        with pytest.raises(TableExistsError):
            service.create_table("t")

    def test_missing_table_rejected(self, service):
        with pytest.raises(TableNotFoundError):
            service.table("nope")
        with pytest.raises(TableNotFoundError):
            service.drop_table("nope")

    def test_ensure_table_idempotent(self, service):
        a = service.ensure_table("t")
        b = service.ensure_table("t")
        assert a is b

    def test_drop_and_list(self, service):
        service.create_table("a")
        service.create_table("b")
        service.drop_table("a")
        assert service.list_tables() == ["b"]

    def test_logical_clock_monotonic(self, service):
        assert service.next_ts() < service.next_ts() < service.next_ts()


# ----------------------------------------------------------------------
# A key range is a slice: equivalence with the per-cell generator route.
# ----------------------------------------------------------------------
def _in_range(row, start, stop):
    return (start is None or row >= start) and (stop is None or row < stop)


def _reference_cells(region, start, stop):
    """The range's raw cells the way the generators produced them:
    filter every store cell by cell, ``heapq.merge`` with a key
    lambda."""
    import heapq
    sources = [[c for c in store._cells if _in_range(c.row, start, stop)]
               for store in [region.memstore] + region.hfiles]
    return list(heapq.merge(*sources, key=lambda c: c.sort_key()))


def _reference_rows(region, start, stop, versions):
    """Resolution through ``_group_by_row`` / ``_resolve_row`` only."""
    from repro.hbase.region import _group_by_row, _resolve_row
    out = []
    for row, row_cells in _group_by_row(_reference_cells(region, start,
                                                         stop)):
        survivors = _resolve_row(row_cells, versions)
        if not survivors:
            continue
        if versions == 1:
            out.append((row, {c.qualifier: c.value for c in survivors}))
        else:
            data = {}
            for c in survivors:
                data.setdefault(c.qualifier, []).append((c.ts, c.value))
            out.append((row, data))
    return out


def _reference_purge(region, start, stop):
    """``purge_range`` as it was: rebuild every store from kept cells."""
    kept = [c for c in region.memstore._cells
            if not _in_range(c.row, start, stop)]
    region.memstore = MemStore()
    for cell in kept:
        region.memstore.add(cell)
    region.hfiles = [f for f in
                     (HFile([c for c in f._cells
                             if not _in_range(c.row, start, stop)])
                      for f in region.hfiles) if len(f)]
    region.wal = [c for c in region.wal if not _in_range(c.row, start, stop)]
    region.wal_bytes = sum(c.size_bytes() for c in region.wal)


def _build_region(ops, flush_points, with_deletes=True):
    region = Region()
    for ts, (op, row_i, qual_i, payload) in enumerate(ops, start=1):
        row, qual = b"r%d" % row_i, b"q%d" % qual_i
        if op == "put" or not with_deletes:
            region.put(row, qual, b"v%d" % payload, ts)
        elif op == "del_col":
            region.delete_column(row, qual, ts)
        else:
            region.delete_row(row, ts)
        if ts in flush_points:
            region.flush()
    return region


def _state(region):
    return ([c for c in region.memstore._cells], region.memstore.size_bytes,
            region.memstore._keys,
            [list(f._cells) for f in region.hfiles],
            [f.size_bytes for f in region.hfiles],
            list(region.wal), region.wal_bytes)


_bound = st.one_of(st.none(), st.integers(0, 6).map(lambda i: b"r%d" % i))


@given(_ops, st.sets(st.integers(0, 59)), _bound, _bound, st.booleans())
@settings(max_examples=150, deadline=None)
def test_range_slices_match_the_generator_route(ops, flush_points, start,
                                                stop, with_deletes):
    # Without tombstones the scan takes the first-cell-per-qualifier
    # route; with them, ``_resolve_row`` — both against the same oracle.
    region = _build_region(ops, flush_points, with_deletes)
    cells = _reference_cells(region, start, stop)
    assert region._merged_cells(start, stop) == cells
    for versions in (1, 3):
        assert region.scan(start, stop, versions=versions) == \
            _reference_rows(region, start, stop, versions)
    nbytes = sum(c.size_bytes() for c in cells)
    assert region.bytes_in_range(start, stop) == nbytes
    assert region.any_in_range(start, stop) == (nbytes > 0)
    for store in [region.memstore] + region.hfiles:
        assert store.scan(start, stop) == \
            [c for c in store._cells if _in_range(c.row, start, stop)]


@given(_ops, st.sets(st.integers(0, 59)), _bound, _bound)
@settings(max_examples=150, deadline=None)
def test_purge_range_by_slices_matches_the_rebuild(ops, flush_points, start,
                                                   stop):
    region = _build_region(ops, flush_points)
    reference = _build_region(ops, flush_points)
    region.purge_range(start, stop)
    _reference_purge(reference, start, stop)
    assert _state(region) == _state(reference)
    assert not region.any_in_range(start, stop)
    # The WAL was purged with the stores: a crash cannot resurrect the
    # range, and what is replayed is exactly what the memstore held.
    before = _state(region)
    region.crash()
    assert region.recover() == region.wal_bytes
    assert _state(region) == before


@given(_ops, st.sets(st.integers(0, 59)), _bound, _bound)
@settings(max_examples=60, deadline=None)
def test_table_scan_charge_is_raw_bytes_and_live_rows(ops, flush_points,
                                                      start, stop):
    """``HTable.scan`` charges, per region and after the range is
    consumed, the raw cell bytes in range and the resolved row count."""
    def build():
        service = HBaseService(Cluster(ClusterProfile.laptop()))
        table = service.create_table("t", split_points=[b"r3"])
        for ts, (op, row_i, qual_i, payload) in enumerate(ops, start=1):
            row, qual = b"r%d" % row_i, b"q%d" % qual_i
            if op == "put":
                table.put(row, {qual: b"v%d" % payload})
            elif op == "del_col":
                table.delete_column(row, qual)
            else:
                table.delete_row(row)
            if ts in flush_points:
                table.flush()
        return service.cluster, table

    cluster, table = build()
    ref_cluster, ref_table = build()
    rows = list(table.scan(start, stop))
    expected = []
    for region in ref_table._regions_in_range(start, stop):
        live = _reference_rows(region, start, stop, 1)
        expected.extend(live)
        ref_cluster.charge_hbase_scan(
            sum(c.size_bytes() for c in _reference_cells(region, start,
                                                         stop)), len(live))
    assert rows == expected
    assert cluster.ledger.snapshot() == ref_cluster.ledger.snapshot()
    assert table.rows_in_range(start, stop) == len(expected)
    assert table.any_in_range(start, stop) == \
        (table.bytes_in_range(start, stop) > 0)
