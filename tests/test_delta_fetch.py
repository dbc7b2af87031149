"""The delta fetch: cells -> overlay in one pass, one charged scan per file.

``AttachedTable.file_deltas`` scans a master file's key range once and
builds the columnar ``DeltaOverlay`` straight from the resolved cells.
The path it replaced — ``scan_range`` -> ``_resolve`` -> ``DeltaRecord``
items -> ``build_overlay(items)`` — lives on in
``tests/delta_reference.py`` as the oracle: over generated cell
histories both must give the same overlay members, the same items, and
the same ledger bytes / ops / seconds and non-cache counters.

The two things that differ on purpose are pinned here as well: a cell
this library did not write raises ``CorruptDeltaError`` instead of
silently reading back the old master value, and a cold scan costs one
charged ``HTable.scan`` per file with no ``rows_in_range`` pass.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterProfile
from repro.common.errors import CorruptDeltaError, ReproError
from repro.core import AttachedTable, encode_record_id
from repro.core.attached import DELETE_MARKER, update_qualifier
from repro.core.master import FILE_ID_KEY
from repro.core.record_id import file_key_range
from repro.core.union_read import build_overlay
from repro.hbase import HBaseService, HTable
from repro.hive import HiveSession
from repro.hive.valuecodec import encode_value
from repro.shard.identity import counter_identity_view

from tests.delta_reference import (overlay_members, reference_build_overlay,
                                   reference_scan_range)
from tests.golden import golden

FILES = (1, 2, 3, 4)            # 4 never gets a delta: the empty range
LAST_ROW = 2 ** 64 - 1          # the last record id of a file's range
ROWS = (0, 1, 2, 7, 8, LAST_ROW)

_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 63, 2 ** 63 - 1),
    st.floats(allow_nan=False), st.text(max_size=6))
_record = st.tuples(st.sampled_from(FILES[:3]), st.sampled_from(ROWS))
_ops = st.lists(st.one_of(
    st.tuples(st.just("update"), _record,
              st.dictionaries(st.integers(0, 3), _values,
                              min_size=1, max_size=3)),
    st.tuples(st.just("delete"), _record),
    st.tuples(st.just("col_tombstone"), _record, st.integers(0, 3)),
    st.tuples(st.just("row_tombstone"), _record),
    st.tuples(st.just("flush")),
), max_size=40)


def make_attached(backend):
    cluster = Cluster(ClusterProfile.laptop())
    attached = AttachedTable(HBaseService(cluster), "dt_t_attached",
                             backend=backend)
    attached.create()
    return cluster, attached


def replay(table, ops):
    """Apply one generated history through the raw store client."""
    for op in ops:
        if op[0] == "flush":
            table.flush()
            continue
        record_id = encode_record_id(*op[1])
        if op[0] == "update":
            table.put(record_id, {update_qualifier(column):
                                  encode_value(value)
                                  for column, value in op[2].items()})
        elif op[0] == "delete":
            table.put(record_id, {DELETE_MARKER: b"1"})
        elif op[0] == "col_tombstone":
            table.delete_column(record_id, update_qualifier(op[2]))
        else:
            table.delete_row(record_id)


def observed(cluster):
    return (cluster.ledger.snapshot(),
            counter_identity_view(cluster.metrics.counters))


def same_values(one, other):
    """Equal *and* same types (``1 == True == 1.0`` must not pass)."""
    return one == other and repr(one) == repr(other)


@pytest.mark.parametrize("backend", ["hbase", "btree"])
@given(ops=_ops)
@settings(max_examples=60, deadline=None)
def test_cells_to_overlay_equals_items_to_overlay(backend, ops):
    ref_cluster, ref_attached = make_attached(backend)
    new_cluster, new_attached = make_attached(backend)
    replay(ref_attached._htable(), ops)
    replay(new_attached._htable(), ops)
    assert observed(ref_cluster) == observed(new_cluster)
    for file_id in FILES:
        items = list(reference_scan_range(ref_attached._htable(),
                                          *file_key_range(file_id)))
        expected = overlay_members(reference_build_overlay(items))
        cells, overlay = new_attached.file_deltas(file_id)
        assert same_values(overlay_members(overlay), expected)
        assert same_values(new_attached.delta_items(cells), items)
        assert same_values(list(new_attached.scan_range(
            *file_key_range(file_id))), items)
        # scan_range charged the range a second time on that side.
        list(reference_scan_range(ref_attached._htable(),
                                  *file_key_range(file_id)))
        assert observed(ref_cluster) == observed(new_cluster)
    # A hit replays the recorded charges verbatim.
    for file_id in FILES:
        list(reference_scan_range(ref_attached._htable(),
                                  *file_key_range(file_id)))
        _, overlay = new_attached.file_deltas(file_id)
        assert overlay is new_attached.file_deltas(file_id)[1]
        list(reference_scan_range(ref_attached._htable(),
                                  *file_key_range(file_id)))
    assert observed(ref_cluster) == observed(new_cluster)


class TestOverlayKernel:
    def rows(self, *pairs):
        return [(encode_record_id(2, row), data) for row, data in pairs]

    def test_bulk_and_fallback_decodes_agree_with_the_reference(self):
        """One column per decode route: all ints, all doubles, all
        strings, and a mix with NULL and bool (value by value)."""
        mixed = [None, True, 7, 2.5, "s", False]
        cells = self.rows(*[
            (row, {update_qualifier(0): encode_value(row * 3),
                   update_qualifier(1): encode_value(row / 4),
                   update_qualifier(2): encode_value("n%d" % row),
                   update_qualifier(3): encode_value(mixed[row])})
            for row in range(6)])
        overlay = build_overlay(cells, "t")
        assert overlay.patches[0][1] == [0, 3, 6, 9, 12, 15]
        assert overlay.patches[1][1] == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25]
        assert overlay.patches[2][1] == ["n%d" % r for r in range(6)]
        assert same_values(overlay.patches[3][1], mixed)

    def test_nine_byte_strings_are_not_taken_for_ints(self):
        cells = self.rows((0, {update_qualifier(0): encode_value("12345678")}),
                          (1, {update_qualifier(0): encode_value(5)}))
        assert build_overlay(cells, "t").patches[0][1] == ["12345678", 5]

    def test_delete_wins_and_leaves_the_patch_lists(self):
        cells = self.rows(
            (1, {update_qualifier(0): encode_value(1)}),
            (2, {update_qualifier(0): encode_value(2), DELETE_MARKER: b"1"}),
            (3, {update_qualifier(1): encode_value("x")}))
        overlay = build_overlay(cells, "t")
        assert overlay_members(overlay) == (
            [1, 2, 3], [2], [1, 3], {0: ([1], [1]), 1: ([3], ["x"])})

    def test_column_only_deleted_rows_carry_has_no_patch_list(self):
        cells = self.rows(
            (1, {update_qualifier(5): encode_value(1), DELETE_MARKER: b"1"}))
        assert build_overlay(cells, "t").patches == {}

    def test_noop_delta_counts_as_position_only(self):
        cells = self.rows((1, {}), (2, {update_qualifier(0): b"i" + bytes(8)}))
        assert overlay_members(build_overlay(cells, "t")) == (
            [1, 2], [], [2], {0: ([2], [0])})

    def test_empty_range(self):
        assert overlay_members(build_overlay([], "t")) == ([], [], [], {})

    @pytest.mark.parametrize("data, problem", [
        ({b"u\x00": encode_value(1)}, "unrecognised qualifier"),
        ({b"x..": encode_value(1)}, "unrecognised qualifier"),
        ({update_qualifier(0): b""}, "undecodable value"),
        ({update_qualifier(0): b"i\x01"}, "undecodable value"),
        ({update_qualifier(0): b"?abc"}, "undecodable value"),
        ({update_qualifier(0): b"s\xff"}, "undecodable value"),
    ])
    def test_foreign_cells_name_table_and_record(self, data, problem):
        good = {update_qualifier(0): encode_value(1)}
        cells = self.rows((1, good), (2, data), (3, good))
        with pytest.raises(CorruptDeltaError) as raised:
            build_overlay(cells, "dt_t_attached")
        message = str(raised.value)
        assert problem in message and "dt_t_attached" in message
        assert encode_record_id(2, 2).hex() in message

    def test_a_row_key_that_is_no_record_id(self):
        cells = [(encode_record_id(2, 1) + b"\x00",
                  {update_qualifier(0): encode_value(1)})]
        with pytest.raises(CorruptDeltaError):
            build_overlay(cells, "t")


# ----------------------------------------------------------------------
# Satellite: a garbled qualifier used to read back the old master value.
# ----------------------------------------------------------------------
def build_session(files=4, rows_per_file=10):
    session = HiveSession(profile=ClusterProfile.laptop())
    session.execute(
        "CREATE TABLE t (k int, v int, PRIMARY KEY (k)) STORED AS dualtable "
        "TBLPROPERTIES ('orc.rows_per_file' = '%d', 'orc.stripe_rows' = '5', "
        "'dualtable.mode' = 'edit')" % rows_per_file)
    session.load_rows("t", [(i, i * 10) for i in range(files * rows_per_file)])
    return session


def file_ids(handler):
    return [int(handler.master.meta(path).metadata[FILE_ID_KEY])
            for path in handler.master.file_paths()]


FOREIGN_CELLS = [
    (b"u\x00", encode_value(-1)),
    (b"x..", encode_value(-1)),
    (update_qualifier(1), b"i\x01"),
]
FOREIGN_STATEMENTS = {
    "test_select": ["SELECT k, v FROM t"],
    "test_lookup": ["SET dualtable.plan = lookup",
                    "SELECT k, v FROM t WHERE k = 3"],
    "test_compact": ["COMPACT TABLE t"],
}


def plant_and_run(name, qualifier, value):
    """Plant the cell where ``UPDATE t SET v = -1 WHERE k = 3`` would
    have put one, then run the statements of ``name``."""
    session = build_session()
    handler = session.table("t").handler
    record_id = encode_record_id(file_ids(handler)[0], 3)
    handler.attached._htable().put(record_id, {qualifier: value})
    with pytest.raises(ReproError) as raised:
        for sql in FOREIGN_STATEMENTS[name]:
            session.execute(sql)
    return session, record_id, raised


def golden_sections():
    return {"foreign_cell/%s/%d" % (name, i):
            [type(raised.value).__name__, str(raised.value)]
            for name in FOREIGN_STATEMENTS
            for i, cell in enumerate(FOREIGN_CELLS)
            for _, _, raised in [plant_and_run(name, *cell)]}


@pytest.mark.parametrize("engine", ["vectorized", "row"])
@pytest.mark.parametrize("qualifier, value", FOREIGN_CELLS)
class TestForeignCellIsATypedError:
    """A cell planted through the raw ``HTable``; under ``row`` the error
    must also read as it did when the row engine's per-cell resolver
    found the cell (tests/golden.py)."""

    def check(self, name, engine, qualifier, value):
        session, record_id, raised = plant_and_run(name, qualifier, value)
        assert record_id.hex() in str(raised.value)
        assert "attached" in str(raised.value)
        if engine == "row":
            section = "foreign_cell/%s/%d" % (
                name, FOREIGN_CELLS.index((qualifier, value)))
            assert [type(raised.value).__name__,
                    str(raised.value)] == golden(section)
        return session, record_id, raised

    def test_select(self, engine, qualifier, value):
        self.check("test_select", engine, qualifier, value)

    def test_lookup(self, engine, qualifier, value):
        _, _, raised = self.check("test_lookup", engine, qualifier, value)
        assert isinstance(raised.value, CorruptDeltaError)

    def test_compact(self, engine, qualifier, value):
        session, record_id, _ = self.check("test_compact", engine,
                                           qualifier, value)
        # Nothing was folded: the cell is still there to be looked at.
        assert session.table("t").handler.attached._htable().get(record_id)


# ----------------------------------------------------------------------
# Count gate: what a point edit and a cold scan may cost, in counts.
# ----------------------------------------------------------------------
class TestCountGate:
    FILES = 16

    def dirty_table(self):
        session = build_session(files=self.FILES)
        session.execute("UPDATE t SET v = v + 1 WHERE k % 10 < 4")
        handler = session.table("t").handler
        assert all(handler.attached.has_entries_in_file(f)
                   for f in file_ids(handler))
        return session, handler

    def test_point_update_drops_and_misses_one_file(self):
        session, handler = self.dirty_table()
        session.execute("SELECT k, v FROM t")              # warm
        cache = session.cluster.delta_cache
        counters = session.cluster.metrics.counters
        prefixes = {key[:3] for key in cache._entries}
        per_file = max(sum(key[:3] == prefix for key in cache._entries)
                       for prefix in prefixes)
        dropped = counters.get("cache.delta.invalidations", 0)
        result = session.execute("UPDATE t SET v = 0 WHERE k = 14")
        assert not result.jobs                      # EDIT-by-key
        # One file's entries: its deltas, plus the presence and pk-dirty
        # answers the keyed plan memoised beside them.
        assert 0 < (counters["cache.delta.invalidations"] - dropped) \
            <= per_file + 2
        misses = counters["cache.delta.misses"]
        rows = session.execute("SELECT k, v FROM t").rows
        assert counters["cache.delta.misses"] - misses == 1
        session.cluster.delta_cache.clear()
        session.cluster.orc_cache.clear()
        assert session.execute("SELECT k, v FROM t").rows == rows

    def test_cold_scan_is_one_charged_scan_per_file(self, monkeypatch):
        session, handler = self.dirty_table()
        session.cluster.delta_cache.clear()
        calls = {"scan": 0, "rows_in_range": 0}

        def counting(name):
            original = getattr(HTable, name)

            def wrapper(self, *args, **kwargs):
                if self.name == handler.attached.name:
                    calls[name] += 1
                return original(self, *args, **kwargs)
            monkeypatch.setattr(HTable, name, wrapper)

        counting("scan")
        counting("rows_in_range")
        ops = session.cluster.ledger.ops_by_key.get(("hbase", "scan"), 0)
        session.execute("SELECT k, v FROM t")
        assert calls == {"scan": self.FILES, "rows_in_range": 0}
        # ...and each of them charged its delta rows once (4 per file).
        assert session.cluster.ledger.ops_by_key[("hbase", "scan")] - ops \
            == 4 * self.FILES
