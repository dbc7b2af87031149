"""UNION READ: merge the Master-Table stream with Attached-Table deltas.

Both inputs arrive sorted by record ID (master rows by construction,
attached rows because HBase keys are record IDs), so the merge is a single
linear two-pointer pass per master file — the "simple MapReduce algorithm
using a divide-and-conquer strategy" of Section III-C.

``union_read_file`` in ``tests/delta_reference.py`` is that algorithm
as the paper states it — one record ID encoded per master row, the
delta iterator walked beside it — and is kept there as the
*specification*: the tests hold the production merge to it (rows,
record ids and merge stats over adversarial delta distributions,
``tests/test_merge_overlay.py``).

The merge is :func:`union_read_overlay`: the file's sorted
deltas are pre-resolved into a :class:`DeltaOverlay` — sorted delete
positions plus per-column sparse patch lists — and applied to each
ColumnBatch with binary search and slice-level column surgery, so the
merge cost scales with the number of *deltas*, not the number of rows
(cf. *Fast Updates on Read-Optimized Databases Using Multi-Core CPUs*,
arXiv:1109.6885).  Both fill the same merge-stat dict
(``deltas_applied`` / ``rows_deleted`` / ``deltas_skipped`` /
``trailing_deltas``).

A merged batch keeps **provenance**: its source ``row_base`` plus the
sorted positions of the rows deleted from it (``ColumnBatch.dropped`` —
a slice the merge computes anyway), so the EDIT scan can name a
surviving row's record id lazily, for the rows a statement matches,
instead of encoding one id per scanned row.
"""

from bisect import bisect_left
from itertools import chain, compress, repeat
from operator import not_

from repro.common.errors import HBaseError
from repro.core.attached import (DECODE_ERRORS, DELETE_MARKER, corrupt_delta,
                                 parse_qualifier, resolve_delta)
from repro.core.record_id import RECORD_ID_BYTES, decode_row_numbers
from repro.hive.valuecodec import decode_values
from repro.vector import ColumnBatch, spliced


class DeltaOverlay:
    """One master file's deltas, pre-resolved for columnar application.

    All four members are derived from the file's sorted delta stream and
    express row *positions* (file-ordinal row numbers), so applying the
    overlay to a ColumnBatch is pure binary search over ``row_base``:

    ``positions``          — every delta row number, sorted (the merge
                             cursor for skipped/trailing accounting);
    ``delete_positions``   — rows with a DELETE marker, sorted;
    ``applied_positions``  — rows with live (non-deleted, non-empty)
                             updates, sorted — the ``deltas_applied``
                             population;
    ``patches``            — ``{schema_column_index: (positions, values)}``
                             sparse per-column patch lists over the live
                             updates (delete-marked rows excluded:
                             delete wins over update, exactly as in
                             the paper's row merge).

    Overlays are immutable and memoized per (file, delta-epoch) in the
    delta-range cache (:meth:`AttachedTable.file_deltas`); callers must
    not mutate them.
    """

    __slots__ = ("positions", "delete_positions", "applied_positions",
                 "patches")

    def __init__(self, positions, delete_positions, applied_positions,
                 patches):
        self.positions = positions
        self.delete_positions = delete_positions
        self.applied_positions = applied_positions
        self.patches = patches

    def __len__(self):
        return len(self.positions)


def build_overlay(cells, table=None):
    """Resolve one file's sorted delta cells into a :class:`DeltaOverlay`.

    ``cells`` are the Attached Table's resolved scan rows, ``(record_id,
    {qualifier: raw value})`` in record-id order.  The work is per
    *column* of the file's deltas, not per cell: one unpack names every
    row position, each qualifier is parsed once, and every update
    column decodes in one :func:`~repro.hive.valuecodec.decode_values`
    call.  A cell this library did not write raises
    :class:`~repro.common.errors.CorruptDeltaError` naming ``table``
    and the record id — never a silently unpatched row.
    """
    if not cells:
        return DeltaOverlay([], [], [], {})
    record_ids, datas = zip(*cells)
    try:
        positions = decode_row_numbers(record_ids)
        columns = {}
        for qualifier in set(chain.from_iterable(datas)):
            kind, column_index = parse_qualifier(qualifier)
            if kind == "unknown":
                raise HBaseError("unrecognised qualifier")
            if kind == "update":
                columns[column_index] = qualifier
        # Delete wins over update: a marked row leaves the patch lists.
        deleted = list(map(dict.__contains__, datas, repeat(DELETE_MARKER)))
        live = list(map(not_, deleted))
        delete_positions = list(compress(positions, deleted))
        live_positions = list(compress(positions, live))
        live_datas = list(compress(datas, live))
        # A noop delta ({}) matches a master row and changes nothing.
        applied_positions = list(compress(live_positions, live_datas))
        patches = {}
        for column_index in sorted(columns):
            rows = live_positions
            raw = list(map(dict.get, live_datas,
                           repeat(columns[column_index])))
            if None in raw:
                present = [value is not None for value in raw]
                rows = list(compress(rows, present))
                raw = list(compress(raw, present))
            if raw:     # else only DELETE-marked rows carry the column
                patches[column_index] = (rows, decode_values(raw))
    except DECODE_ERRORS as exc:
        # Cell by cell, the resolver names the first foreign one; if it
        # finds none, a row key is not a record id.
        for record_id, data in cells:
            resolve_delta(table, record_id, data)
        odd = min(record_ids, key=lambda r: len(r) == RECORD_ID_BYTES)
        raise corrupt_delta(table, odd, exc) from exc
    return DeltaOverlay(positions, delete_positions, applied_positions,
                        patches)


def union_read_overlay(file_id, orc_batches, overlay, projection_map,
                       num_rows, stats=None):
    """Columnar UNION READ: apply one file's overlay batch by batch.

    Yields the rows the paper's row merge yields for a file of
    ``num_rows`` rows and fills the same ``stats`` dict, but a dirty
    batch costs binary searches plus slice-level column surgery instead
    of a per-row record-id merge:

    * patched columns are rebuilt once with :func:`repro.vector.spliced`
      (sparse position/value writes on a single list copy);
    * deleted rows are dropped in place on that same copy (untouched
      columns are copied first), so a batch with both patches and
      deletes still costs exactly one copy per column;
    * columns a batch neither patches nor shrinks are shared with the
      source batch zero-copy;
    * every yielded batch keeps ``row_base``, and a shrunk one carries
      its slice of the delete positions as ``dropped``.

    A batch no delta position falls into streams through unchanged —
    the zero-delta fast path costs one ``bisect`` per batch.
    """
    applied = 0
    deleted = 0
    skipped = 0
    trailing = 0
    positions = overlay.positions
    deletes = overlay.delete_positions
    updates = overlay.applied_positions
    cursor = 0   # first delta position not yet accounted for
    try:
        for batch in orc_batches:
            base = batch.row_base
            end = base + batch.length
            lo = bisect_left(positions, base, cursor)
            skipped += lo - cursor
            hi = bisect_left(positions, end, lo)
            cursor = hi
            if lo == hi:
                yield batch
                continue
            d_lo = bisect_left(deletes, base)
            d_hi = bisect_left(deletes, end, d_lo)
            deleted += d_hi - d_lo
            a_lo = bisect_left(updates, base)
            a_hi = bisect_left(updates, end, a_lo)
            applied += a_hi - a_lo
            patched = None
            for column_index, (p_positions, p_values) in \
                    overlay.patches.items():
                position = projection_map.get(column_index)
                if position is None:
                    continue
                p_lo = bisect_left(p_positions, base)
                p_hi = bisect_left(p_positions, end, p_lo)
                if p_lo == p_hi:
                    continue
                if patched is None:
                    patched = list(batch.columns)
                patched[position] = spliced(batch.columns[position],
                                            p_positions[p_lo:p_hi],
                                            p_values[p_lo:p_hi], base=base)
            if d_lo == d_hi:
                if patched is None:
                    # Only noop or unprojected-update matches: content is
                    # unchanged; hand the source batch through.
                    yield batch
                else:
                    yield ColumnBatch(patched, batch.length, row_base=base)
                continue
            survivors = batch.length - (d_hi - d_lo)
            if survivors == 0:
                continue   # every row deleted; empty batches are not yielded
            dropped = deletes[d_lo:d_hi]
            # Highest offset first so earlier deletes keep their index.
            offsets = [p - base for p in reversed(dropped)]
            source = batch.columns
            columns = patched if patched is not None else list(source)
            for position, column in enumerate(columns):
                if column is source[position]:
                    column = columns[position] = list(column)
                for offset in offsets:
                    del column[offset]
            yield ColumnBatch(columns, survivors, row_base=base,
                              dropped=dropped)
        trailing = len(positions) - bisect_left(positions, num_rows, cursor)
        skipped += len(positions) - cursor - trailing
    finally:
        if stats is not None:
            stats["deltas_applied"] = applied
            stats["rows_deleted"] = deleted
            stats["deltas_skipped"] = skipped
            stats["trailing_deltas"] = trailing


def classify_merge_units(spans, positions):
    """``(fast_units, dirty_units)`` over a file's merge-unit grid.

    ``spans`` are the surviving stripes' ``(first_row, num_rows)`` pairs
    — the canonical merge-unit grid, independent of the session
    batch-size knob — and ``positions`` the file's sorted delta row
    numbers.  A unit any delta position falls into is *dirty* (the
    merge must do per-delta work there); the rest stream through the
    fast path.  Pure control-plane arithmetic: no charges,
    byte-identical across workers and shards.
    """
    fast = 0
    dirty = 0
    for first_row, num_rows in spans:
        lo = bisect_left(positions, first_row)
        if lo < len(positions) and positions[lo] < first_row + num_rows:
            dirty += 1
        else:
            fast += 1
    return fast, dirty
