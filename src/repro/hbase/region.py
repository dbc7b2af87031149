"""Region: one key-range shard of an HBase table.

A region owns a MemStore and a stack of HFiles, serves puts/deletes/gets/
scans, and supports flush plus minor/major compaction.  Version resolution
implements HBase semantics: latest timestamp wins, row tombstones shadow
everything at or below their timestamp, column tombstones shadow one
qualifier.
"""

import heapq
from operator import attrgetter

from repro.hbase.cells import CellType, KeyValue, row_tombstone
from repro.hbase.hfile import HFile
from repro.hbase.memstore import MemStore


class Region:
    """One shard: ``start_row <= row < stop_row`` (None = unbounded)."""

    def __init__(self, start_row=None, stop_row=None,
                 flush_threshold_bytes=8 * 1024 * 1024):
        self.start_row = start_row
        self.stop_row = stop_row
        self.memstore = MemStore()
        self.hfiles = []
        self.flush_threshold_bytes = flush_threshold_bytes
        #: the write-ahead log: every cell applied since the last flush,
        #: in arrival order.  WAL entries are durable (HDFS-backed in
        #: real HBase); the memstore is volatile — a region-server crash
        #: loses the memstore and :meth:`recover` replays the WAL.
        self.wal = []
        self.wal_bytes = 0

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------
    def apply(self, cell):
        """Apply a put/delete cell: WAL append + memstore insert.

        The WAL append happens first — only once the edit is durable is
        it acknowledged — so :meth:`crash` + :meth:`recover` can never
        lose an acknowledged edit.
        """
        self.wal.append(cell)
        self.wal_bytes += cell.size_bytes()
        self.memstore.add(cell)
        if self.memstore.size_bytes >= self.flush_threshold_bytes:
            self.flush()

    def put(self, row, qualifier, value, ts):
        self.apply(KeyValue(row, qualifier, ts, CellType.PUT, value))

    def delete_column(self, row, qualifier, ts):
        self.apply(KeyValue(row, qualifier, ts, CellType.DELETE_COLUMN))

    def delete_row(self, row, ts):
        self.apply(row_tombstone(row, ts))

    # ------------------------------------------------------------------
    # Flush / compaction.
    # ------------------------------------------------------------------
    def flush(self):
        if not self.memstore:
            return None
        hfile = HFile(self.memstore.drain())
        self.hfiles.append(hfile)
        # Flushed cells are durable in the HFile; their WAL entries are
        # no longer needed for recovery.
        self.wal = []
        self.wal_bytes = 0
        return hfile

    # ------------------------------------------------------------------
    # Crash / recovery.
    # ------------------------------------------------------------------
    def crash(self):
        """Region-server crash: the volatile memstore is lost.

        HFiles (already on disk) and the WAL (durable by construction)
        survive.  Returns the number of cells lost from the memstore.
        """
        lost = len(self.memstore)
        self.memstore = MemStore()
        return lost

    def recover(self):
        """Rebuild the memstore by replaying the WAL.

        Idempotent: the memstore is always rebuilt from scratch, so
        calling :meth:`recover` on a healthy region is a no-op state-wise.
        Returns the number of WAL bytes replayed.
        """
        self.memstore = MemStore()
        replayed = 0
        for cell in self.wal:
            self.memstore.add(cell)
            replayed += cell.size_bytes()
        return replayed

    def compact(self, major=False):
        """Merge store files.

        Minor compaction merges all HFiles into one but keeps tombstones;
        major compaction also resolves versions and discards tombstones
        and shadowed cells.
        """
        self.flush()
        if not self.hfiles:
            return None
        cells = self._merged_cells()
        if major:
            cells = [cell for _, row_cells in _group_by_row(cells)
                     for cell in _resolve_row(row_cells, versions=1)]
        merged = HFile(cells)
        self.hfiles = [merged] if cells else []
        return merged

    def purge_range(self, start_row=None, stop_row=None):
        """Physically drop every cell in range, tombstones included.

        Cuts the range's slice out of the memstore and of each HFile
        that holds part of it — the storage-level effect of a
        range-scoped major compaction; stores outside the range are not
        touched.  The WAL is purged too, so a later :meth:`recover`
        cannot resurrect reclaimed cells.
        """
        self.memstore.purge(start_row, stop_row)
        self.hfiles = [f for f in (f.without(start_row, stop_row)
                                   for f in self.hfiles) if len(f)]
        # The WAL is in arrival order, so its range is not a slice.
        low = start_row or b""
        gone = {id(c) for c in self.wal if c.row >= low
                and (stop_row is None or c.row < stop_row)}
        if gone:
            self.wal = [c for c in self.wal if id(c) not in gone]
            self.wal_bytes = sum(map(KeyValue.size_bytes, self.wal))

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------
    def _stores(self):
        return [self.memstore] + self.hfiles

    def _merged_cells(self, start_row=None, stop_row=None):
        """The range's raw cells (pre-resolution) in sort order, a list.

        Each store hands over a slice; they are merged only when more
        than one of them holds cells of the range.
        """
        sources = [cells for cells in (store.scan(start_row, stop_row)
                                       for store in self._stores()) if cells]
        if len(sources) > 1:
            return list(heapq.merge(*sources, key=KeyValue.sort_key))
        return sources[0] if sources else []

    def scan(self, start_row=None, stop_row=None, versions=1):
        """Resolved ``(row, {qualifier: value})`` pairs in row order.

        With ``versions > 1`` the dict values are lists of ``(ts, value)``
        newest-first.
        """
        return _resolve_rows(self._merged_cells(start_row, stop_row),
                             versions=versions)

    def qualifiers_in_range(self, start_row=None, stop_row=None):
        """Qualifiers of the range's put cells, shadowed ones too (a
        superset of what :meth:`scan` returns), no row resolved."""
        return {cell.qualifier for store in self._stores()
                for cell in store.scan(start_row, stop_row)
                if not cell.cell_type}          # CellType.PUT is 0

    def get(self, row, versions=1):
        stop = row + b"\x00"
        for _, data in self.scan(row, stop, versions=versions):
            return data
        return None

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------
    @property
    def store_bytes(self):
        return self.memstore.size_bytes + sum(f.size_bytes for f in self.hfiles)

    def bytes_in_range(self, start_row=None, stop_row=None):
        return sum(sum(map(KeyValue.size_bytes,
                           store.scan(start_row, stop_row)))
                   for store in self._stores())

    def any_in_range(self, start_row=None, stop_row=None):
        """True if any raw cell, tombstones included, lies in range —
        ``bytes_in_range(...) > 0`` without visiting a cell."""
        for store in self._stores():
            lo, hi = store.bounds(start_row, stop_row)
            if lo != hi:
                return True
        return False

    def cell_count(self):
        return len(self.memstore) + sum(len(f) for f in self.hfiles)


# ----------------------------------------------------------------------
# Version/tombstone resolution.
# ----------------------------------------------------------------------
def _group_by_row(cells):
    current_row, bucket = None, []
    for cell in cells:
        if cell.row != current_row:
            if bucket:
                yield current_row, bucket
            current_row, bucket = cell.row, []
        bucket.append(cell)
    if bucket:
        yield current_row, bucket


def _resolve_row(row_cells, versions):
    """Surviving put cells of one row, newest-first per qualifier."""
    row_delete_ts = -1
    for cell in row_cells:
        if cell.cell_type == CellType.DELETE_ROW and cell.ts > row_delete_ts:
            row_delete_ts = cell.ts
    survivors = []
    current_qual = object()
    col_delete_ts = -1
    taken = 0
    for cell in row_cells:
        if cell.qualifier != current_qual:
            current_qual = cell.qualifier
            col_delete_ts = -1
            taken = 0
        if cell.cell_type == CellType.DELETE_COLUMN:
            if cell.ts > col_delete_ts:
                col_delete_ts = cell.ts
            continue
        if cell.cell_type == CellType.DELETE_ROW:
            continue
        if cell.ts <= row_delete_ts or cell.ts <= col_delete_ts:
            continue
        if taken < versions:
            survivors.append(cell)
            taken += 1
    return survivors


_CELL_TYPE = attrgetter("cell_type")


def _resolve_rows(cells, versions=1):
    """Resolved ``(row, data)`` pairs of a sorted cell run, as a list."""
    out = []
    if versions == 1 and not any(map(_CELL_TYPE, cells)):
        # No tombstone in the run (``CellType.PUT`` is 0): nothing is
        # shadowed by a delete, so the newest put of each (row,
        # qualifier) — the first in sort order — is the survivor.
        row = None
        for cell in cells:
            if cell.row != row:
                row = cell.row
                data = {}
                out.append((row, data))
            data.setdefault(cell.qualifier, cell.value)
        return out
    for row, row_cells in _group_by_row(cells):
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
