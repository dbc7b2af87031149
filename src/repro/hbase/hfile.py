"""Immutable sorted store files (the LSM tree's on-disk runs).

An :class:`HFile` is a sorted, immutable run of KeyValues with a row-key
index for point lookups.  Conceptually HFiles live on HDFS; the simulation
keeps the cell objects plus an accurate serialized size so reads can be
charged by the byte.
"""

import bisect
import itertools

from repro.hbase.cells import KeyValue

_file_ids = itertools.count(1)


class HFile:
    """One immutable store file of a region."""

    def __init__(self, cells):
        self.file_id = next(_file_ids)
        self._cells = sorted(cells, key=KeyValue.sort_key)
        self._row_keys = [c.row for c in self._cells]
        self.size_bytes = sum(map(KeyValue.size_bytes, self._cells))
        self.min_row = self._cells[0].row if self._cells else None
        self.max_row = self._cells[-1].row if self._cells else None

    def __len__(self):
        return len(self._cells)

    def bounds(self, start_row=None, stop_row=None):
        """``(lo, hi)`` such that ``cells[lo:hi]`` is the key range."""
        rows = self._row_keys
        lo = 0 if start_row is None else bisect.bisect_left(rows, start_row)
        hi = (len(rows) if stop_row is None
              else bisect.bisect_left(rows, stop_row, lo))
        return lo, hi

    def scan(self, start_row=None, stop_row=None):
        """Cells with ``start_row <= row < stop_row`` in sort order."""
        lo, hi = self.bounds(start_row, stop_row)
        return self._cells[lo:hi]

    def without(self, start_row=None, stop_row=None):
        """This file if the range holds none of its cells, else a new
        file of the cells outside it."""
        lo, hi = self.bounds(start_row, stop_row)
        if lo == hi:
            return self
        return HFile(self._cells[:lo] + self._cells[hi:])

    def may_contain_row(self, row):
        """Range check used to skip files during point gets."""
        if self.min_row is None:
            return False
        return self.min_row <= row <= self.max_row

    def bytes_in_range(self, start_row=None, stop_row=None):
        return sum(map(KeyValue.size_bytes, self.scan(start_row, stop_row)))

    def __repr__(self):
        return "HFile(id=%d, %d cells, %dB)" % (
            self.file_id, len(self._cells), self.size_bytes)
