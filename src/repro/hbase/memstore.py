"""In-memory write buffer for a region (the LSM tree's top level)."""

import bisect

from repro.hbase.cells import KeyValue


class MemStore:
    """Sorted in-memory run of KeyValues awaiting a flush.

    Inserts keep the run sorted (bisect insertion — fine at simulation
    scale), so a key range is two bisects and a slice.
    """

    def __init__(self):
        self._cells = []
        self._keys = []
        self._bytes = 0

    def add(self, cell):
        key = cell.sort_key()
        idx = bisect.bisect_left(self._keys, key)
        self._keys.insert(idx, key)
        self._cells.insert(idx, cell)
        self._bytes += cell.size_bytes()

    def bounds(self, start_row=None, stop_row=None):
        """``(lo, hi)`` such that ``cells[lo:hi]`` is the key range
        (``(row,)`` sorts before every sort key of that row)."""
        keys = self._keys
        lo = 0 if start_row is None else bisect.bisect_left(keys, (start_row,))
        hi = (len(keys) if stop_row is None
              else bisect.bisect_left(keys, (stop_row,), lo))
        return lo, hi

    def scan(self, start_row=None, stop_row=None):
        """Cells with ``start_row <= row < stop_row`` in sort order."""
        lo, hi = self.bounds(start_row, stop_row)
        return self._cells[lo:hi]

    def purge(self, start_row=None, stop_row=None):
        """Drop the key range in place."""
        lo, hi = self.bounds(start_row, stop_row)
        self._bytes -= sum(map(KeyValue.size_bytes, self._cells[lo:hi]))
        del self._cells[lo:hi]
        del self._keys[lo:hi]

    def drain(self):
        """Return all cells (sorted) and empty the store."""
        cells = self._cells
        self._cells = []
        self._keys = []
        self._bytes = 0
        return cells

    @property
    def size_bytes(self):
        return self._bytes

    def __len__(self):
        return len(self._cells)

    def __bool__(self):
        return bool(self._cells)
