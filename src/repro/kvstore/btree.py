"""A B-tree-backed row store: the "MySQL option" for the Attached Table.

The paper's future work proposes evaluating other storage backends for the
Attached Table (MySQL, MongoDB...).  This module provides a simulated
update-in-place B-tree row store with the cost profile of an InnoDB-style
engine:

* a random write is a page read-modify-write (two page I/Os + latency),
* a point read is a page read,
* range scans stream leaf pages sequentially.

It exposes the same client surface as :class:`repro.hbase.HTable` (duck
typing), so :class:`repro.core.attached.AttachedTable` can sit on either
backend unchanged.  Multi-versioning keeps a bounded per-cell history
(InnoDB-undo-style), so DualTable's change-history feature still works.

Device rates default to the values below and can be overridden per
cluster through ``profile.extra``:

* ``kvstore.read_bps`` / ``kvstore.write_bps`` — aggregate stream rates,
* ``kvstore.op_latency_s`` — per-operation latency,
* ``kvstore.page_bytes`` — page size for the read-modify-write charge.
"""

import bisect

from repro.common.units import MB

DEFAULT_READ_BPS = 300 * MB
DEFAULT_WRITE_BPS = 120 * MB
DEFAULT_OP_LATENCY_S = 8e-6
DEFAULT_PAGE_BYTES = 16 * 1024
#: consecutive updates share pages (DualTable record IDs are sorted, so
#: EDIT-plan writes have strong key locality); page I/O amortizes over
#: this many operations.
DEFAULT_PAGE_LOCALITY = 64
MAX_VERSIONS = 8


class BTreeTable:
    """One sorted row table with HTable-compatible surface."""

    def __init__(self, cluster, name):
        self.cluster = cluster
        self.name = name
        self._keys = []
        self._rows = []        # parallel: {qualifier: [(ts, value), ...]}
        self._ts = 0
        extra = cluster.profile.extra
        self.read_bps = float(extra.get("kvstore.read_bps",
                                        DEFAULT_READ_BPS))
        self.write_bps = float(extra.get("kvstore.write_bps",
                                         DEFAULT_WRITE_BPS))
        self.op_latency_s = float(extra.get("kvstore.op_latency_s",
                                            DEFAULT_OP_LATENCY_S))
        self.page_bytes = int(extra.get("kvstore.page_bytes",
                                        DEFAULT_PAGE_BYTES))
        self.page_locality = max(1, int(extra.get("kvstore.page_locality",
                                                  DEFAULT_PAGE_LOCALITY)))

    # ------------------------------------------------------------------
    # Charging (subsystem "hbase" so the job-level serialization of the
    # shared random-access store applies identically to both backends).
    # ------------------------------------------------------------------
    @property
    def _write_op_latency(self):
        """Effective per-op latency: seek + page read-modify-write.

        Page I/O is per *operation*, so it scales with op_scale (each
        simulated op stands for op_scale real page RMWs), not byte_scale.
        """
        amortized_page = self.page_bytes / self.page_locality
        return (self.op_latency_s + amortized_page / self.write_bps
                + amortized_page / self.read_bps)

    @property
    def _read_op_latency(self):
        return (self.op_latency_s
                + self.page_bytes / self.page_locality / self.read_bps)

    def _charge_write_op(self, payload_bytes):
        self.cluster._charge("hbase", "write", nbytes=payload_bytes,
                             nops=1, rate=self.write_bps,
                             per_op_latency=self._write_op_latency)

    def _charge_read_op(self, nbytes):
        self.cluster._charge("hbase", "read", nbytes=nbytes, nops=1,
                             rate=self.read_bps,
                             per_op_latency=self._read_op_latency)

    def _charge_scan(self, nbytes, nrows):
        self.cluster._charge("hbase", "scan", nbytes=nbytes, nops=nrows,
                             rate=self.read_bps,
                             per_op_latency=self.op_latency_s / 16)

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------
    def _slot(self, row):
        idx = bisect.bisect_left(self._keys, row)
        if idx < len(self._keys) and self._keys[idx] == row:
            return idx, True
        return idx, False

    def put(self, row, values, ts=None):
        self._ts += 1
        ts = self._ts if ts is None else ts
        idx, found = self._slot(row)
        if not found:
            self._keys.insert(idx, row)
            self._rows.insert(idx, {})
        cells = self._rows[idx]
        payload = 0
        for qualifier, value in values.items():
            history = cells.setdefault(qualifier, [])
            history.insert(0, (ts, value))
            del history[MAX_VERSIONS:]
            payload += len(row) + len(qualifier) + len(value) + 9
        self._charge_write_op(payload)
        return ts

    def delete_row(self, row, ts=None):
        idx, found = self._slot(row)
        if found:
            del self._keys[idx]
            del self._rows[idx]
        self._charge_write_op(len(row))
        self._ts += 1
        return self._ts

    def delete_column(self, row, qualifier, ts=None):
        idx, found = self._slot(row)
        if found:
            self._rows[idx].pop(qualifier, None)
            if not self._rows[idx]:
                del self._keys[idx]
                del self._rows[idx]
        self._charge_write_op(len(row) + len(qualifier))
        self._ts += 1
        return self._ts

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------
    def get(self, row, versions=1):
        idx, found = self._slot(row)
        if not found:
            self._charge_read_op(len(row))
            return None
        cells = self._rows[idx]
        nbytes = self._row_bytes(row, cells)
        self._charge_read_op(nbytes)
        return self._view(cells, versions)

    def _bounds(self, start_row, stop_row):
        """``(lo, hi)``: the key range as a slice of the sorted rows."""
        keys = self._keys
        lo = 0 if start_row is None else bisect.bisect_left(keys, start_row)
        hi = (len(keys) if stop_row is None
              else bisect.bisect_left(keys, stop_row, lo))
        return lo, hi

    def scan(self, start_row=None, stop_row=None, versions=1):
        lo, hi = self._bounds(start_row, stop_row)
        nbytes = self.bytes_in_range(start_row, stop_row)
        yield from self.scan_silent(start_row, stop_row, versions)
        self._charge_scan(nbytes, hi - lo)

    def scan_silent(self, start_row=None, stop_row=None, versions=1):
        """Uncharged :meth:`scan` for control-plane planning stats."""
        lo, hi = self._bounds(start_row, stop_row)
        return zip(self._keys[lo:hi],
                   [self._view(cells, versions)
                    for cells in self._rows[lo:hi]])

    @staticmethod
    def _view(cells, versions):
        if versions == 1:
            return {q: history[0][1] for q, history in cells.items()}
        return {q: list(history[:versions])
                for q, history in cells.items()}

    @staticmethod
    def _row_bytes(row, cells):
        return sum(len(row) + len(q) + len(v) + 9
                   for q, history in cells.items()
                   for _, v in history)

    # ------------------------------------------------------------------
    # Maintenance / stats.
    # ------------------------------------------------------------------
    def truncate(self):
        self._keys = []
        self._rows = []

    def reclaim_range(self, start_row=None, stop_row=None):
        """No-op: B-tree deletes already remove rows in place."""

    def flush(self):
        """No-op: B-tree writes are in place."""

    def compact(self, major=False):
        """No-op: there are no LSM runs to merge."""

    @property
    def store_bytes(self):
        return sum(self._row_bytes(row, cells)
                   for row, cells in zip(self._keys, self._rows))

    def bytes_in_range(self, start_row=None, stop_row=None):
        lo, hi = self._bounds(start_row, stop_row)
        return sum(map(self._row_bytes, self._keys[lo:hi],
                       self._rows[lo:hi]))

    def rows_in_range(self, start_row=None, stop_row=None):
        """Row count in range; control-plane metadata, uncharged."""
        lo, hi = self._bounds(start_row, stop_row)
        return hi - lo

    def any_in_range(self, start_row=None, stop_row=None):
        """True if any row lies in range; control-plane, uncharged."""
        lo, hi = self._bounds(start_row, stop_row)
        return lo != hi

    def count_rows(self):
        return len(self._keys)

    def is_empty(self):
        return not self._keys
