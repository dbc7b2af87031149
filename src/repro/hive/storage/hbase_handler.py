"""Hive-on-HBase storage: every row lives in an HBase table.

This is the "Hive(HBase)" baseline of the paper: row-level UPDATE/DELETE
are cheap random writes, but scans pay HBase's random-read rates and
per-row overhead, which is why the paper drops it from the grid
experiments and why Figure 11 shows it losing badly on reads.
"""

import struct

from repro.mapreduce import InputSplit
from repro.hive.storage.base import StorageHandler
from repro.hive.valuecodec import decode_value, encode_value
from repro.vector import batches_from_rows


def _rowkey(row_id):
    return struct.pack(">Q", row_id)


def _qualifier(col_index):
    return b"c%05d" % col_index


class HBaseTableHandler(StorageHandler):
    """Row-oriented table stored in simulated HBase."""

    kind = "hbase"
    supports_inplace_mutation = True

    def __init__(self, table, env):
        super().__init__(table, env)
        self.hbase_name = "hive_%s" % table.name
        self._next_row_id = 0

    @property
    def service(self):
        return self.env.hbase

    def _htable(self):
        return self.service.table(self.hbase_name)

    # ------------------------------------------------------------------
    def create(self):
        self.service.ensure_table(self.hbase_name)

    def drop(self):
        if self.service.has_table(self.hbase_name):
            self.service.drop_table(self.hbase_name)

    # ------------------------------------------------------------------
    def insert_rows(self, rows, overwrite=False):
        htable = self._htable()
        if overwrite:
            htable.truncate()
            self._next_row_id = 0
        count = 0
        for row in rows:
            values = {}
            for idx, value in enumerate(row):
                values[_qualifier(idx)] = encode_value(value)
            htable.put(_rowkey(self._next_row_id), values)
            self._next_row_id += 1
            count += 1
        return count

    # ------------------------------------------------------------------
    def scan_splits(self, projection=None, ranges=None):
        htable = self._htable()
        total = htable.store_bytes
        nsplits = max(1, len(htable.regions))
        # Carve the row-id space into contiguous ranges, one per region.
        bounds = [None]
        for region in htable.regions[1:]:
            bounds.append(region.start_row)
        bounds.append(None)
        splits = []
        for i in range(nsplits):
            splits.append(InputSplit(
                payload={"start": bounds[i], "stop": bounds[i + 1],
                         "projection": list(projection) if projection else None},
                size_bytes=total // nsplits,
                label="%s[%d]" % (self.hbase_name, i)))
        return splits

    def read_split_batches(self, split, ctx, batch_rows=None):
        """HBase serves rows, not columns: batch the region scan."""
        width = len(split.payload["projection"] or self.schema)
        return batches_from_rows(self.read_split(split, ctx), width,
                                 batch_rows)

    def read_split(self, split, ctx):
        """The region scan behind :meth:`read_split_batches`, row by row."""
        payload = split.payload
        projection = payload["projection"]
        if projection is None:
            indices = list(range(len(self.schema)))
        else:
            indices = [self.schema.index_of(name) for name in projection]
        quals = [_qualifier(i) for i in indices]
        htable = self._htable()
        for _, cells in htable.scan(payload["start"], payload["stop"]):
            yield tuple(
                decode_value(cells[q]) if q in cells else None
                for q in quals)

    # ------------------------------------------------------------------
    # Row mutation (what makes this handler update-friendly).
    # ------------------------------------------------------------------
    def update_row(self, rowkey, new_values):
        """Put new cell values: ``{column_index: python_value}``."""
        payload = {_qualifier(idx): encode_value(val)
                   for idx, val in new_values.items()}
        self._htable().put(rowkey, payload)

    def delete_row(self, rowkey):
        self._htable().delete_row(rowkey)

    # ------------------------------------------------------------------
    def data_bytes(self):
        return self._htable().store_bytes

    def row_count(self):
        return self._next_row_id
