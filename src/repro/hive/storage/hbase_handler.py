"""Hive-on-HBase storage: every row lives in an HBase table.

This is the "Hive(HBase)" baseline of the paper: row-level UPDATE/DELETE
are cheap random writes, but scans pay HBase's random-read rates and
per-row overhead, which is why the paper drops it from the grid
experiments and why Figure 11 shows it losing badly on reads.  COMPACT
is HBase's own (minor or major) store compaction.
"""

import struct

from repro.mapreduce import InputSplit, Job
from repro.hive.rowedit import matched_rows
from repro.hive.storage.base import StorageHandler
from repro.hive.valuecodec import decode_value, encode_value
from repro.vector import batches_from_rows


def _rowkey(row_id):
    return struct.pack(">Q", row_id)


def _qualifier(col_index):
    return b"c%05d" % col_index


class HBaseTableHandler(StorageHandler):
    """Row-oriented table stored in simulated HBase."""

    dml_plan = "in-place random writes during table scan"

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
        for i, region in enumerate(htable.regions):
            # A region serves rows from HBase, not HDFS: the plan prices
            # its scan and its rows, about one cell per column each.
            rows = region.cell_count() // len(self.schema)
            splits.append(InputSplit(
                payload={"start": bounds[i], "stop": bounds[i + 1],
                         "projection": list(projection) if projection else None},
                size_bytes=total // nsplits,
                label="%s[%d]" % (self.hbase_name, i), rows=rows,
                hbase_bytes=region.store_bytes, hbase_rows=rows))
        return splits

    def read_split_batches(self, split, ctx, batch_rows=None):
        """HBase serves rows, not columns: batch the region scan."""
        projection = split.payload["projection"]
        indices = (range(len(self.schema)) if projection is None
                   else [self.schema.index_of(name) for name in projection])
        rows = (values for _, values
                in self._region_rows(split.payload, indices))
        return batches_from_rows(rows, len(indices), batch_rows)

    def _region_rows(self, payload, indices):
        """``(rowkey, values)`` of one split's region scan, ``values`` the
        columns at ``indices``."""
        quals = [_qualifier(i) for i in indices]
        for rowkey, cells in self._htable().scan(payload["start"],
                                                 payload["stop"]):
            yield rowkey, tuple(
                decode_value(cells[q]) if q in cells else None
                for q in quals)

    # ------------------------------------------------------------------
    # Statements: UPDATE/DELETE in place (what makes this handler
    # update-friendly) and HBase's own COMPACT.
    # ------------------------------------------------------------------
    def execute_update(self, session, edit):
        """One row edit as random writes: each map task matches its
        region's rows, then puts (or deletes) the matched ones in place."""
        from repro.hive.session import QueryResult

        verb = edit.verb
        schema = self.schema
        match = edit.batch_matcher(schema.names)
        columns = range(len(schema))
        coerce = schema.coerce_value
        targets = edit.targets
        batch_rows = session.batch_rows
        counter = verb + "d"

        def map_fn(split, ctx):
            rows = self._region_rows(split.payload, columns)
            writes = [(rowkey, {_qualifier(target):
                                encode_value(coerce(target, value))
                                for target, value in zip(targets, values)})
                      for rowkey, _, values in matched_rows(
                          match, rows, len(schema), batch_rows)]
            if writes:
                ctx.incr(counter, len(writes))
            htable = self._htable()
            for rowkey, cells in writes:
                if verb == "delete":
                    htable.delete_row(rowkey)
                else:
                    htable.put(rowkey, cells)
            return ()

        # In-place writes: HBase timestamp allocation must follow split
        # order, so this job never runs on the worker pool.
        job = Job(name="%s-hbase" % verb, splits=self.scan_splits(),
                  map_fn=map_fn, reduce_fn=None,
                  properties={"parallel": False})
        result = session.runner.run(job)
        sub = session._dml_subquery_jobs
        return QueryResult(
            sim_seconds=sum(j.sim_seconds for j in sub) + result.sim_seconds,
            jobs=sub + [result], affected=result.counters.get(counter, 0),
            plan="%s-hbase" % verb, detail={"plan": "hbase"})

    def execute_compact(self, session, major=True, partial=False,
                        max_files=None):
        """HBase's store compaction (PARTIAL is DualTable's)."""
        from repro.hive.session import QueryResult

        if partial:
            return super().execute_compact(session, partial=True)
        seconds = session._charged_parallel(
            lambda: self._htable().compact(major=major))
        return QueryResult(plan="compact-hbase", sim_seconds=seconds)

    # ------------------------------------------------------------------
    def data_bytes(self):
        return self._htable().store_bytes

    def row_count(self):
        return self._next_row_id
