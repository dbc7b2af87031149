"""Hive-ACID-style base+delta storage (the paper's Section V-C comparator).

Hive's transactional tables keep unmodified data in a **base** and write
every transaction's changes into new **delta** files stored in the same
HDFS/ORC format.  Readers merge-sort the base with *all* delta files to
build the up-to-date view; because deltas are plain sequential tables,
every read scans every delta completely.  Updates write the *whole updated
record* into the delta even when one cell changed.

That is exactly the design the paper contrasts DualTable against:

* same storage format for base and deltas (no random-access reads),
* one delta per transaction (read cost grows with transaction count),
* always-EDIT behaviour (no runtime OVERWRITE/EDIT choice).

Minor compaction merges all deltas into one; major compaction folds them
into a new base.
"""

from repro.common.errors import AnalysisError
from repro.mapreduce import InputSplit, Job
from repro.orc import OrcMetadata, OrcReader, write_orc_file
from repro.orc.directory import (orc_paths, orc_properties, replace,
                                 write_files)
from repro.hive.catalog import register_handler
from repro.hive.pushdown import admit_stripes, span_rows
from repro.hive.rowedit import matched_rows
from repro.hive.session import QueryResult
from repro.hive.storage.base import StorageHandler
from repro.vector import batches_from_rows

_OP_UPDATE = "U"
_OP_DELETE = "D"


class AcidHandler(StorageHandler):
    """Base + delta tables with merge-on-read."""

    def __init__(self, table, env):
        super().__init__(table, env)
        self.location = "/warehouse/%s" % table.name
        self.base_dir = self.location + "/base"
        self.rows_per_file, self.stripe_rows = orc_properties(
            table.properties, AnalysisError)
        self._next_delta = 0
        self._next_base_file = 0

    @property
    def fs(self):
        return self.env.fs

    def _delta_schema(self):
        # __rid (global row id), __op, then every table column.
        return ([("__rid", "int"), ("__op", "string")]
                + self.schema.orc_schema())

    # ------------------------------------------------------------------
    def create(self):
        self.fs.mkdirs(self.base_dir)

    def drop(self):
        if self.fs.exists(self.location):
            self.fs.delete(self.location, recursive=True)

    def base_files(self):
        return orc_paths(self.fs, self.base_dir)

    def delta_dirs(self):
        if not self.fs.exists(self.location):
            return []
        out = []
        for name in self.fs.listdir(self.location):
            if name.startswith("delta_"):
                out.append("%s/%s" % (self.location, name))
        return sorted(out, key=lambda p: int(p.rsplit("_", 1)[1]))

    def delta_files(self):
        return [p for directory in self.delta_dirs()
                for p in orc_paths(self.fs, directory)]

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------
    def insert_rows(self, rows, overwrite=False):
        rows = list(rows)
        if overwrite:
            self._replace_base(rows)
            self._next_delta = 0
        else:
            self._next_base_file += len(self._write_base_files(
                self.base_dir, rows, self._next_base_file))

    def _write_base_files(self, directory, rows, first):
        """Base files ``first``, ``first + 1``, ... holding ``rows``."""
        return write_files(
            self.fs, directory, self.schema.orc_schema(), rows,
            self.rows_per_file, self.stripe_rows,
            lambda i: ("base-%05d.orc" % (first + i),
                       {"acid.base_file": first + i}))

    def _replace_base(self, rows):
        """Make ``rows`` the whole table — a new base, no deltas — with
        one crash-atomic replace of the table's directory."""
        self._next_base_file = len(replace(
            self.fs, self.location, lambda staging: self._write_base_files(
                staging + "/base", rows, 0)))

    def _write_delta(self, records):
        """Write one transaction's delta table: [(rid, op, row), ...]."""
        directory = "%s/delta_%06d" % (self.location, self._next_delta)
        self._next_delta += 1
        null_row = (None,) * len(self.schema)
        rows = [(rid, op) + (row if row is not None else null_row)
                for rid, op, row in records]
        write_orc_file(self.fs, directory + "/delta.orc",
                       self._delta_schema(), rows, self.stripe_rows)

    # ------------------------------------------------------------------
    # Reads: merge base with every delta.
    # ------------------------------------------------------------------
    def _read_all_deltas(self, ctx=None):
        """Scan every delta fully; returns {rid: (op, row_or_None)}."""
        merged = {}
        for path in self.delta_files():
            reader = OrcReader(self.fs, path)
            for _, values in reader.rows():
                rid, op = values[0], values[1]
                row = None if op == _OP_DELETE else tuple(values[2:])
                merged[rid] = (op, row)     # later deltas win
        return merged

    def scan_splits(self, projection=None, ranges=None):
        """One split per base file, its ``rid_offset`` the global row id
        of its first row; each base file's footer is opened once."""
        projection = list(projection) if projection else None
        deltas = self.delta_files()
        # Every task reads every delta whole.
        delta_bytes = sum(self.fs.file_size(path) for path in deltas)
        # Statistics bound the merged rows only while no delta exists.
        ranges = {} if deltas else ranges
        splits = []
        rid = 0
        for path in self.base_files():
            meta = OrcMetadata(self.fs, path)
            row_spans, size, read_bytes = admit_stripes(meta, projection,
                                                        ranges)
            splits.append(InputSplit(
                payload={"path": path, "rid_offset": rid,
                         "projection": projection, "row_spans": row_spans},
                size_bytes=size, label=path,
                read_bytes=meta.footer_bytes + read_bytes + delta_bytes,
                rows=span_rows(row_spans)))
            rid += meta.num_rows
        return splits

    def read_split_batches(self, split, ctx, batch_rows=None):
        """Merge-on-read is row by row: batch the merged rows."""
        rows = (values for _, values
                in self.read_split_with_rids(split, ctx))
        width = len(split.payload["projection"] or self.schema)
        return batches_from_rows(rows, width, batch_rows)

    def read_split_with_rids(self, split, ctx):
        payload = split.payload
        reader = OrcReader(self.fs, payload["path"])
        projection = payload["projection"]
        deltas = self._read_all_deltas(ctx)     # every delta, every split
        if projection is None:
            indices = list(range(len(self.schema)))
        else:
            indices = [self.schema.index_of(n) for n in projection]
        offset = payload["rid_offset"]
        for row_no, values in reader.rows(projection=projection,
                                          row_spans=payload["row_spans"]):
            rid = offset + row_no
            delta = deltas.get(rid)
            if delta is None:
                yield rid, values
                continue
            op, full_row = delta
            if op == _OP_DELETE:
                continue
            yield rid, tuple(full_row[i] for i in indices)

    # ------------------------------------------------------------------
    # Statistics.
    # ------------------------------------------------------------------
    def data_bytes(self):
        return sum(self.fs.file_size(p)
                   for p in orc_paths(self.fs, self.location))

    def row_count(self):
        return sum(OrcMetadata(self.fs, p).num_rows
                   for p in self.base_files())

    # ------------------------------------------------------------------
    # UPDATE / DELETE: always write a new delta (no cost model).
    # ------------------------------------------------------------------
    def execute_update(self, session, edit):
        """One row edit (:mod:`repro.hive.rowedit`) — an UPDATE, a DELETE
        or MERGE's matched arm — as one new delta table."""
        verb = edit.verb
        update = verb == "update"
        # The whole updated record goes into the delta, so an update's
        # scan reads every column; a delete reads what its matcher does.
        projection = None if update else edit.projection(self.schema)
        names = projection or self.schema.names
        match = edit.batch_matcher(names)
        targets = edit.targets
        splits = self.scan_splits(projection=projection, ranges=edit.ranges)
        batch_rows = session.batch_rows
        counter = verb + "d"

        def map_fn(split, ctx):
            for rid, values, new_values in matched_rows(
                    match, self.read_split_with_rids(split, ctx), len(names),
                    batch_rows):
                ctx.incr(counter)
                if not update:
                    yield (rid, _OP_DELETE, None)
                    continue
                row = list(values)
                for target, value in zip(targets, new_values):
                    row[target] = value
                yield (rid, _OP_UPDATE, tuple(row))

        job = Job(name="acid-%s" % verb, splits=splits, map_fn=map_fn,
                  reduce_fn=None)
        result = session.runner.run(job)
        coerce = self.schema.coerce_row
        records = [(rid, op, row if row is None else coerce(row))
                   for rid, op, row in result.outputs]
        write_seconds = session._charged_parallel(
            lambda: self._write_delta(records))
        sub = session._dml_subquery_jobs
        return QueryResult(
            sim_seconds=(sum(j.sim_seconds for j in sub) + result.sim_seconds
                         + write_seconds),
            jobs=sub + [result], affected=result.counters.get(counter, 0),
            plan="acid-%s-delta" % verb,
            detail={"plan": "delta", "delta_count": self._next_delta})

    @property
    def dml_plan(self):
        return ("append a new delta table (currently %d delta(s))"
                % len(self.delta_dirs()))

    # ------------------------------------------------------------------
    # Compaction.
    # ------------------------------------------------------------------
    def execute_compact(self, session, major=True, partial=False,
                        max_files=None):
        """MAJOR folds the deltas into a new base, MINOR merges them into
        one (PARTIAL is DualTable's)."""
        if partial:
            return super().execute_compact(session, partial=True)
        if major:
            return self._major_compact(session)
        return self._minor_compact(session)

    def _minor_compact(self, session):
        """Merge all delta tables into a single delta (keeps the base)."""
        dirs = self.delta_dirs()
        if len(dirs) <= 1:
            return QueryResult(plan="acid-minor-noop")
        def merge():
            merged = self._read_all_deltas()
            for directory in dirs:
                self.fs.delete(directory, recursive=True)
            records = [(rid, op, row)
                       for rid, (op, row) in sorted(merged.items())]
            self._write_delta(records)
        seconds = session._charged_parallel(merge)
        return QueryResult(plan="acid-minor-compact", sim_seconds=seconds,
                           detail={"merged_deltas": len(dirs)})

    def _major_compact(self, session):
        """Fold all deltas into a new base."""
        if not self.delta_files():
            return QueryResult(plan="acid-major-noop")
        splits = self.scan_splits(projection=None)

        def map_fn(split, ctx):
            for _, values in self.read_split_with_rids(split, ctx):
                yield values

        job = Job(name="acid-major-compact", splits=splits, map_fn=map_fn,
                  reduce_fn=None)
        result = session.runner.run(job)

        write_seconds = session._charged_parallel(
            lambda: self._replace_base([self.schema.coerce_row(r)
                                        for r in result.outputs]))
        return QueryResult(plan="acid-major-compact",
                           sim_seconds=result.sim_seconds + write_seconds,
                           jobs=[result],
                           detail={"rows_written": len(result.outputs)})


register_handler("acid", AcidHandler)
