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

from repro.mapreduce import InputSplit, Job
from repro.orc import OrcReader, write_orc
from repro.hive.catalog import register_handler
from repro.hive.session import QueryResult
from repro.hive.storage.base import StorageHandler
from repro.vector import batches_from_rows

_OP_UPDATE = "U"
_OP_DELETE = "D"


class AcidHandler(StorageHandler):
    """Base + delta tables with merge-on-read."""

    kind = "acid"
    supports_inplace_mutation = False

    def __init__(self, table, env):
        super().__init__(table, env)
        self.location = "/warehouse/%s" % table.name
        self.base_dir = self.location + "/base"
        props = table.properties
        self.rows_per_file = int(props.get("orc.rows_per_file", 50_000))
        self.stripe_rows = int(props.get("orc.stripe_rows", 5_000))
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
        if not self.fs.exists(self.base_dir):
            return []
        return [p for p in self.fs.list_files(self.base_dir)
                if p.endswith(".orc")]

    def delta_dirs(self):
        if not self.fs.exists(self.location):
            return []
        out = []
        for name in self.fs.listdir(self.location):
            if name.startswith("delta_"):
                out.append("%s/%s" % (self.location, name))
        return sorted(out, key=lambda p: int(p.rsplit("_", 1)[1]))

    def delta_files(self):
        files = []
        for directory in self.delta_dirs():
            files.extend(p for p in self.fs.list_files(directory)
                         if p.endswith(".orc"))
        return files

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------
    def insert_rows(self, rows, overwrite=False):
        rows = list(rows)
        if overwrite:
            self.drop()
            self.create()
            self._next_base_file = 0
            self._next_delta = 0
        self._write_base_files(rows)
        return len(rows)

    def _write_base_files(self, rows):
        orc_schema = self.schema.orc_schema()
        for start in range(0, max(len(rows), 1), self.rows_per_file):
            chunk = rows[start:start + self.rows_per_file]
            if not chunk and start > 0:
                break
            path = "%s/base-%05d.orc" % (self.base_dir,
                                         self._next_base_file)
            self.fs.write_file(path, write_orc(
                orc_schema, chunk, self.stripe_rows,
                {"acid.base_file": self._next_base_file}))
            self._next_base_file += 1

    def _write_delta(self, records):
        """Write one transaction's delta table: [(rid, op, row), ...]."""
        directory = "%s/delta_%06d" % (self.location, self._next_delta)
        self._next_delta += 1
        self.fs.mkdirs(directory)
        null_row = (None,) * len(self.schema)
        rows = [(rid, op) + (row if row is not None else null_row)
                for rid, op, row in records]
        self.fs.write_file(directory + "/delta.orc", write_orc(
            self._delta_schema(), rows, self.stripe_rows))
        return directory

    # ------------------------------------------------------------------
    # Reads: merge base with every delta.
    # ------------------------------------------------------------------
    def _base_rid_ranges(self):
        """Global row-id offset of each base file."""
        offsets = {}
        rid = 0
        for path in self.base_files():
            reader = OrcReader(self.fs, path)
            offsets[path] = rid
            rid += reader.num_rows
        return offsets

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
        offsets = self._base_rid_ranges()
        prune_safe = not self.delta_files()
        splits = []
        for path in self.base_files():
            reader = OrcReader(self.fs, path)
            splits.append(InputSplit(
                payload={"path": path, "rid_offset": offsets[path],
                         "projection": list(projection) if projection else None,
                         "ranges": (ranges or {}) if prune_safe else {}},
                size_bytes=reader.projected_bytes(
                    list(projection) if projection else None),
                label=path))
        return splits

    def read_split_batches(self, split, ctx, batch_rows=None):
        """Merge-on-read is row by row: batch the merged rows."""
        rows = (values for _, values
                in self.read_split_with_rids(split, ctx))
        width = len(split.payload["projection"] or self.schema)
        return batches_from_rows(rows, width, batch_rows)

    def read_split_with_rids(self, split, ctx):
        from repro.hive.pushdown import make_stripe_filter

        payload = split.payload
        reader = OrcReader(self.fs, payload["path"])
        stripe_filter = make_stripe_filter(
            [n for n, _ in reader.schema], payload["ranges"] or {})
        projection = payload["projection"]
        deltas = self._read_all_deltas(ctx)     # every delta, every split
        if projection is None:
            indices = list(range(len(self.schema)))
        else:
            indices = [self.schema.index_of(n) for n in projection]
        offset = payload["rid_offset"]
        for row_no, values in reader.rows(projection=projection,
                                          stripe_filter=stripe_filter):
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
        total = sum(self.fs.file_size(p) for p in self.base_files())
        total += sum(self.fs.file_size(p) for p in self.delta_files())
        return total

    def row_count(self):
        return sum(OrcReader(self.fs, p).num_rows
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
        match = edit.row_matcher(projection or self.schema.names)
        targets = edit.targets
        splits = self.scan_splits(projection=projection, ranges=edit.ranges)
        counter = verb + "d"

        def map_fn(split, ctx):
            for rid, values in self.read_split_with_rids(split, ctx):
                new_values = match(values)
                if new_values is None:
                    continue
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

    execute_delete = execute_update

    # ------------------------------------------------------------------
    # Compaction.
    # ------------------------------------------------------------------
    def execute_compact(self, session, major=True):
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

        def rewrite():
            for directory in self.delta_dirs():
                self.fs.delete(directory, recursive=True)
            self.fs.delete(self.base_dir, recursive=True)
            self.fs.mkdirs(self.base_dir)
            self._next_base_file = 0
            self._write_base_files([self.schema.coerce_row(r)
                                    for r in result.outputs])
        write_seconds = session._charged_parallel(rewrite)
        return QueryResult(plan="acid-major-compact",
                           sim_seconds=result.sim_seconds + write_seconds,
                           jobs=[result],
                           detail={"rows_written": len(result.outputs)})


register_handler("acid", AcidHandler)
