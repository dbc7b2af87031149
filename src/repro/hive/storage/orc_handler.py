"""Plain Hive storage: a directory of ORC files on HDFS, partitioned or not.

This is the baseline "Hive(HDFS)" system of the paper's evaluation: fast
reads (columnar projection + stripe pruning), no row mutation.  The
session lowers UPDATE/DELETE to an INSERT OVERWRITE (Listing 2 in the
paper) of the table, or — Hive overwrites "at table or partition level"
— of only the partitions the edit can touch.

One handler serves both storage names.  ``PARTITIONED BY (p type, ...)``
(``orc-partitioned``) keeps the trailing partition columns in directory
names (``/warehouse/t/p=v/...``), not in the files: INSERT routes rows by
them and scans prune whole partitions before any file is touched.  An
unpartitioned table (``orc``) is the one partition ``()`` at its
location, whose rows and stripe batches pass through uncopied.  Files
are written and replaced through :mod:`repro.orc.directory`.
"""

from repro.common.errors import AnalysisError, HiveError
from repro.mapreduce import InputSplit
from repro.orc import OrcReader
from repro.orc.directory import (orc_paths, orc_properties, replace,
                                 write_files)
from repro.hive.pushdown import make_stripe_filter
from repro.hive.storage.base import StorageHandler
from repro.vector import ColumnBatch


def _encode_value(value):
    if value is None:
        return "__NULL__"
    return str(value).replace("/", "%2F").replace("=", "%3D")


def _decode_value(text, column):
    if text == "__NULL__":
        return None
    text = text.replace("%2F", "/").replace("%3D", "=")
    if column.physical_kind == "boolean":
        return text == "True"
    return column.python_type(text)


class OrcHdfsHandler(StorageHandler):
    """ORC-on-HDFS table storage, optionally directory-partitioned."""

    kind = "orc"

    def __init__(self, table, env):
        super().__init__(table, env)
        self.location = "/warehouse/%s" % table.name
        props = table.properties
        self.rows_per_file, self.stripe_rows = orc_properties(
            props, AnalysisError)
        self.partition_columns = []
        if table.storage == "orc-partitioned":
            names = props.get("partition.columns")
            if not names:
                raise AnalysisError(
                    "orc-partitioned tables need PARTITIONED BY columns")
            self.partition_columns = [n.strip().lower()
                                      for n in str(names).split(",")]
        self._n_data = len(table.schema) - len(self.partition_columns)
        if [c.name.lower() for c in table.schema][self._n_data:] \
                != self.partition_columns:
            raise AnalysisError(
                "partition columns must be the trailing schema columns")

    @property
    def fs(self):
        return self.env.fs

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def create(self):
        self.fs.mkdirs(self.location)

    def drop(self):
        if self.fs.exists(self.location):
            self.fs.delete(self.location, recursive=True)

    # ------------------------------------------------------------------
    # Partition directory layout.
    # ------------------------------------------------------------------
    def _partition_part(self, key):
        """``key``'s directory relative to the table's (``""`` for ``()``)."""
        return "/".join("%s=%s" % (name, _encode_value(value))
                        for name, value in zip(self.partition_columns, key))

    def _partition_dir(self, key, root=None):
        part, root = self._partition_part(key), root or self.location
        return "%s/%s" % (root, part) if part else root

    def partitions(self):
        """Sorted list of (partition_key_tuple, directory)."""
        found = []
        self._walk(self.location, [], found)
        return sorted(found)

    def _walk(self, directory, key_so_far, found):
        if not self.fs.exists(directory):
            return
        depth = len(key_so_far)
        if depth == len(self.partition_columns):
            found.append((tuple(key_so_far), directory))
            return
        column = self.schema.columns[self._n_data + depth]
        prefix = self.partition_columns[depth] + "="
        for child in self.fs.listdir(directory):
            if child.startswith(prefix):
                value = _decode_value(child[len(prefix):], column)
                self._walk("%s/%s" % (directory, child),
                           key_so_far + [value], found)

    def _partition_files(self, directory):
        return orc_paths(self.fs, directory)

    def partition_matches(self, key, ranges):
        """May any row in this partition satisfy the predicate ranges?"""
        ranges = ranges or {}
        return all(ranges.get(name) is None
                   or ranges[name].may_overlap(value, value)
                   for name, value in zip(self.partition_columns, key))

    def affected_partitions(self, ranges):
        return [key for key, _ in self.partitions()
                if self.partition_matches(key, ranges)]

    # ------------------------------------------------------------------
    # Writes (dynamic partitioning).
    # ------------------------------------------------------------------
    def insert_rows(self, rows, overwrite=False):
        grouped = self._group_rows(rows)

        def write(root, append=False):
            for key, data_rows in grouped.items():
                self._write_partition(key, data_rows, root, append)
        if overwrite:
            replace(self.fs, self.location, write)
        else:
            write(self.location, append=True)

    def _group_rows(self, rows):
        """``{partition key: data rows}``.  Without partition columns it
        is ``{(): rows}``, even for no rows: the rows themselves, not
        copies (the writer's file memo keys on their marshalled bytes)."""
        if not self.partition_columns:
            return {(): list(rows)}
        grouped = {}
        for row in rows:
            key = tuple(row[self._n_data:])
            grouped.setdefault(key, []).append(tuple(row[:self._n_data]))
        return grouped

    def _write_partition(self, key, data_rows, root, append=False):
        directory = self._partition_dir(key, root)
        start = len(self._partition_files(directory)) if append else 0
        orc_schema = [(c.name, c.physical_kind)
                      for c in self.schema.columns[:self._n_data]]
        write_files(self.fs, directory, orc_schema, data_rows,
                    self.rows_per_file, self.stripe_rows,
                    lambda i: ("part-%05d.orc" % (start + i), {}))

    def replace_partitions(self, rows, partition_keys):
        """Rewrite exactly ``partition_keys`` with ``rows``, in one
        crash-atomic replace.  Other partitions are untouched; a listed
        one left with no rows is removed."""
        grouped = self._group_rows(rows)
        unknown = set(grouped) - set(partition_keys)
        if unknown:
            raise HiveError(
                "rows target partitions outside the rewrite scope: %r"
                % sorted(unknown))

        def write(staging):
            for key in partition_keys:
                if key in grouped:
                    self._write_partition(key, grouped[key], staging)
        replace(self.fs, self.location, write,
                parts=[self._partition_part(key) for key in partition_keys])

    def drop_partition(self, key):
        directory = self._partition_dir(key)
        if not self.fs.exists(directory):
            return False
        self.fs.delete(directory, recursive=True)
        return True

    # ------------------------------------------------------------------
    # Reads with partition pruning.
    # ------------------------------------------------------------------
    def scan_splits(self, projection=None, ranges=None):
        projection = list(projection) if projection else None
        data_projection = self._data_projection(projection)
        ranges = ranges or {}
        splits = []
        for key, directory in self.partitions():
            if not self.partition_matches(key, ranges):
                continue
            for path in self._partition_files(directory):
                reader = OrcReader(self.fs, path)
                splits.append(InputSplit(
                    payload={"path": path, "projection": projection,
                             "data_projection": data_projection,
                             "ranges": ranges, "key": key},
                    size_bytes=reader.projected_bytes(data_projection),
                    label=path))
        return splits

    def _data_projection(self, projection):
        """The stored columns a read of ``projection`` decodes.  Even a
        partition-columns-only projection needs one stored column to
        drive row multiplicity."""
        if projection is None or not self.partition_columns:
            return projection
        data = [name for name in projection
                if name.lower() not in self.partition_columns]
        return data or [self.schema.columns[0].name]

    def read_split_batches(self, split, ctx, batch_rows=None):
        """Decoded stripe columns, zero-copy; partition columns become
        constant columns."""
        payload = split.payload
        reader = OrcReader(self.fs, payload["path"])
        ranges = {name: r for name, r in payload["ranges"].items()
                  if name not in self.partition_columns}
        data_projection = payload["data_projection"]
        batches = reader.batches(
            projection=data_projection, batch_rows=batch_rows,
            stripe_filter=make_stripe_filter([n for n, _ in reader.schema],
                                             ranges))
        if not self.partition_columns:
            yield from batches
            return
        part_values = dict(zip(self.partition_columns, payload["key"]))
        stored = data_projection or self.schema.names[:self._n_data]
        positions = [(False, part_values[name.lower()])
                     if name.lower() in part_values
                     else (True, stored.index(name))
                     for name in payload["projection"] or self.schema.names]
        for batch in batches:
            columns = [batch.columns[idx] if data else [idx] * batch.length
                       for data, idx in positions]
            yield ColumnBatch(columns, batch.length, row_base=batch.row_base)

    # ------------------------------------------------------------------
    # Statistics.
    # ------------------------------------------------------------------
    def data_bytes(self):
        return sum(self.fs.file_size(p)
                   for p in orc_paths(self.fs, self.location))

    def row_count(self):
        return sum(OrcReader(self.fs, p).num_rows
                   for p in orc_paths(self.fs, self.location))
