"""Partitioned ORC-on-HDFS storage (Hive-style directory partitioning).

Hive's native answer to bulk mutation is partition-level granularity: the
paper notes Hive supports "complete overwrite ... and delete (DROP) at
table or partition level".  This handler implements that layout:

* ``PARTITIONED BY (p type, ...)`` columns are *not* stored in the data
  files — they live in the directory names (``/warehouse/t/p=v/...``);
* INSERT performs dynamic partitioning (rows are routed by their
  partition-column values);
* scans prune whole partitions using the predicate's column ranges before
  any file is touched;
* UPDATE/DELETE lowering rewrites **only the affected partitions**, which
  is exactly the Hive-side optimization DualTable competes against when
  modifications align with partition boundaries.
"""

from repro.common.errors import AnalysisError, HiveError
from repro.mapreduce import InputSplit
from repro.orc import OrcReader, write_orc_file
from repro.hive.pushdown import make_stripe_filter
from repro.hive.storage.base import StorageHandler

DEFAULT_ROWS_PER_FILE = 50_000
DEFAULT_STRIPE_ROWS = 5_000


def _encode_value(value):
    if value is None:
        return "__NULL__"
    return str(value).replace("/", "%2F").replace("=", "%3D")


def _decode_value(text, column):
    if text == "__NULL__":
        return None
    text = text.replace("%2F", "/").replace("%3D", "=")
    kind = column.physical_kind
    if kind == "int":
        return int(text)
    if kind == "double":
        return float(text)
    if kind == "boolean":
        return text == "True"
    return text


class PartitionedOrcHandler(StorageHandler):
    """Directory-partitioned ORC storage (the Hive partitioning model)."""

    kind = "orc-partitioned"
    supports_inplace_mutation = False

    def __init__(self, table, env):
        super().__init__(table, env)
        self.location = "/warehouse/%s" % table.name
        props = table.properties
        self.rows_per_file = int(props.get("orc.rows_per_file",
                                           DEFAULT_ROWS_PER_FILE))
        self.stripe_rows = int(props.get("orc.stripe_rows",
                                         DEFAULT_STRIPE_ROWS))
        names = props.get("partition.columns")
        if not names:
            raise AnalysisError(
                "orc-partitioned tables need PARTITIONED BY columns")
        self.partition_columns = [n.strip().lower()
                                  for n in str(names).split(",")]
        all_names = [c.name.lower() for c in table.schema]
        if all_names[-len(self.partition_columns):] \
                != self.partition_columns:
            raise AnalysisError(
                "partition columns must be the trailing schema columns")
        self._n_data = len(table.schema) - len(self.partition_columns)

    @property
    def fs(self):
        return self.env.fs

    def _data_schema(self):
        return self.schema.columns[:self._n_data]

    def _partition_schema(self):
        return self.schema.columns[self._n_data:]

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
    def _partition_dir(self, key):
        parts = ["%s=%s" % (name, _encode_value(value))
                 for name, value in zip(self.partition_columns, key)]
        return "%s/%s" % (self.location, "/".join(parts))

    def partitions(self):
        """Sorted list of (partition_key_tuple, directory)."""
        found = []
        self._walk(self.location, [], found)
        return sorted(found)

    def _walk(self, directory, key_so_far, found):
        depth = len(key_so_far)
        if depth == len(self.partition_columns):
            found.append((tuple(key_so_far), directory))
            return
        if not self.fs.exists(directory):
            return
        column = self._partition_schema()[depth]
        prefix = self.partition_columns[depth] + "="
        for child in self.fs.listdir(directory):
            if not child.startswith(prefix):
                continue
            value = _decode_value(child[len(prefix):], column)
            self._walk("%s/%s" % (directory, child),
                       key_so_far + [value], found)

    def _partition_files(self, directory):
        return [p for p in self.fs.list_files(directory)
                if p.endswith(".orc")]

    def partition_matches(self, key, ranges):
        """May any row in this partition satisfy the predicate ranges?"""
        for name, value in zip(self.partition_columns, key):
            col_range = ranges.get(name) if ranges else None
            if col_range is not None \
                    and not col_range.may_overlap(value, value):
                return False
        return True

    def affected_partitions(self, ranges):
        return [key for key, _ in self.partitions()
                if self.partition_matches(key, ranges)]

    # ------------------------------------------------------------------
    # Writes (dynamic partitioning).
    # ------------------------------------------------------------------
    def insert_rows(self, rows, overwrite=False):
        rows = list(rows)
        if overwrite:
            self.drop()
            self.create()
        grouped = self._group_rows(rows)
        for key, data_rows in grouped.items():
            self._write_partition(key, data_rows, append=True)
        return len(rows)

    def _group_rows(self, rows):
        grouped = {}
        for row in rows:
            key = tuple(row[self._n_data:])
            grouped.setdefault(key, []).append(tuple(row[:self._n_data]))
        return grouped

    def _write_partition(self, key, data_rows, append):
        directory = self._partition_dir(key)
        self.fs.mkdirs(directory)
        start = len(self._partition_files(directory)) if append else 0
        orc_schema = [(c.name, c.physical_kind)
                      for c in self._data_schema()]
        for chunk_no, begin in enumerate(
                range(0, max(len(data_rows), 1), self.rows_per_file)):
            chunk = data_rows[begin:begin + self.rows_per_file]
            if not chunk and chunk_no > 0:
                break
            path = "%s/part-%05d.orc" % (directory, start + chunk_no)
            write_orc_file(self.fs, path, orc_schema, chunk,
                           self.stripe_rows)

    def replace_partitions(self, rows, partition_keys):
        """Rewrite exactly ``partition_keys`` with the given rows.

        Partitions not listed are untouched; listed partitions whose rows
        all disappeared are removed (the DELETE-everything-in-partition
        case).
        """
        grouped = self._group_rows(rows)
        unknown = set(grouped) - set(partition_keys)
        if unknown:
            raise HiveError(
                "rows target partitions outside the rewrite scope: %r"
                % sorted(unknown))
        for key in partition_keys:
            directory = self._partition_dir(key)
            if self.fs.exists(directory):
                self.fs.delete(directory, recursive=True)
            data_rows = grouped.get(key)
            if data_rows:
                self._write_partition(key, data_rows, append=False)

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
        data_names = {c.name.lower() for c in self._data_schema()}
        if projection is None:
            data_projection = None
        else:
            data_projection = [n for n in projection
                               if n.lower() in data_names]
        splits = []
        for key, directory in self.partitions():
            if not self.partition_matches(key, ranges or {}):
                continue
            for path in self._partition_files(directory):
                reader = OrcReader(self.fs, path)
                probe = data_projection
                if probe is not None and not probe:
                    probe = [self._data_schema()[0].name]
                splits.append(InputSplit(
                    payload={"path": path, "projection": projection,
                             "data_projection": data_projection,
                             "ranges": ranges or {}, "key": key},
                    size_bytes=reader.projected_bytes(probe),
                    label=path))
        return splits

    def read_split_batches(self, split, ctx, batch_rows=None):
        """Columnar read; partition columns become constant columns."""
        from repro.vector import ColumnBatch

        payload = split.payload
        reader = OrcReader(self.fs, payload["path"])
        ranges = {name: r for name, r in (payload["ranges"] or {}).items()
                  if name not in self.partition_columns}
        stripe_filter = make_stripe_filter(
            [n for n, _ in reader.schema], ranges)
        projection = payload["projection"]
        key = payload["key"]
        part_values = dict(zip(self.partition_columns, key))
        if projection is None:
            for batch in reader.batches(stripe_filter=stripe_filter,
                                        batch_rows=batch_rows):
                columns = list(batch.columns) + [[value] * batch.length
                                                 for value in key]
                yield ColumnBatch(columns, batch.length,
                                  row_base=batch.row_base)
            return
        data_projection = payload["data_projection"]
        # Even a partition-columns-only projection needs one stored
        # column to drive row multiplicity.
        orc_projection = data_projection or [self._data_schema()[0].name]
        positions = []
        for name in projection:
            lname = name.lower()
            if lname in part_values:
                positions.append(("part", part_values[lname]))
            else:
                positions.append(("data", orc_projection.index(name)))
        for batch in reader.batches(projection=orc_projection,
                                    stripe_filter=stripe_filter,
                                    batch_rows=batch_rows):
            columns = [batch.columns[idx] if kind == "data"
                       else [idx] * batch.length
                       for kind, idx in positions]
            yield ColumnBatch(columns, batch.length, row_base=batch.row_base)

    # ------------------------------------------------------------------
    # Statistics.
    # ------------------------------------------------------------------
    def data_bytes(self):
        return sum(self.fs.file_size(p)
                   for _, directory in self.partitions()
                   for p in self._partition_files(directory))

    def row_count(self):
        total = 0
        for _, directory in self.partitions():
            for path in self._partition_files(directory):
                total += OrcReader(self.fs, path).num_rows
        return total
