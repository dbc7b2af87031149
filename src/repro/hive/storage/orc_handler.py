"""Plain Hive storage: a directory of ORC files on HDFS.

This is the baseline "Hive(HDFS)" system of the paper's evaluation.  It
reads fast (columnar projection + stripe pruning) but supports no row
mutation: the session lowers UPDATE/DELETE to a full INSERT OVERWRITE
(Listing 2 in the paper).
"""

from repro.mapreduce import InputSplit
from repro.orc import OrcReader, write_orc_file
from repro.hive.pushdown import make_stripe_filter
from repro.hive.storage.base import StorageHandler

DEFAULT_ROWS_PER_FILE = 50_000
DEFAULT_STRIPE_ROWS = 5_000


class OrcHdfsHandler(StorageHandler):
    """ORC-on-HDFS table storage."""

    kind = "orc"
    supports_inplace_mutation = False

    def __init__(self, table, env):
        super().__init__(table, env)
        self.location = "/warehouse/%s" % table.name
        props = table.properties
        self.rows_per_file = int(props.get("orc.rows_per_file",
                                           DEFAULT_ROWS_PER_FILE))
        self.stripe_rows = int(props.get("orc.stripe_rows",
                                         DEFAULT_STRIPE_ROWS))

    @property
    def fs(self):
        return self.env.fs

    # ------------------------------------------------------------------
    def create(self):
        self.fs.mkdirs(self.location)

    def drop(self):
        if self.fs.exists(self.location):
            self.fs.delete(self.location, recursive=True)

    def file_paths(self):
        if not self.fs.exists(self.location):
            return []
        return [p for p in self.fs.list_files(self.location)
                if p.endswith(".orc")]

    # ------------------------------------------------------------------
    def insert_rows(self, rows, overwrite=False):
        rows = list(rows)
        if overwrite:
            target = self.location + ".__tmp__"
            if self.fs.exists(target):
                self.fs.delete(target, recursive=True)
            self.fs.mkdirs(target)
            start_index = 0
        else:
            target = self.location
            start_index = len(self.file_paths())
        written = self._write_files(target, rows, start_index)
        if overwrite:
            self.drop()
            self.fs.rename(target, self.location)
        return written

    def _write_files(self, directory, rows, start_index,
                     metadata_fn=None):
        orc_schema = self.schema.orc_schema()
        paths = []
        for chunk_no, start in enumerate(range(0, max(len(rows), 1),
                                               self.rows_per_file)):
            chunk = rows[start:start + self.rows_per_file]
            if not chunk and chunk_no > 0:
                break
            index = start_index + chunk_no
            metadata = metadata_fn(index) if metadata_fn else {}
            path = "%s/part-%05d.orc" % (directory, index)
            write_orc_file(self.fs, path, orc_schema, chunk,
                           self.stripe_rows, metadata)
            paths.append(path)
        return paths

    # ------------------------------------------------------------------
    def scan_splits(self, projection=None, ranges=None):
        splits = []
        for path in self.file_paths():
            reader = self._reader(path)
            nbytes = reader.projected_bytes(
                list(projection) if projection else None)
            splits.append(InputSplit(
                payload={"path": path,
                         "projection": list(projection) if projection else None,
                         "ranges": ranges or {}},
                size_bytes=nbytes,
                label=path))
        return splits

    def read_split_batches(self, split, ctx, batch_rows=None):
        """Native columnar read: decoded stripe columns, zero-copy."""
        payload = split.payload
        reader = self._reader(payload["path"])
        stripe_filter = make_stripe_filter(
            [n for n, _ in reader.schema], payload["ranges"] or {})
        yield from reader.batches(projection=payload["projection"],
                                  stripe_filter=stripe_filter,
                                  batch_rows=batch_rows)

    def _reader(self, path):
        return OrcReader(self.fs, path)

    # ------------------------------------------------------------------
    def data_bytes(self):
        return sum(self.fs.file_size(p) for p in self.file_paths())

    def row_count(self):
        total = 0
        for path in self.file_paths():
            total += self._reader(path).num_rows
        return total

    def readers(self):
        """ORC readers over every file (used for stats estimation)."""
        return [self._reader(p) for p in self.file_paths()]
