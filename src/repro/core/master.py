"""The Master Table: ORC files on HDFS carrying DualTable file IDs.

Every file stores its unique file ID (allocated from the system metadata
table) in the ORC user metadata; record IDs are generated on read by
concatenating that ID with the ORC row number — zero storage cost, exactly
as in Section V-B of the paper.

A table with a PRIMARY KEY writes every master file in key order: the
one place rows become files (:meth:`MasterTable.write_rows`) sorts them
first, so each file's keys run in order and the keyed access path's
row-group index (:mod:`repro.core.lookup`) has narrow ranges to prune by.
"""

from operator import itemgetter

from repro.orc import OrcReader, write_orc_file

FILE_ID_KEY = "dualtable.file_id"


class MasterTable:
    """Directory of ORC files with per-file IDs."""

    def __init__(self, fs, location, schema, metadata_manager, table_name,
                 rows_per_file=50_000, stripe_rows=5_000, key_index=None):
        self.fs = fs
        self.location = location
        self.schema = schema          # TableSchema
        self.metadata = metadata_manager
        self.table_name = table_name
        self.rows_per_file = rows_per_file
        self.stripe_rows = stripe_rows
        #: the PRIMARY KEY's column index (files are written in its
        #: order), or None: rows keep the order they came in.
        self.key_index = key_index

    def create(self):
        self.fs.mkdirs(self.location)

    def file_paths(self):
        if not self.fs.exists(self.location):
            return []
        return [p for p in self.fs.list_files(self.location)
                if p.endswith(".orc")]

    # ------------------------------------------------------------------
    def write_rows(self, rows, directory=None):
        """Write rows into new master files; returns created paths.

        A keyed table's rows are stably sorted by the key (NULL keys
        last) before they are cut into files, so row numbers — and with
        them record IDs — follow key order.
        """
        directory = directory or self.location
        rows = list(rows)
        if self.key_index is not None:
            key = itemgetter(self.key_index)
            try:
                rows = sorted(rows, key=key)
            except TypeError:       # a NULL key was compared
                rows = sorted(rows, key=lambda row: (key(row) is None,
                                                     key(row)))
        orc_schema = self.schema.orc_schema()
        paths = []
        chunks = [rows[i:i + self.rows_per_file]
                  for i in range(0, len(rows), self.rows_per_file)] or [[]]
        for chunk in chunks:
            file_id = self.metadata.next_file_id(self.table_name)
            path = "%s/part-%08d.orc" % (directory, file_id)
            write_orc_file(self.fs, path, orc_schema, chunk,
                           self.stripe_rows, {FILE_ID_KEY: file_id})
            paths.append(path)
        return paths

    def replace_with(self, rows):
        """Atomically replace the master with freshly written files.

        The old directory is renamed aside before the new one takes its
        place (instead of deleted first), so at every instant either the
        old or the new master is fully present under some path.
        """
        tmp = self.location + ".__tmp__"
        old = self.location + ".__replaced__"
        for leftover in (tmp, old):
            if self.fs.exists(leftover):
                self.fs.delete(leftover, recursive=True)
        self.fs.mkdirs(tmp)
        self.write_rows(rows, directory=tmp)
        if self.fs.exists(self.location):
            self.fs.rename(self.location, old)
        self.fs.rename(tmp, self.location)
        if self.fs.exists(old):
            self.fs.delete(old, recursive=True)

    # ------------------------------------------------------------------
    def reader(self, path):
        return OrcReader(self.fs, path)

    def file_meta(self, path):
        """``(file_id, num_rows)`` without charging the footer read.

        Control-plane metadata, like ``fs.file_size``: real warehouses
        keep per-file stats in the metastore, so planning (victim
        selection, compaction policy) consults them for free.
        """
        reader = OrcReader(self.fs.read_file_silent(path))
        return int(reader.metadata[FILE_ID_KEY]), reader.num_rows

    def readers(self):
        return [self.reader(p) for p in self.file_paths()]

    def file_id_of(self, path):
        return int(self.reader(path).metadata[FILE_ID_KEY])

    def data_bytes(self):
        return sum(self.fs.file_size(p) for p in self.file_paths())

    def row_count(self):
        return sum(r.num_rows for r in self.readers())
