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

from repro.orc import OrcMetadata, OrcReader
from repro.orc.directory import orc_paths, replace, write_files

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
        return orc_paths(self.fs, self.location)

    # ------------------------------------------------------------------
    def write_rows(self, rows, directory=None):
        """Write rows into new master files; returns created paths.

        A keyed table's rows are stably sorted by the key (NULL keys
        last) before they are cut into files, so row numbers — and with
        them record IDs — follow key order.
        """
        rows = list(rows)
        if self.key_index is not None:
            key = itemgetter(self.key_index)
            try:
                rows = sorted(rows, key=key)
            except TypeError:       # a NULL key was compared
                rows = sorted(rows, key=lambda row: (key(row) is None,
                                                     key(row)))

        def name(_):
            file_id = self.metadata.next_file_id(self.table_name)
            return "part-%08d.orc" % file_id, {FILE_ID_KEY: file_id}
        return write_files(self.fs, directory or self.location,
                           self.schema.orc_schema(), rows,
                           self.rows_per_file, self.stripe_rows, name)

    def replace_with(self, rows):
        """Replace the master with freshly written files, crash-atomically
        (:func:`repro.orc.directory.replace`): at every instant the old
        or the new master is fully present under some path."""
        replace(self.fs, self.location,
                lambda staging: self.write_rows(rows, directory=staging))

    # ------------------------------------------------------------------
    def reader(self, path):
        """A task's reader of one master file: charges what it reads."""
        return OrcReader(self.fs, path)

    def meta(self, path):
        """A planner's view of one master file (:class:`OrcMetadata`):
        footer and cached columns, charged nothing."""
        return OrcMetadata(self.fs, path)

    def readers(self):
        return [self.meta(p) for p in self.file_paths()]

    def file_id_of(self, path):
        return int(self.meta(path).metadata[FILE_ID_KEY])

    def data_bytes(self):
        return sum(self.fs.file_size(p) for p in self.file_paths())

    def row_count(self):
        return sum(r.num_rows for r in self.readers())
