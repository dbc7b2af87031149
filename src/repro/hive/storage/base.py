"""Storage handler interface (Hive's InputFormat/OutputFormat/SerDe seam).

A handler owns a table's bytes and knows how to:

* create/drop the physical storage,
* bulk-insert rows (append or overwrite),
* produce :class:`~repro.mapreduce.job.InputSplit`s for a scan with
  projection + predicate-range pushdown, and
* read one split back as column batches.

DualTable plugs into Hive through exactly this seam, mirroring the paper's
custom InputFormat/OutputFormat/SerDe implementation (Section V-A).
"""

from abc import ABC, abstractmethod


class StorageHandler(ABC):
    """Per-table storage driver."""

    kind = "abstract"

    #: True when UPDATE/DELETE can be executed as in-place random writes
    #: (HBase-backed tables); False means the session must fall back to
    #: INSERT OVERWRITE semantics (plain ORC) or a handler-specific
    #: mechanism (DualTable, ACID).
    supports_inplace_mutation = False

    def __init__(self, table, env):
        self.table = table      # TableDef (not the catalog entry)
        self.env = env          # HiveEnv (cluster, fs, hbase service)

    @property
    def schema(self):
        return self.table.schema

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @abstractmethod
    def create(self):
        """Create the physical storage."""

    @abstractmethod
    def drop(self):
        """Delete the physical storage."""

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------
    @abstractmethod
    def insert_rows(self, rows, overwrite=False):
        """Append (or replace with) fully-coerced row tuples."""

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------
    @abstractmethod
    def scan_splits(self, projection=None, ranges=None):
        """InputSplits covering the table for the given access pattern."""

    @abstractmethod
    def read_split_batches(self, split, ctx, batch_rows=None):
        """Yield :class:`~repro.vector.ColumnBatch` objects (columns in
        projection order) for one split.

        The one read every statement path goes through.  ORC-backed
        storage hands out decoded stripe columns; a handler whose store
        is row-oriented (HBase, ACID merge-on-read) batches its own row
        iterator.
        """

    # ------------------------------------------------------------------
    # Statistics.
    # ------------------------------------------------------------------
    @abstractmethod
    def data_bytes(self):
        """Total stored bytes (the cost model's D)."""

    @abstractmethod
    def row_count(self):
        """Exact or estimated row count (no data read)."""
