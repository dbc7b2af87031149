"""Storage handler interface (Hive's InputFormat/OutputFormat/SerDe seam).

A handler owns a table's bytes and knows how to:

* create/drop the physical storage,
* bulk-insert rows (append or overwrite),
* produce :class:`~repro.mapreduce.job.InputSplit`s for a scan with
  projection + predicate-range pushdown,
* read one split back as column batches, and
* run a row edit (:mod:`repro.hive.rowedit`: UPDATE, DELETE, MERGE's
  matched arm) and COMPACT: ``execute_update`` is Hive's INSERT
  OVERWRITE (Listing 2) and ``execute_compact`` an ``AnalysisError``
  unless the handler has its own.  The session calls these and
  nothing else.

DualTable plugs into Hive through exactly this seam, mirroring the paper's
custom InputFormat/OutputFormat/SerDe implementation (Section V-A).  A
handler that keeps ORC files lays them out with :mod:`repro.orc.directory`.
"""

from abc import ABC, abstractmethod

from repro.common.errors import AnalysisError


class StorageHandler(ABC):
    """Per-table storage driver."""

    #: the PRIMARY KEY column a LOOKUP plan probes (DualTable only).
    primary_key = None

    #: region servers a job's splits spread over (makespan only).
    shard_fanout = 1

    #: EXPLAIN's account of how UPDATE/DELETE run, or None when the
    #: handler explains each statement's choice (DualTable).
    dml_plan = ("INSERT OVERWRITE (full table or partition rewrite — reads "
                "and writes every column of every row)")

    #: names of the trailing schema columns stored in directory names
    #: (a partitioned ORC table); empty for every other table.
    partition_columns = ()

    #: whether a read merges every row it yields with deltas kept beside
    #: the files (DualTable's UNION READ): a plan prices the merge.
    union_read = False

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

    def recover(self):
        """Finish the table's interrupted commits; what each rolled
        forward or back (``{}``: this table has nothing to recover)."""
        return {}

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

    def plan_splits(self, projection=None, ranges=None):
        """The splits :meth:`scan_splits` returns, planned without
        counting a scan (EXPLAIN's); the same call unless the handler
        counts its scans."""
        return self.scan_splits(projection, ranges)

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

    def pruning_on_dirty_files(self, ranges):
        """EXPLAIN's pruning account under the predicate's column
        ``ranges``: ``(files with deltas, {column: how many of them still
        prune by it})``, or None for a table that keeps no deltas beside
        its files."""
        return None

    # ------------------------------------------------------------------
    # Statements.
    # ------------------------------------------------------------------
    def execute_update(self, session, edit):
        """Run one row edit — an UPDATE, a DELETE or MERGE's matched arm;
        a QueryResult.  Hive rewrites the table (Listing 2)."""
        info = session.metastore.table(self.table.name)
        return session._rewrite_via_overwrite(info, edit)

    def execute_compact(self, session, major=True, partial=False,
                        max_files=None):
        """``COMPACT TABLE t [MAJOR|MINOR|PARTIAL [n]]``; a QueryResult.
        PARTIAL folds a DualTable's densest files; nothing else has it."""
        raise AnalysisError(
            ("COMPACT ... PARTIAL requires a DualTable table (got %s stored "
             "as %s)" if partial else
             "table %s (storage %s) does not support COMPACT")
            % (self.table.name, self.table.storage))
