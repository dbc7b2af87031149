"""Statement transactions: snapshots, write sets, and the commit log.

The MVCC scheme is *deferred publication* layered on the PR-1 EditBatch
machinery:

* physical state always equals **committed** state — a statement's
  EDIT-plan deltas stay buffered in its :class:`StatementTxn` until the
  server commits it, so a statement dispatched at watermark *W* reads
  exactly the commits ``seq <= W`` (its snapshot) and nothing else;
* the :class:`CommitLog` is the versioned-catalog/delta-visibility
  watermark: one monotonically increasing sequence number per write
  commit, each carrying the committed write set (record IDs) and the
  tables it touched;
* at commit, first-committer-wins: any record in the log with
  ``seq > txn.snapshot_seq`` whose write set intersects the committing
  statement's — or any *exclusive* commit (a master-file rewrite:
  OVERWRITE-plan DML, INSERT, COMPACT, DDL) on a table the statement
  touched — aborts the statement with
  :class:`~repro.common.errors.TxnConflictError`; its buffered edits
  are simply dropped, so readers never observe a half-applied batch.

Exclusive statements commit at execution time (they mutate master files
in place); they are safe because execution is physically atomic and any
overlapping optimistic statement fails its commit-time check.
"""

import itertools
import weakref

from repro.common.errors import TxnConflictError

#: statement lifecycle states (SHOW SESSIONS renders these).
EXECUTING = "executing"
COMMITTED = "committed"
ABORTED = "aborted"


class CommitRecord:
    """One committed write statement in the commit log."""

    __slots__ = ("seq", "session_id", "tables", "keys", "exclusive", "sql")

    def __init__(self, seq, session_id, tables, keys, exclusive, sql=""):
        self.seq = seq
        self.session_id = session_id
        self.tables = frozenset(tables)
        self.keys = frozenset(keys)
        self.exclusive = bool(exclusive)
        self.sql = sql

    def __repr__(self):
        return ("CommitRecord(seq=%d, session=%r, tables=%r, keys=%d, "
                "exclusive=%r)" % (self.seq, self.session_id,
                                   sorted(self.tables), len(self.keys),
                                   self.exclusive))


class CommitLog:
    """The global commit sequence: watermark + conflict detection.

    ``seq`` counts every write commit; only the records some snapshot
    can still conflict with are kept (:meth:`prune`), so the log is as
    long as the window of statements in flight, not the session.
    """

    def __init__(self):
        #: the watermark: number of write commits so far.
        self.seq = 0
        #: records ``seq - len(_records) + 1 .. seq``, in order.
        self._records = []

    def append(self, session_id, tables, keys, exclusive, sql=""):
        self.seq += 1
        record = CommitRecord(self.seq, session_id, tables, keys,
                              exclusive, sql)
        self._records.append(record)
        return record

    def prune(self, oldest_snapshot):
        """Drop the records with ``seq <= oldest_snapshot``: no snapshot
        taken at or after that watermark can conflict with them."""
        drop = len(self._records) - (self.seq - oldest_snapshot)
        if drop > 0:
            del self._records[:drop]

    def first_conflict(self, txn):
        """The earliest commit that invalidates ``txn``, or None.

        Write-write conflicts only (snapshot isolation): a read-only
        statement never conflicts.  Exclusive commits conflict at table
        granularity — a rewrite invalidates every snapshot of the table
        because record IDs may have been remapped.
        """
        if not txn.write_keys and not txn.tables_written:
            return None
        first = self.seq - len(self._records)    # seq of the last pruned
        if txn.snapshot_seq < first:
            raise AssertionError("commit log pruned past snapshot %d"
                                 % txn.snapshot_seq)
        for record in self._records[txn.snapshot_seq - first:]:
            if record.exclusive and (record.tables & txn.tables):
                return record
            if record.keys and not txn.write_keys.isdisjoint(record.keys):
                return record
        return None


class StatementTxn:
    """One statement's transaction: snapshot, buffers, write set."""

    _ids = itertools.count(1)

    def __init__(self, server, session, sql, snapshot_seq):
        self.id = next(StatementTxn._ids)
        #: weak: the server owns its in-flight transactions.
        self._server = None if server is None else weakref.ref(server)
        self.session = session
        self.sql = sql
        self.snapshot_seq = snapshot_seq
        self.state = EXECUTING
        self.exclusive = False
        #: set when the owning session is killed mid-statement: the
        #: completion event discards instead of committing.
        self.doomed = False
        #: tables the statement touched at all (guards the autocompact
        #: daemon and exclusive escalation).
        self.tables = set()
        #: tables the statement writes.
        self.tables_written = set()
        #: record IDs in the write set (union of deferred EditBatches).
        self.write_keys = set()
        #: deferred ``() -> commit_seconds`` publish closures, in the
        #: order the statement produced them.
        self._publishes = []
        self.result = None

    # -- hooks called from inside statement execution -------------------
    def touch(self, table, write=False):
        """Record that the statement accessed (or wrote) ``table``."""
        table = table.lower()
        self.tables.add(table)
        if write:
            self.tables_written.add(table)

    def defer_edit_batch(self, table, batch, session):
        """Buffer an EDIT-plan statement's commit until the server's
        commit point (called by the DualTable handler)."""
        self.touch(table, write=True)
        self.write_keys |= batch.write_keys()
        self._publishes.append(lambda: batch.commit(session))

    def require_exclusive(self, table):
        """Escalate to table-exclusive execution, or abort.

        OVERWRITE-plan rewrites mutate master files in place, which is
        only safe when no other statement is in flight on the table; if
        one is, raise the escalation variant of
        :class:`TxnConflictError` — the server retries the statement as
        an upfront-exclusive one once the table drains.
        """
        table = table.lower()
        self.touch(table, write=True)
        if self.exclusive:
            return
        server = None if self._server is None else self._server()
        if server is not None and server.table_busy(table, exclude=self):
            raise TxnConflictError(
                "statement needs exclusive access to %r while other "
                "statements are in flight on it" % table,
                escalation=True)
        self.exclusive = True

    # -- commit-side API ------------------------------------------------
    def has_writes(self):
        return self.exclusive or bool(self.write_keys) \
            or bool(self.tables_written)

    def publish(self):
        """Run the deferred EditBatch commits; returns charged seconds.

        Idempotent at the closure level: :meth:`EditBatch.commit` stages
        a checksummed redo log before publishing, so a crash mid-publish
        is resolved by the handler's ``recover()`` exactly as in the
        serial engine.
        """
        seconds = 0.0
        for publish in self._publishes:
            seconds += publish()
        return seconds

    def discard(self):
        """Drop buffered edits (abort / session kill): nothing was
        staged, so there is nothing durable to clean up."""
        self._publishes = []
        self.state = ABORTED

    def __repr__(self):
        return ("StatementTxn(id=%d, session=%r, snapshot=%d, state=%s, "
                "exclusive=%r, writes=%d)"
                % (self.id, getattr(self.session, "id", None),
                   self.snapshot_seq, self.state, self.exclusive,
                   len(self.write_keys)))
