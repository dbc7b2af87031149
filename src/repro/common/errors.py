"""Exception hierarchy for the DualTable reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch either the broad family or a specific layer's failures.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class HdfsError(ReproError):
    """Raised by the simulated HDFS layer."""


class FileNotFoundHdfsError(HdfsError):
    """A path does not exist in the HDFS namespace."""


class FileAlreadyExistsError(HdfsError):
    """Attempted to create a file over an existing path."""


class ImmutableFileError(HdfsError):
    """Attempted to modify a closed (write-once) HDFS file."""


class ReplicationError(HdfsError):
    """Not enough live datanodes to satisfy the replication factor."""


class OrcError(ReproError):
    """Raised by the ORC reader/writer."""


class CorruptOrcFileError(OrcError):
    """File bytes do not parse as a valid ORC-like file."""


class HBaseError(ReproError):
    """Raised by the simulated HBase layer."""


class TableNotFoundError(HBaseError):
    """HBase table does not exist."""


class TableExistsError(HBaseError):
    """HBase table already exists."""


class MapReduceError(ReproError):
    """Raised by the MapReduce job engine."""


class TaskFailedError(MapReduceError):
    """A map or reduce task raised an exception."""


class FaultError(ReproError):
    """Base class for the deterministic fault-injection layer."""


class FaultInjectedError(FaultError):
    """A fault plan fired at a named injection point.

    ``fatal`` distinguishes process-level kills (the whole job/statement
    dies; retry layers must not absorb it) from ordinary task crashes
    (retryable).
    """

    def __init__(self, point, kind="crash", nth_hit=1, fatal=False):
        super().__init__("injected %s fault at %s (hit %d)"
                         % (kind, point, nth_hit))
        self.point = point
        self.kind = kind
        self.nth_hit = nth_hit
        self.fatal = fatal


class RecoveryError(FaultError):
    """A crash-recovery protocol found an unrecoverable state."""


class HiveError(ReproError):
    """Raised by the Hive-like SQL layer."""


class ParseError(HiveError):
    """HiveQL text could not be parsed."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class AnalysisError(HiveError):
    """Query refers to unknown tables/columns or is semantically invalid."""


class CatalogError(HiveError):
    """Metastore-level failure (duplicate table, missing table, ...)."""


class DualTableError(ReproError):
    """Raised by the DualTable storage handler."""


class CompactionInProgressError(DualTableError):
    """Operations are blocked while COMPACT is running."""


class CorruptDeltaError(DualTableError):
    """An Attached-Table cell is not a delta this library wrote: an
    unrecognised qualifier or an undecodable value."""


class ServerError(ReproError):
    """Raised by the concurrent multi-session server (repro.server)."""


class ServerOverloaded(ServerError):
    """Typed load-shed rejection: the admission queue is full.

    Raised instead of queueing without bound; clients may retry later.
    """


class StatementTimeout(ServerError):
    """A statement exceeded its per-statement timeout (queue + retries)."""


class TxnConflictError(ServerError):
    """First-committer-wins: a concurrent commit overlapped this
    transaction's write set (or rewrote a table it touched).

    ``escalation`` marks the variant raised when a statement needs
    table-exclusive execution (an OVERWRITE-plan rewrite) while other
    statements are in flight on the table — the server retries it as an
    exclusive statement.
    """

    def __init__(self, message, escalation=False):
        super().__init__(message)
        self.escalation = escalation


class SessionKilledError(ServerError):
    """The server session was killed while the statement was queued or
    in flight; nothing the statement buffered was published."""
