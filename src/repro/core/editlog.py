"""Crash-safe EDIT-plan commits: buffered deltas + a durable redo log.

The EDIT plan's UDTF calls used to write straight into the Attached
Table from inside map tasks, so a crashed UPDATE/DELETE left a partially
visible set of edits in UNION READ (and a retried task would publish its
edits twice).  This module gives each statement output-committer
semantics instead:

1. every task *attempt* collects its UDTF calls in a
   :class:`TaskEditBuffer` (same ``put_update``/``put_delete`` surface
   as the Attached Table, so the UDTFs are unchanged); a failed attempt's
   buffer is simply dropped;
2. on job success the statement's :class:`EditBatch` writes all edits to
   one checksummed staging file in HDFS (``<table>/txn/edit-N.log``) —
   the durable redo log;
3. the edits are published into the Attached Table, then the staging
   file is deleted.  Deleting the staging file *is* the commit point.

If the statement dies between (2) and (3), the staging file survives and
:func:`recover_edit_logs` rolls the statement forward by replaying it —
publishing is idempotent (re-putting the same values resolves
identically under latest-timestamp-wins).  If it dies during (2), the
staging file is absent or fails its checksum and the statement rolls
back to nothing-visible.  Either way UNION READ never observes a
partial statement.

Injection points: ``dualtable.dml.stage`` (before the staging write) and
``dualtable.dml.publish`` (before the Attached-Table writes).
"""

import hashlib
import pickle
import struct
import threading

from repro.common.errors import FaultInjectedError

_MAGIC = b"DTEL1\n"
_HEADER = struct.Struct(">Q8s")


def encode_edits(edits):
    """Serialize an edit list with a length + checksum header."""
    payload = pickle.dumps(list(edits), protocol=4)
    digest = hashlib.sha256(payload).digest()[:8]
    return _MAGIC + _HEADER.pack(len(payload), digest) + payload


def decode_edits(data):
    """Decode a staging file; returns the edit list or None if invalid.

    A torn or partial write (crash mid-stage) fails the magic, length,
    or checksum test and the statement is rolled back.
    """
    prefix = len(_MAGIC) + _HEADER.size
    if len(data) < prefix or not data.startswith(_MAGIC):
        return None
    length, digest = _HEADER.unpack(data[len(_MAGIC):prefix])
    payload = data[prefix:]
    if len(payload) != length:
        return None
    if hashlib.sha256(payload).digest()[:8] != digest:
        return None
    try:
        return pickle.loads(payload)
    except Exception:
        return None


def apply_edits(handler, edits):
    """Replay decoded edits into the Attached Table (idempotent).

    The redo log holds a statement's SET values as evaluated; a cell is
    stored as its column's declared type, like the row an OVERWRITE
    rewrite would have written.
    """
    attached, coerce = handler.attached, handler.table.schema.coerce_value
    for kind, record_id, values in edits:
        if kind == "u":
            attached.put_update(record_id, {column: coerce(column, value)
                                            for column, value
                                            in values.items()})
        elif kind == "d":
            attached.put_delete(record_id)


class TaskEditBuffer:
    """Per-task-attempt staging of UDTF writes.

    Quacks like the Attached Table for the UDTFs but only records the
    calls; nothing is charged or stored until the statement commits.
    """

    def __init__(self):
        self.edits = []

    def put_update(self, record_id, new_values):
        self.edits.append(("u", record_id, dict(new_values)))

    def put_delete(self, record_id):
        self.edits.append(("d", record_id, None))


class EditBatch:
    """All deltas of one EDIT-plan statement plus its two-phase commit."""

    def __init__(self, handler, txn_id):
        self.handler = handler
        self.txn_id = txn_id
        self._lock = threading.Lock()
        self._by_task = {}      # task_index -> [edits]
        self._loose = []        # absorbed without an index (arrival order)

    @property
    def staging_path(self):
        return "%s/edit-%06d.log" % (self.handler.txn_dir, self.txn_id)

    def task_buffer(self):
        return TaskEditBuffer()

    def absorb(self, buffer, task_index=None):
        """Adopt a *successful* task attempt's buffered edits.

        Keyed by ``task_index`` so the statement's edit order is the
        task order regardless of how attempts interleave on the worker
        pool — and so a serial rerun after an abandoned parallel attempt
        *overwrites* rather than duplicates a task's edits.
        """
        edits = list(buffer.edits)
        with self._lock:
            if task_index is None:
                self._loose.extend(edits)
            else:
                self._by_task[task_index] = edits

    @property
    def edits(self):
        """All absorbed edits, flattened in task-index order."""
        with self._lock:
            ordered = [edit for index in sorted(self._by_task)
                       for edit in self._by_task[index]]
            return ordered + list(self._loose)

    def write_keys(self):
        """The record IDs this statement writes (the SI write set)."""
        return {record_id for _, record_id, _ in self.edits}

    # ------------------------------------------------------------------
    def commit(self, session):
        """Stage + publish; returns the statement-level commit seconds.

        Both phases run under the session's retry policy: retryable
        faults (task crashes, region-server crashes) back off and rerun;
        fatal kills propagate and leave recovery to
        :func:`recover_edit_logs`.
        """
        edits = self.edits
        if not edits:
            return 0.0
        handler = self.handler
        fs = handler.env.fs
        faults = handler.env.cluster.faults
        path = self.staging_path
        payload = encode_edits(edits)

        def stage():
            faults.hit("dualtable.dml.stage", path=path)
            if fs.exists(path):
                fs.delete(path)
            fs.write_file(path, payload)

        def publish():
            faults.hit("dualtable.dml.publish", path=path)
            apply_edits(handler, edits)
            if fs.exists(path):
                fs.delete(path)

        seconds = run_with_retries(session, stage, "dml-stage")
        seconds += run_with_retries(session, publish, "dml-publish")
        return seconds


def run_with_retries(session, fn, label):
    """Charged execution of ``fn`` with the profile's retry policy.

    Mirrors the MapReduce task-attempt loop for statement-level commit
    work that runs outside any job: retryable injected faults back off
    (charged to the ledger) and rerun ``fn`` — which must be idempotent —
    while fatal kills and real bugs propagate immediately.  Uses the
    same jitter-free :class:`~repro.common.retry.RetryPolicy` as the
    task layer, so the charged backoff sequence is identical.
    """
    from repro.common.retry import RetryPolicy

    cluster = session.cluster
    policy = RetryPolicy.from_profile(cluster.profile)
    total = 0.0
    for attempt in policy.attempts():
        try:
            return total + session._charged_parallel(fn)
        except FaultInjectedError as exc:
            if exc.fatal or policy.is_last(attempt):
                raise
            backoff = policy.backoff(attempt, key=label)
            cluster.charge_fixed("mapreduce", "retry_backoff", backoff)
            total += backoff
    raise AssertionError("unreachable: final attempt raises")


def recover_edit_logs(handler):
    """Roll interrupted EDIT commits forward (or back); idempotent.

    Returns ``[(path, outcome)]`` with outcome ``"rolled_forward"`` for
    valid redo logs that were replayed or ``"rolled_back"`` for invalid
    (torn) ones that were discarded.
    """
    fs = handler.env.fs
    outcomes = []
    if not fs.exists(handler.txn_dir):
        return outcomes
    for path in list(fs.list_files(handler.txn_dir)):
        edits = decode_edits(fs.read_file(path))
        if edits is None:
            outcomes.append((path, "rolled_back"))
        else:
            apply_edits(handler, edits)
            outcomes.append((path, "rolled_forward"))
        fs.delete(path)
    return outcomes
