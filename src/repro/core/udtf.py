"""UPDATE/DELETE UDTFs — the EDIT plan's write path (Section V-A).

In the paper these are Hive user-defined table functions invoked from the
rewritten statement; here they are the functions the EDIT-plan map tasks
call per matching record.  They exist as a separate module to keep the
architecture seam visible (parser → plan → UDTF → Attached Table).

``attached`` is duck-typed: anything exposing ``put_update``/
``put_delete``.  EDIT-plan statements pass a per-task
:class:`repro.core.editlog.TaskEditBuffer` so a crashed statement
publishes nothing (atomic commit via the redo log); MERGE and direct
callers pass the :class:`repro.core.attached.AttachedTable` itself.
"""


def update_udtf(attached, record_id, new_values, ctx=None):
    """Store the new values for one updated record.

    ``new_values`` maps Hive column numbers to the new field values, which
    become (qualifier, cell) pairs in the Attached Table.
    """
    attached.put_update(record_id, new_values)
    if ctx is not None:
        count_udtf_calls(ctx, "update", 1)


def delete_udtf(attached, record_id, ctx=None):
    """Store a DELETE marker for one deleted record."""
    attached.put_delete(record_id)
    if ctx is not None:
        count_udtf_calls(ctx, "delete", 1)


def count_udtf_calls(ctx, verb, calls):
    """Account ``calls`` UDTF invocations of ``verb`` ("update" |
    "delete") to one task: the job counter behind the statement's
    affected-row count plus the ``udtf.*`` metric.  The batch EDIT scan
    calls the UDTFs without a ``ctx`` and accounts once per task."""
    if calls:
        ctx.incr(verb + "d", calls)
        ctx.cluster.metrics.incr("udtf.%ss" % verb, calls)
