"""UPDATE/DELETE UDTFs — the EDIT plan's write path (Section V-A).

In the paper these are Hive user-defined table functions invoked from the
rewritten statement; here they are the functions the EDIT-plan map tasks
call per matching record.  They exist as a separate module to keep the
architecture seam visible (parser → plan → UDTF → Attached Table).

``attached`` is duck-typed: anything exposing ``put_update``/
``put_delete``.  Every EDIT-plan statement — UPDATE, DELETE and MERGE's
matched arm, by job or by key — passes a per-task
:class:`repro.core.editlog.TaskEditBuffer`, so a crashed statement
publishes nothing (atomic commit via the redo log).
"""


def update_udtf(attached, record_id, new_values):
    """Store the new values for one updated record.

    ``new_values`` maps Hive column numbers to the new field values, which
    become (qualifier, cell) pairs in the Attached Table.
    """
    attached.put_update(record_id, new_values)


def delete_udtf(attached, record_id):
    """Store a DELETE marker for one deleted record."""
    attached.put_delete(record_id)


def count_udtf_calls(ctx, verb, calls):
    """Account ``calls`` UDTF invocations of ``verb`` ("update" |
    "delete") to one task: the job counter behind the statement's
    affected-row count plus the ``udtf.*`` metric, once per task."""
    if calls:
        ctx.incr(verb + "d", calls)
        ctx.cluster.metrics.incr("udtf.%ss" % verb, calls)
