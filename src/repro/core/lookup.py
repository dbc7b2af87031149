"""The keyed access path: PK-pinned reads and writes that skip MapReduce.

DualTable already holds the two halves of a hybrid table — ORC master
files with per-stripe min/max statistics, and an attached store of live
deltas keyed by record ID.  A statement whose WHERE pins the declared
PRIMARY KEY (equality, an IN list, a closed range) therefore never needs
a MapReduce job to find its rows: consult a control-plane **stripe
index** (min/max plus the hash buckets each stripe's keys fall in, and
the key min/max of every :data:`ROW_GROUP_ROWS`-row group) for the
candidate row groups, fetch the candidate files' deltas, and merge the
two streams under exactly the scan path's UNION READ semantics.  A
SELECT returns the merged rows (the LOOKUP plan); an UPDATE / DELETE
stages deltas for them (EDIT-by-key, :func:`edit_by_key`).
The win is the MR fixed cost (job startup + one task per file), every
pruned stripe's bytes, and the merge and filter work of every pruned
row group.  Row groups prune well because a keyed table's master files
are written in key order (``MasterTable.write_rows``).  A key set (an
IN list, or the integers of a closed int range: :func:`pinned_keys`)
prunes stripes by bucket mask and pins shards, so a range over a
hash-sharded table opens only the files of its keys' buckets.

Pruning by the stored keys stays sound on a *dirty* file unless a
delta assigns the PK itself (a delete of a pruned row is irrelevant):
the one pruning rule every reader of a master file follows
(:meth:`~repro.core.store.DualTableStore.pruning_ranges`), so the keyed
file plan reads such a file in full.

Planning is entirely uncharged control-plane work (metastore-style
stats); execution charges exactly what the scan path's per-file union
read charges for the same stripes.  Both fault points fire *before* the
first charged byte, so a crash in a keyed read can fall back to the job
with no double-charged cost.
"""

from dataclasses import dataclass
from itertools import chain, islice

from repro.common.errors import FaultInjectedError
from repro.hive.executor import route_read
from repro.hive.vexpr import compile_batch_predicate
from repro.mapreduce import PlanCost
from repro.mapreduce.job import InputSplit, stable_hashes
from repro.core.cost_model import record_audit
from repro.core.editlog import EditBatch
from repro.core.master import FILE_ID_KEY

#: fixed hash-space resolution: a key maps to one of 64 buckets.  The
#: shard map assigns buckets to shards (rebalancing moves whole buckets,
#: never re-hashes rows) and the stripe index keeps one bit per bucket.
NUM_BUCKETS = 64
#: the mask of every bucket: a keyed plan of a range with no key set.
ALL_BUCKETS = (1 << NUM_BUCKETS) - 1

#: rows per row group of the stripe index (ORC's ``orc.row.index.stride``
#: analogue): a keyed read merges only the row groups whose key min/max
#: admit its range.  Bytes are still charged per projected stripe.
ROW_GROUP_ROWS = 64

#: allowed fault kinds per LOOKUP injection point.  Kept separate from
#: :data:`repro.faults.injector.POINT_KINDS` (like SERVER_CHAOS_POINTS)
#: so existing random chaos seeds keep selecting the same faults.
LOOKUP_CHAOS_POINTS = {
    "lookup.index_read": ("crash",),
    "lookup.hbase_probe": ("crash", "region_crash"),
}


@dataclass
class LookupPlan:
    """A fully planned keyed read (control-plane only, nothing charged)."""

    pk: str                 # primary-key column (lowercase)
    pk_range: object        # pushdown.ColumnRange bounding it
    projection: list        # column names to decode, or None for all
    files: list             # candidate split payloads, canonical order
    choice: object          # cost_model.LookupChoice
    est_rows: int
    total_files: int
    stripes: tuple = (0, 0)  # (candidate, total) stripes of those files
    row_groups: tuple = (0, 0)  # (candidate, total) row groups, likewise
    shards: tuple = (0,)     # shards consulted (a sharded table's plan)
    buckets: tuple = None    # (wanted, total) buckets of a key set, or None

    @property
    def shard(self):
        """The one shard consulted, or None when the plan spans several."""
        return self.shards[0] if len(self.shards) == 1 else None


# ----------------------------------------------------------------------
# Stripe min/max + bucket index (control-plane, cached in the delta cache).
# ----------------------------------------------------------------------
def stripe_index(store, paths):
    """The PK stripe index of ``store``'s master files at ``paths``, one
    ``{path, file_id, num_rows, names, file_bytes, footer_bytes,
    stripes}`` entry each: what a keyed plan
    (:meth:`~repro.core.store.DualTableStore.plan_files`) reads.

    Each stripe is ``(num_rows, pk_min, pk_max, column_lengths,
    bucket_mask, row_groups)``; ``row_groups`` holds the ``(min, max)``
    key pair of each :data:`ROW_GROUP_ROWS`-row group, None for a group
    whose keys are all NULL.  The index lives in the control plane, not
    in the ORC footer, which every task's open charges.

    Built uncharged from each file's metadata view (``MasterTable.meta``)
    and memoized in the cluster's delta cache keyed ``(attached_name,
    "stripe-index", path, file_size)``, so whatever clears the attached
    table's entries (COMPACT, INSERT OVERWRITE, a region-server crash)
    drops the index too.  Master files are immutable, so an entry
    describes its file for as long as it lives.
    """
    cache = getattr(store.env.cluster, "delta_cache", None)
    if cache is not None and cache.budget_bytes <= 0:
        cache = None
    fs = store.env.fs
    key_index = store.master.key_index
    entries = []
    for path in paths:
        size = fs.file_size(path)
        key = None
        if cache is not None:
            key = (store.attached.name, "stripe-index", path, size)
            cached = cache.get(key)
            if cached is not None:
                entries.append(cached)
                continue
        meta = store.master.meta(path)
        stripes = []
        for stripe, batch in zip(meta.stripes, meta.batches(
                projection=[meta.schema[key_index][0]])):
            keys = batch.columns[0]
            stats = stripe.stats(key_index)
            # Which hash buckets the stored keys fall in (a file the
            # sharded writer made holds one bucket, one COMPACT wrote
            # several), and each row group's key range.
            stripes.append((stripe.num_rows, stats["min"], stats["max"],
                            tuple(col["length"] for col in stripe.columns),
                            bucket_mask(keys), _row_groups(keys)))
        entry = {"path": path, "file_id": int(meta.metadata[FILE_ID_KEY]),
                 "num_rows": meta.num_rows,
                 "names": [n.lower() for n, _ in meta.schema],
                 "file_bytes": size,
                 "footer_bytes": size - sum(s.length for s in meta.stripes),
                 "stripes": stripes}
        if key is not None:
            groups = sum(len(stripe[5]) for stripe in stripes)
            cache.put(key, entry,
                      nbytes=96 + 56 * len(stripes) + 24 * groups)
        entries.append(entry)
    return entries


def bucket_mask(keys):
    """One bit per hash bucket that holds one of ``keys`` (any iterable,
    a lazy ``range`` too: hashing stops at a full mask)."""
    buckets = set()
    keys = iter(keys)
    while len(buckets) < NUM_BUCKETS:
        chunk = list(islice(keys, 128))
        if not chunk:
            break
        buckets.update(digest % NUM_BUCKETS
                       for digest in stable_hashes(chunk))
    return sum(1 << bucket for bucket in buckets)


def pinned_keys(key_range, key_type):
    """The finite key set ``key_range`` pins a column holding
    ``key_type`` values to, or None: an IN list's values, or, on an int
    column, the lazy ``range`` of the integers between two exact-int
    bounds (an exclusive bound adjusted).  A key set prunes stripes by
    bucket mask and pins shards; callers check an IN list's value types.
    """
    if key_range.in_set is not None:
        return key_range.in_set
    low, high = key_range.low, key_range.high
    if key_type is not int or type(low) is not int \
            or type(high) is not int:
        return None
    return range(low + (not key_range.low_inclusive),
                 high + key_range.high_inclusive)


def _row_groups(keys):
    """``(min, max)`` of each row group's non-NULL keys, or None."""
    groups = []
    for start in range(0, len(keys), ROW_GROUP_ROWS):
        present = [key for key in keys[start:start + ROW_GROUP_ROWS]
                   if key is not None]
        groups.append((min(present), max(present)) if present else None)
    return tuple(groups)


# ----------------------------------------------------------------------
# Planning.
# ----------------------------------------------------------------------
def bounded_pk_range(handler, ranges):
    """The range ``ranges`` pins the PRIMARY KEY to, or None.

    Bounded means equality, an IN list or a closed range, every bound a
    value of the column's own type: ``=`` coerces across types (``'9' =
    9``) where neither min/max statistics nor the bucket hash do, so a
    bound of another type takes the scan.
    """
    pk = handler.primary_key
    pk_range = ranges.get(pk) if pk is not None and ranges else None
    if pk_range is None:
        return None
    bounds = (pk_range.low, pk_range.high)
    if pk_range.in_set is None and None in bounds:
        return None
    allowed = {handler.schema.column(pk).python_type, type(None)}
    if not allowed.issuperset(map(type, chain(pk_range.in_set or (),
                                              bounds))):
        return None
    return pk_range


def plan_lookup(handler, ranges, sources, projection=None, hit_faults=True):
    """Plan a keyed read for the extracted column ranges; None if
    ineligible.

    Eligibility: the table declares a PRIMARY KEY, the predicate bounds
    it (:func:`bounded_pk_range`) and can match at most
    ``dualtable.lookup.max_rows`` rows: the listed keys of an equality
    or IN list (the PRIMARY KEY is unique), the candidate row groups'
    rows of a range; what must be *read* is the cost verdict's to price.
    The candidates are the keyed file plans
    (:meth:`~repro.core.store.DualTableStore.plan_files`) that admit a
    row, under the wanted keys' bucket mask for a key set
    (:func:`pinned_keys`; ``buckets`` counts them).  ``sources`` is
    ``[(index, store)]``, the stores the table's router pins; candidates
    come back in canonical (basename) order whatever the shard count.
    The plan carries the cost-model verdict
    (:class:`~repro.core.cost_model.LookupChoice`); callers decide
    whether a ``scan``-preferring verdict falls through to MR.
    """
    pk_range = bounded_pk_range(handler, ranges)
    if pk_range is None:
        return None
    pk = handler.primary_key
    keys = pk_range.in_set
    key_set = pinned_keys(pk_range, handler.schema.column(pk).python_type)
    wanted = None if key_set is None else bucket_mask(key_set)
    cluster = handler.env.cluster
    task_seconds = PlanCost(cluster.profile).task_seconds
    candidates = []
    scan_tasks = []
    est_rows = lookup_bytes = scan_bytes = probe_bytes = probe_entries = 0
    stripes_read = total_stripes = groups_read = total_groups = 0
    for shard, source in sources:
        if hit_faults:
            cluster.faults.hit("lookup.index_read", table=source.name)
        for f in source.plan_files(projection, {pk: pk_range},
                                   ALL_BUCKETS if wanted is None else wanted):
            # The scan alternative's task reads the file's footer and
            # every projected stripe.
            task_bytes = f.footer_bytes + f.scan_bytes
            scan_tasks.append(task_seconds(task_bytes, f.rows, merge=True))
            total_stripes += f.stripes[1]
            total_groups += f.row_groups[1]
            scan_bytes += task_bytes
            if f.read_rows == 0:
                # No row group can hold a wanted key and no delta can
                # move one in: the file contributes nothing.  Trailing
                # deltas of skipped files never produce rows either.
                continue
            est_rows += f.read_rows
            if (len(keys) if keys else est_rows) > handler.lookup_rows_limit:
                return None         # too wide for a keyed read: stop here
            stripes_read += f.stripes[0]
            groups_read += f.row_groups[0]
            lookup_bytes += f.footer_bytes + f.read_bytes
            probe_bytes += f.delta_bytes
            probe_entries += f.delta_entries
            candidates.append({"path": f.path, "file_id": f.file_id,
                               "shard": shard, "projection": projection,
                               "row_spans": f.row_spans, "stripes_pruned": 0,
                               "est_rows": f.read_rows})
    candidates.sort(key=lambda c: c["path"].rsplit("/", 1)[-1])
    choice = handler.cost_model().choose_lookup_plan(
        scan_tasks=scan_tasks, scan_bytes=scan_bytes,
        lookup_bytes=lookup_bytes, files_read=len(candidates),
        probe_bytes=probe_bytes, probe_entries=probe_entries, rows=est_rows,
        fanout=handler.shard_fanout)
    return LookupPlan(pk=pk, pk_range=pk_range, projection=projection,
                      files=candidates, choice=choice, est_rows=est_rows,
                      total_files=len(scan_tasks),
                      stripes=(stripes_read, total_stripes),
                      row_groups=(groups_read, total_groups),
                      shards=tuple(shard for shard, _ in sources),
                      buckets=None if wanted is None
                      else (wanted.bit_count(), NUM_BUCKETS))


# ----------------------------------------------------------------------
# Execution.
# ----------------------------------------------------------------------
def keyed_batches(handler, plan, batch_rows=None):
    """The keyed read itself: ``(payload, merged ColumnBatch)`` for every
    candidate file of ``plan``, in plan order.

    The one generator LOOKUP (:func:`run_lookup`) and EDIT-by-key
    (:func:`edit_by_key`) both consume.  Each candidate is
    a split payload naming its admitted row groups (``row_spans``), read
    through the scan path's own ``read_split_batches`` — so a keyed read
    charges exactly what the union read charges for the same stripes
    (the ORC footer plus decoded stripe-column bytes, the memoized
    ``file_deltas`` scan) and rows (the per-row ``unionread`` CPU
    charge), and feeds the same ``unionread.*`` counters, with no job,
    split planning or task loop around it.

    The ``lookup.hbase_probe`` fault point fires before the first
    charged byte, so a region crash here leaves the ledger exactly as if
    the statement had been a scan from the start.
    """
    handler.env.cluster.faults.hit("lookup.hbase_probe",
                                   table=handler.table.name)
    for shard in handler.shards:
        shard.attached.ensure_available()
    for payload in plan.files:
        split = InputSplit(payload=payload, label=payload["path"])
        for batch in handler.read_split_batches(split, None,
                                                batch_rows=batch_rows):
            yield payload, batch


def run_lookup(handler, plan, batch_rows=None, where=None):
    """Execute a planned LOOKUP; returns ``(rows, examined)``.

    ``where`` is the relation's residual filter as ``(expr, env)``, or
    None.  ``rows`` holds the merged value tuples that pass it — each
    merged batch is filtered and tuples are built for the survivors
    only — and ``examined`` counts the merged rows before the filter,
    which is what every charge and counter goes by.
    """
    predicate = compile_batch_predicate(*where) if where is not None else None
    out = []
    examined = 0
    for _, batch in keyed_batches(handler, plan, batch_rows):
        examined += batch.length
        if predicate is not None:
            batch = predicate(batch)
        out.extend(batch.rows())
    return out, examined


def execute_lookup(handler, plan, batch_rows=None, where=None):
    """Run one planned LOOKUP read; ``(rows, examined, sim_seconds,
    detail)``.

    The first two are :func:`run_lookup`'s.  ``sim_seconds`` is the
    ledger-observed device time of the read — there is no Job to sum, so
    the statement's simulated latency is taken straight from the charges
    the union-read merge recorded.  The detail carries the same
    predicted-vs-observed audit shape DML plans emit, so EXPLAIN ANALYZE
    prints a cost-model audit line for LOOKUPs too.
    """
    cluster = handler.env.cluster
    table = handler.table.name
    before = cluster.ledger.snapshot()
    with cluster.tracer.span("phase", "dualtable:lookup", table=table,
                             files=len(plan.files),
                             est_rows=plan.est_rows) as span:
        rows, examined = run_lookup(handler, plan, batch_rows=batch_rows,
                                    where=where)
        span.annotate(rows=examined)
    detail = keyed_detail(handler, plan, "lookup", "lookup",
                          cluster.ledger.diff(before))
    detail["row_groups"] = plan.row_groups
    observed = detail["audit"]["observed_seconds"]
    metrics = cluster.metrics
    metrics.incr("dualtable.lookups.%s" % table)
    metrics.incr("dualtable.plan.lookup")
    metrics.incr("dualtable.plan.lookup.%s" % table)
    metrics.observe("dualtable.plan.lookup_seconds.%s" % table, observed)
    metrics.observe("dualtable.plan.lookup_bytes.%s" % table,
                    detail["lookup_bytes"])
    handler.router.note_lookup(plan, detail)
    return rows, examined, observed, detail


def keyed_detail(handler, plan, name, audited_as, delta):
    """Result detail of one keyed read (LOOKUP or EDIT-by-key).

    ``delta`` is the ledger diff over the read: there is no Job to sum,
    so its device time *is* the read's simulated latency, and the audit
    holds the keyed cost term (``LookupChoice.lookup_seconds``) to it.
    """
    choice = plan.choice
    return {"plan": name,
            "files_read": len(plan.files),
            "total_files": plan.total_files,
            "est_rows": plan.est_rows,
            "lookup_bytes": sum(delta["bytes"].values()),
            "lookup_seconds": choice.lookup_seconds,
            "scan_seconds": choice.scan_seconds,
            "cost_difference": choice.cost_difference,
            "audit": record_audit(handler.env.cluster, handler.table.name,
                                  audited_as, choice.lookup_seconds,
                                  delta["total_seconds"])}


def edit_by_key(handler, session, scan, verb):
    """EDIT-by-key: stage one UPDATE/DELETE from a keyed read, or None.

    When the read's route (:func:`~repro.hive.executor.route_read`)
    picks LOOKUP, the rows are found the way LOOKUP finds them — stripe
    index, bucket masks, one union read per candidate file — and staged
    into the statement's EditBatch: no Job, no splits, no task loop.
    ``scan`` is the handler's compiled EDIT scan.  ``SET dualtable.plan
    = scan`` forces the job and is the differential oracle.  A non-fatal
    fault in the keyed read falls back to the job with nothing staged
    (both fault points fire before the first charged byte).
    """
    projection, ranges, stage = scan
    keyed = route_read(handler, projection, ranges, session.plan_mode)
    if keyed.plan != "lookup":
        return None
    plan = keyed.lookup
    cluster = handler.env.cluster
    try:
        handler._claim_txn_access(session, "edit")
        edit_batch = EditBatch(handler, next(handler._txn_ids))
        buffer = edit_batch.task_buffer()
        before = cluster.ledger.snapshot()
        with cluster.tracer.span("phase", "dualtable:edit-by-key",
                                 table=handler.table.name,
                                 files=len(plan.files),
                                 est_rows=plan.est_rows):
            for payload, batch in keyed_batches(handler, plan,
                                                session.batch_rows):
                stage(buffer, payload, batch)
    except FaultInjectedError as exc:
        if exc.fatal:
            raise
        handler.note_lookup_scan("fallback")
        return None
    detail = keyed_detail(handler, plan, "edit", "edit_by_key",
                          cluster.ledger.diff(before))
    affected = len(buffer.edits)
    if affected:
        cluster.metrics.incr("udtf.%ss" % verb, affected)
    edit_batch.absorb(buffer)
    handler._note_plan_choice("edit")
    result = handler._finish_edit(
        session, edit_batch, verb, detail, [],
        detail["audit"]["observed_seconds"], affected)
    handler._note_dml_done("edit", result)
    return result
