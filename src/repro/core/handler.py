"""DualTableHandler: the hybrid storage model, wired into Hive.

One DualTable = one Master Table (ORC on HDFS) + one Attached Table
(HBase) + the cost-model based UPDATE/DELETE execution and COMPACT
(Sections III and V of the paper).

Reads are UNION READs: each master file is one input split; its mapper
merges the sorted ORC row stream with the sorted Attached-Table delta
stream for that file's record-ID range.  Stripe pruning is applied only
when the Attached Table holds no entries for the file (otherwise an
updated field could move a row into the predicate's range and pruning
would be unsound).
"""

import itertools

from repro.common.errors import (CompactionInProgressError, DualTableError,
                                 FaultInjectedError)
from repro.mapreduce import InputSplit, Job
from repro.hive.catalog import register_handler
from repro.hive.expressions import Env, compile_expr, is_true, referenced_columns
from repro.hive.pushdown import (estimate_selection, extract_ranges,
                                 make_stripe_filter)
from repro.hive.session import QueryResult
from repro.hive.storage.base import StorageHandler
from repro.core.attached import AttachedTable
from repro.core.cost_model import CostModel
from repro.core.editlog import (EditBatch, recover_edit_logs,
                                run_with_retries)
from repro.core.lookup import (bounded_pk_range, keyed_batches, plan_lookup,
                               run_lookup)
from repro.core.manifest import ManifestKind, ManifestProtocol, list_of, of
from repro.core.master import MasterTable
from repro.core.metadata import DualTableMetadata
from repro.core.record_id import RECORD_ID_BYTES, encode_record_id
from repro.core.udtf import count_udtf_calls, delete_udtf, update_udtf
from repro.core.union_read import classify_merge_units, union_read_overlay
from repro.parallel import parallel_map

#: per-assignment Attached-Table payload estimate: 3-byte qualifier +
#: ~10-byte encoded value + cell overhead.
_UPDATE_CELL_BYTES = 18

_COMPACT_FIELDS = {"tmp": of(str), "location": of(str), "rows": of(int)}
#: full COMPACT's manifest 2PC (:mod:`repro.core.manifest`): rewrite
#: every master file into staging, commit, swap the master directory,
#: truncate the Attached Table.
FULL_COMPACT = ManifestKind(
    "dualtable.compact",
    ("write", "manifest", "swap", "swap2", "truncate", "cleanup"),
    _COMPACT_FIELDS)
#: partial COMPACT: rewrite the victims into staging, commit, swap them
#: in per file, drop only their deltas.
PARTIAL_COMPACT = ManifestKind(
    "dualtable.compact.partial", ("write", "manifest", "swap", "delta_drop"),
    dict(_COMPACT_FIELDS, old_paths=list_of(of(str)),
         folded_file_ids=list_of(of(int)), new_names=list_of(of(str))),
    mode="partial")


class DualTableHandler(StorageHandler):
    """The paper's hybrid storage model as a Hive storage handler."""

    kind = "dualtable"
    supports_inplace_mutation = False   # mutation goes through plans
    #: region servers a job's splits spread over (JobRunner makespan
    #: only); the sharded handler raises it to its shard count.
    shard_fanout = 1

    def __init__(self, table, env):
        super().__init__(table, env)
        props = table.properties
        pk = props.get("dualtable.primary_key")
        self.primary_key = str(pk).lower() if pk else None
        self.metadata = DualTableMetadata(env.hbase)
        self.master = MasterTable(
            fs=env.fs,
            location="/warehouse/%s/master" % table.name,
            schema=table.schema,
            metadata_manager=self.metadata,
            table_name=table.name,
            rows_per_file=int(props.get("orc.rows_per_file", 50_000)),
            stripe_rows=int(props.get("orc.stripe_rows", 5_000)),
            key_index=(None if self.primary_key is None
                       else table.schema.index_of(self.primary_key)),
        )
        self.attached = AttachedTable(
            env.hbase, "dt_%s_attached" % table.name,
            backend=str(props.get("dualtable.attached", "hbase")).lower())
        self.mode = str(props.get("dualtable.mode", "cost")).lower()
        if self.mode not in ("cost", "edit", "overwrite"):
            raise DualTableError("bad dualtable.mode: %r" % self.mode)
        self.read_factor = int(props.get("dualtable.read_factor", 1))
        self.lookup_rows_limit = int(props.get("dualtable.lookup.max_rows",
                                               10_000))
        self._compacting = False
        # Crash-recovery bookkeeping: the EDIT-plan redo-log directory
        # and the COMPACT two-phase-commit paths (all siblings of the
        # master directory, never inside it).  ``master.__old__`` holds
        # the pre-swap master during a full COMPACT's swap.
        base = "/warehouse/%s" % table.name
        self.txn_dir = base + "/txn"
        old = base + "/master.__old__"
        self.compaction = ManifestProtocol(
            env, table.name, base + "/compact.manifest",
            staging=(base + "/master.__compact__", old),
            restore={old: self.master.location})
        self._txn_ids = itertools.count(1)
        #: what an EditBatch stages to and publishes through; the
        #: sharded handler swaps in its shard-routing target.
        self._batch_target = self

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def create(self):
        self.master.create()
        self.attached.create()
        self.metadata.register_table(self.table.name)

    def drop(self):
        self.master.drop()
        self.attached.drop()
        self.metadata.unregister_table(self.table.name)
        for path in self.compaction.paths + (self.txn_dir,):
            if self.env.fs.exists(path):
                self.env.fs.delete(path, recursive=True)

    def _check_not_compacting(self):
        if self._compacting:
            raise CompactionInProgressError(
                "COMPACT in progress on %s" % self.table.name)

    # ------------------------------------------------------------------
    # Crash recovery.
    # ------------------------------------------------------------------
    def recover(self):
        """Finish any interrupted COMPACT or EDIT commit; idempotent.

        Every public entry point calls this first, so a table whose last
        statement crashed mid-commit heals on the next access.  Returns
        ``{"compact": <"rolled_forward"|"rolled_back"|"clean">,
        "dml": [(staging_path, outcome), ...]}``.
        """
        compact = self.compaction.recover(
            {FULL_COMPACT: self._apply_full_compact,
             PARTIAL_COMPACT: self._apply_partial_compact})
        if compact == "rolled_back":
            self._invalidate_master_cache()
        outcome = {"compact": compact, "dml": recover_edit_logs(self)}
        self.note_attached_bytes()
        return outcome

    def _ensure_recovered(self):
        if self._compacting:
            return   # mid-commit state is normal while COMPACT runs
        fs = self.env.fs
        if any(map(fs.exists, self.compaction.paths)) \
                or fs.exists(self.txn_dir) and fs.list_files(self.txn_dir):
            self.recover()

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------
    def _invalidate_master_cache(self):
        """Drop cached ORC footers/stripes under the master directory.

        The ORC cache key is content-exact (length + CRC of the file
        bytes), so stale *hits* are impossible even without this — the
        hook exists to release entries for replaced files immediately
        instead of waiting for LRU pressure.
        """
        cache = getattr(self.env.cluster, "orc_cache", None)
        if cache is not None:
            cache.invalidate_group(self.master.location)

    def insert_rows(self, rows, overwrite=False):
        self._check_not_compacting()
        self._ensure_recovered()
        rows = list(rows)
        if overwrite:
            self.master.replace_with(rows)
            self.attached.clear()
            self._invalidate_master_cache()
            self.note_attached_bytes()
        else:
            self.master.write_rows(rows)
        return len(rows)

    def note_attached_bytes(self):
        """Refresh the live per-table Attached-Table size gauge.

        Every path that grows or shrinks the Attached Table calls this,
        so the auto-compaction daemon and SHOW METRICS see delta
        accumulation between compactions, not just the post-COMPACT zero.
        """
        self.env.cluster.metrics.gauge(
            "dualtable.attached_bytes.%s" % self.table.name,
            self.attached.size_bytes)

    # ------------------------------------------------------------------
    # Reads (UNION READ).
    # ------------------------------------------------------------------
    def scan_splits(self, projection=None, ranges=None):
        self._check_not_compacting()
        self._ensure_recovered()
        # Recover the Attached store up front: the per-file fan-out below
        # may run on pool workers, and a WAL replay must happen (and be
        # charged) exactly once, before any of them look at key ranges.
        self.attached.ensure_available()
        # Per-table read counter: the maintenance stats collector derives
        # the read horizon from the scans-vs-DML mix.
        self.env.cluster.metrics.incr("dualtable.scans.%s" % self.table.name)
        projection_list = list(projection) if projection else None

        def split_for(path):
            reader = self.master.reader(path)
            file_id = int(reader.metadata["dualtable.file_id"])
            prune_safe = not self.attached.has_entries_in_file(file_id)
            return InputSplit(
                payload={"path": path, "file_id": file_id,
                         "projection": projection_list,
                         "ranges": (ranges or {}) if prune_safe else {},
                         "prune_safe": prune_safe},
                size_bytes=reader.projected_bytes(projection_list),
                label=path)

        splits = parallel_map(self.env.cluster, split_for,
                              self.master.file_paths())
        # Workload-profile hook: per-table scanned-bytes histogram (the
        # advisor's "bytes read" axis).  Split sizes are control-plane
        # metadata, identical for any worker count.
        self.env.cluster.metrics.observe(
            "dualtable.scan_bytes.%s" % self.table.name,
            sum(split.size_bytes for split in splits))
        return splits

    def _prepare_union_read(self, file_id, reader, stripe_filter,
                            row_spans=None):
        """Per-file merge setup.

        Fetches the file's deltas (the one charged, memoized scan,
        :meth:`AttachedTable.file_deltas`) and classifies the file's
        merge units (``unionread.batches_*`` counters) on the canonical
        grid: the surviving stripes, or a keyed read's runs of row
        groups (``row_spans``).  Eager materialization reorders the
        delta-scan charges relative to the interleaved master reads,
        which is ledger-neutral: charges accumulate per (device,
        category) key, so only per-key order — unchanged — matters.
        Returns ``(cells, overlay)``.
        """
        cells, overlay = self.attached.file_deltas(file_id)
        if row_spans is not None:
            spans = [(start, stop - start) for runs in row_spans.values()
                     for start, stop in runs]
        else:
            spans = [(s.first_row, s.num_rows) for s in reader.stripes
                     if stripe_filter is None or stripe_filter(s)]
        fast, dirty = classify_merge_units(spans, overlay.positions)
        self._note_merge_units(fast, dirty)
        return cells, overlay

    def _note_merge_units(self, fast, dirty):
        """Merge-unit accounting: how much of the scanned stripe grid
        streamed through the fast path vs needed delta work.

        The unit grid is per *stripe* — control-plane arithmetic over
        footer spans and delta positions, so the counts are
        byte-identical across workers, shards and the batch-size knob.
        """
        metrics = self.env.cluster.metrics
        table = self.table.name
        for name, units in (("batches_fast", fast),
                            ("batches_overlay", dirty)):
            if units:
                metrics.incr("unionread.%s" % name, units)
                metrics.incr("unionread.%s.%s" % (name, table), units)

    def read_split_batches(self, split, ctx, batch_rows=None):
        """UNION READ of one master file, as merged ColumnBatches.

        Charges the footer + stripe-column bytes (the ORC reader), the
        delta scan (``file_deltas``) and the per-output-row ``unionread``
        CPU term, and feeds the ``unionread.*`` metrics.  Clean batches
        stream straight through; dirty ones get the file's columnar
        overlay applied (INTERNALS §14).  A keyed read's payload names
        the runs of rows its plan admitted (``"row_spans"``, per stripe)
        instead of ranges to prune by.
        """
        payload = split.payload
        cluster = self.env.cluster
        with cluster.tracer.span("substrate",
                                 "union-read:%d" % payload["file_id"],
                                 path=payload["path"]) as span:
            reader = self.master.reader(payload["path"])
            projection = payload["projection"]
            row_spans = payload.get("row_spans")
            stripe_filter = make_stripe_filter([n for n, _ in reader.schema],
                                               payload["ranges"] or {})
            orc_batches = reader.batches(projection=projection,
                                         stripe_filter=stripe_filter,
                                         batch_rows=batch_rows,
                                         row_spans=row_spans)
            projection_map = self._projection_map(projection)
            _, overlay = self._prepare_union_read(
                payload["file_id"], reader, stripe_filter, row_spans)
            stats = {}
            nrows = 0
            for batch in union_read_overlay(payload["file_id"], orc_batches,
                                            overlay, projection_map,
                                            stats=stats):
                nrows += batch.length
                yield batch
            self._note_union_read(span, nrows, stats)

    def _note_union_read(self, span, nrows, stats):
        """Post-merge accounting: the per-row CPU term and counters."""
        cluster = self.env.cluster
        # Per-row merge-path invocation overhead (Figure 4).
        profile = cluster.profile
        cluster.charge_fixed(
            "cpu", "unionread",
            nrows * profile.op_scale * profile.unionread_row_cost_s)
        span.annotate(rows=nrows, **stats)
        metrics = cluster.metrics
        metrics.incr("unionread.files")
        metrics.incr("unionread.rows", nrows)
        if stats.get("deltas_applied"):
            metrics.incr("unionread.deltas_applied",
                         stats["deltas_applied"])
            # Per-table delta churn: how much merge work reads on this
            # table keep paying for (advisor read-overhead evidence).
            metrics.incr("unionread.deltas_applied.%s" % self.table.name,
                         stats["deltas_applied"])
        if stats.get("rows_deleted"):
            metrics.incr("unionread.rows_deleted", stats["rows_deleted"])
        if stats.get("deltas_skipped"):
            metrics.incr("unionread.deltas_skipped",
                         stats["deltas_skipped"])
        if stats.get("trailing_deltas"):
            metrics.incr("unionread.trailing_deltas",
                         stats["trailing_deltas"])

    def _projection_map(self, projection):
        schema = self.schema
        if projection is None:
            return {i: i for i in range(len(schema))}
        return {schema.index_of(name): pos
                for pos, name in enumerate(projection)}

    # ------------------------------------------------------------------
    # LOOKUP (the third plan type: point reads without MapReduce).
    # ------------------------------------------------------------------
    def plan_lookup(self, ranges, projection=None, hit_faults=True):
        """Plan a LOOKUP read (or None if ineligible).

        A method so sharded handlers can route the plan to the owning
        shard; the single-table implementation is the module function.
        """
        return plan_lookup(self, ranges, projection=projection,
                           hit_faults=hit_faults)

    def execute_lookup(self, plan, batch_rows=None, where=None):
        """Run one planned LOOKUP read at sub-job cost (no MR planner).

        Returns ``(rows, examined, sim_seconds, detail)``; the first two
        are :func:`~repro.core.lookup.run_lookup`'s.  ``sim_seconds`` is
        the ledger-observed device time of the read — there is no Job to
        sum, so the statement's simulated latency is taken straight from
        the charges the union-read merge recorded.  The detail carries
        the same predicted-vs-observed audit shape DML plans emit, so
        EXPLAIN ANALYZE prints a cost-model audit line for LOOKUPs too.
        """
        self._check_not_compacting()
        self._ensure_recovered()
        cluster = self.env.cluster
        table = self.table.name
        before = cluster.ledger.snapshot()
        with cluster.tracer.span("phase", "dualtable:lookup", table=table,
                                 files=len(plan.files),
                                 est_rows=plan.est_rows) as span:
            rows, examined = run_lookup(self, plan, batch_rows=batch_rows,
                                        where=where)
            span.annotate(rows=examined)
        detail = self._keyed_detail(plan, "lookup", "lookup",
                                    cluster.ledger.diff(before))
        detail["row_groups"] = plan.row_groups
        observed = detail["audit"]["observed_seconds"]
        metrics = cluster.metrics
        metrics.incr("dualtable.lookups.%s" % table)
        metrics.incr("dualtable.plan.lookup")
        metrics.incr("dualtable.plan.lookup.%s" % table)
        metrics.observe("dualtable.plan.lookup_seconds.%s" % table,
                        observed)
        metrics.observe("dualtable.plan.lookup_bytes.%s" % table,
                        detail["lookup_bytes"])
        return rows, examined, observed, detail

    def _keyed_detail(self, plan, name, audited_as, delta):
        """Result detail of one keyed read (LOOKUP or EDIT-by-key).

        ``delta`` is the ledger diff over the read: there is no Job to
        sum, so its device time *is* the read's simulated latency, and
        the audit holds the keyed cost term
        (``LookupChoice.lookup_seconds``) to it.
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
                "audit": self._audit(audited_as, choice.lookup_seconds,
                                     delta["total_seconds"])}

    def note_lookup_eligible_scan(self):
        """A lookup-eligible read routed to the scan plan (advisor feed)."""
        metrics = self.env.cluster.metrics
        metrics.incr("dualtable.plan.lookup_eligible_scan")
        metrics.incr("dualtable.plan.lookup_eligible_scan.%s"
                     % self.table.name)

    def note_lookup_fallback(self):
        """A mid-lookup fault made the statement fall back to the scan."""
        metrics = self.env.cluster.metrics
        metrics.incr("dualtable.plan.lookup_fallback")
        metrics.incr("dualtable.plan.lookup_fallback.%s" % self.table.name)

    # ------------------------------------------------------------------
    # Statistics.
    # ------------------------------------------------------------------
    def data_bytes(self):
        return self.master.data_bytes() + self.attached.size_bytes

    def row_count(self):
        return self.master.row_count()

    # ------------------------------------------------------------------
    # UPDATE / DELETE (cost-model dispatch).
    # ------------------------------------------------------------------
    def cost_model(self):
        profile = self.env.cluster.profile
        return CostModel(profile, k=self.read_factor,
                         attached_rates=self.attached.rates(profile))

    #: rows to sample when the predicate has no extractable column ranges
    SAMPLE_ROWS = 2000

    def _estimate_ratio(self, where):
        """Estimate the modification ratio.

        Prefers stripe-statistics estimation (zero data reads); falls back
        to evaluating the predicate over a small row sample — the paper's
        "historical analysis ... or directly given by the designer"
        alternative, made automatic.
        """
        if where is None:
            return 1.0, self.master.row_count()
        ranges = extract_ranges(where)
        readers = self.master.readers()
        if not readers:
            return 0.0, 0
        schema_cols = {c.name.lower() for c in self.schema}
        usable = {n: r for n, r in ranges.items() if n in schema_cols}
        if usable:
            selected, total = estimate_selection(readers, usable)
            if total == 0:
                return 0.0, 0
            pk_range = usable.get(self.primary_key)
            if pk_range is not None and pk_range.in_set is not None:
                # The PRIMARY KEY is unique: n keys touch at most n rows.
                selected = min(selected, len(pk_range.in_set))
            return min(1.0, selected / total), total
        return self._sample_ratio(where, readers)

    def _sample_ratio(self, where, readers):
        projection = [c.name for c in self.schema
                      if c.name.lower() in referenced_columns(where)]
        if not projection:
            projection = [self.schema.columns[0].name]
        env = Env()
        env.add_schema(projection)
        predicate = compile_expr(where, env)
        total = sum(r.num_rows for r in readers)
        sampled = 0
        matched = 0
        per_reader = max(1, self.SAMPLE_ROWS // max(1, len(readers)))
        for reader in readers:
            taken = 0
            for _, values in reader.rows(projection=projection):
                try:
                    hit = is_true(predicate(values))
                except Exception:
                    # Sampling is only an estimate: call the ratio unknown
                    # and let the statement fail where the scan evaluates
                    # this row, with a typed error.
                    return 0.0, total
                if hit:
                    matched += 1
                taken += 1
                if taken >= per_reader:
                    break
            sampled += taken
        if sampled == 0:
            return 0.0, total
        return matched / sampled, total

    def _edit_scan_bytes(self, edit):
        """Master bytes the EDIT scan reads (projection + pruning)."""
        projection = [c.name for c in self.schema
                      if c.name.lower() in edit.needed] or None
        total = 0
        for reader in self.master.readers():
            stripe_filter = make_stripe_filter(
                [n for n, _ in reader.schema], edit.ranges)
            total += reader.projected_bytes(projection, stripe_filter)
        return total

    def execute_update(self, session, edit):
        """One row edit (:mod:`repro.hive.rowedit`): an UPDATE, a DELETE
        or MERGE's matched arm."""
        return self._execute_dml(session, edit)

    execute_delete = execute_update

    def choose_dml_plan(self, edit):
        """The cost evaluator's EDIT-vs-OVERWRITE verdict for one row
        edit; shared with EXPLAIN."""
        ratio, total_rows = edit.estimate_ratio(self)
        d_bytes = self.master.data_bytes()
        model = self.cost_model()
        scan_bytes = self._edit_scan_bytes(edit)
        if edit.verb == "delete":
            return model.choose_delete_plan(d_bytes, total_rows, ratio,
                                            edit_scan_bytes=scan_bytes)
        return model.choose_update_plan(
            d_bytes, total_rows, ratio,
            RECORD_ID_BYTES + _UPDATE_CELL_BYTES * len(edit.targets),
            edit_scan_bytes=scan_bytes)

    def _execute_dml(self, session, edit):
        self._check_not_compacting()
        self._ensure_recovered()
        cluster = self.env.cluster
        verb = edit.verb
        cluster.metrics.incr("dualtable.%ss.%s" % (verb, self.table.name))
        scan = None
        if self.primary_key is not None \
                and self._plan_for(edit, "edit") == "edit":
            # A write that pins the PRIMARY KEY needs no job to find its
            # rows, and no Eq. (1)/(2) evaluation to know it is an EDIT.
            scan = self._edit_scan(edit)
            result = self._edit_by_key(session, scan, verb)
            if result is not None:
                return result
        with cluster.tracer.span("phase", "dualtable:plan",
                                 table=self.table.name, dml=verb) as span:
            choice = self.choose_dml_plan(edit)
            plan = self._plan_for(edit, choice.plan)
            self._annotate_choice(span, choice, plan)
        detail = self._detail(choice, plan)
        self.metadata.record_ratio(self.table.name, choice.ratio)
        self._note_plan_choice(plan, choice)
        self._claim_txn_access(session, plan)
        if plan == "overwrite":
            info = session.metastore.table(self.table.name)
            result = session._rewrite_via_overwrite(info, edit,
                                                    extra_detail=detail)
        else:
            result = self._run_edit(session, edit, detail, scan)
        predicted = (choice.edit_seconds if plan == "edit"
                     else choice.overwrite_seconds)
        result.detail["audit"] = self._audit(plan, predicted,
                                             result.sim_seconds)
        self._note_dml_done(plan, result)
        return result

    def _claim_txn_access(self, session, plan):
        """Declare this DML's isolation needs to the server transaction.

        Under a server (:mod:`repro.server`), an OVERWRITE plan rewrites
        master files in place, which is only snapshot-safe with the
        table to itself — ``require_exclusive`` either escalates the
        transaction or aborts it for an exclusive re-run.  An EDIT plan
        just records the write so conflict detection sees the table.
        """
        txn = getattr(session, "current_txn", None)
        if txn is None:
            return
        if plan == "overwrite":
            txn.require_exclusive(self.table.name)
        else:
            txn.touch(self.table.name, write=True)

    @staticmethod
    def _annotate_choice(span, choice, plan):
        span.annotate(plan=plan, cost_plan=choice.plan,
                      ratio=round(choice.ratio, 6),
                      edit_seconds=round(choice.edit_seconds, 6),
                      overwrite_seconds=round(choice.overwrite_seconds, 6))

    def _note_plan_choice(self, plan, choice=None):
        metrics = self.env.cluster.metrics
        table = self.table.name
        metrics.incr("dualtable.plan.%s" % plan)
        metrics.incr("dualtable.dml.%s" % table)
        # Workload-profile hooks (repro.advisor): per-table plan mix and
        # the regret signal — an executed plan whose predicted cost was
        # higher than the alternative's (only forced modes can regret;
        # cost mode always takes the cheaper estimate).  EDIT-by-key
        # (no ``choice``) never weighed OVERWRITE, so it cannot regret.
        metrics.incr("dualtable.plan.%s.%s" % (plan, table))
        if choice is None:
            return
        if self.mode != "cost" and plan != choice.plan:
            metrics.incr("dualtable.plan.forced")
            metrics.incr("dualtable.plan.forced.%s" % table)
        if plan == "overwrite" \
                and choice.edit_seconds < choice.overwrite_seconds:
            metrics.incr("dualtable.plan.overwrite_regret.%s" % table)
            metrics.observe(
                "dualtable.plan.regret_seconds.%s" % table,
                choice.overwrite_seconds - choice.edit_seconds)
        elif plan == "edit" \
                and choice.overwrite_seconds < choice.edit_seconds:
            metrics.incr("dualtable.plan.edit_regret.%s" % table)

    def _audit(self, plan, predicted, observed):
        """Record predicted-vs-observed cost for the executed plan.

        For the job plans the model's estimate covers device time for
        the plan's I/O and the observation is the whole statement's
        ledger-derived run time (startup, task overheads and commit
        included), so the relative error measures how faithfully Section
        IV's equations track the measured world — the audit
        SynchroStore-style systems feed back into their planners.  The
        keyed plans (``lookup``, ``edit_by_key``) audit the keyed read.
        """
        rel_error = (abs(predicted - observed) / observed
                     if observed > 0 else 0.0)
        audit = {"plan": plan,
                 "predicted_seconds": predicted,
                 "observed_seconds": observed,
                 "rel_error": rel_error}
        cluster = self.env.cluster
        table = self.table.name
        cluster.metrics.incr("costmodel.audits")
        cluster.metrics.observe("costmodel.rel_error", rel_error)
        cluster.metrics.observe("costmodel.rel_error.%s" % plan, rel_error)
        # Workload-profile hook (repro.advisor): drift detection needs a
        # per-table error distribution.
        cluster.metrics.incr("costmodel.audits.%s" % table)
        cluster.metrics.observe("costmodel.rel_error.table.%s" % table,
                                rel_error)
        cluster.tracer.annotate(cost_audit=dict(audit))
        return audit

    def _note_dml_done(self, plan, result):
        """Workload-profile hooks (repro.advisor): DML latency histogram
        on the simulated axis and the bytes the plan rewrote (an
        OVERWRITE rewrites the whole master)."""
        cluster = self.env.cluster
        table = self.table.name
        cluster.metrics.observe("dualtable.dml_seconds.%s" % table,
                                result.sim_seconds)
        if plan == "overwrite":
            cluster.metrics.incr("dualtable.bytes_rewritten.%s" % table,
                                 self.master.data_bytes())
        self.note_attached_bytes()

    def _plan_for(self, edit, cost_plan):
        """The plan one row edit runs: the one ``dualtable.mode``
        forces, or ``cost_plan`` under ``cost``."""
        if self.mode == "cost":
            return cost_plan
        return self.mode

    @staticmethod
    def _detail(choice, plan):
        return {
            "plan": plan,
            "cost_plan": choice.plan,
            "cost_difference": choice.cost_difference,
            "edit_seconds": choice.edit_seconds,
            "overwrite_seconds": choice.overwrite_seconds,
            "ratio": choice.ratio,
        }

    # -- EDIT plans ------------------------------------------------------
    def _edit_scan(self, edit):
        """Compile one row edit for EDIT: ``(projection, ranges, stage)``.

        ``stage(buffer, payload, batch)`` turns one merged ColumnBatch of
        the file ``payload`` names into buffered UDTF calls: the edit's
        batch matcher picks the rows and evaluates their new values, and
        only the matched rows are given a record id (from the batch's
        provenance), so wall-clock cost follows the rows *touched*.  The
        EDIT job and EDIT-by-key stage through the same closure.
        """
        projection = edit.projection(self.schema)
        match = edit.batch_matcher(projection)
        targets = edit.targets
        delete = edit.verb == "delete"

        def stage(buffer, payload, batch):
            keep, new_columns = match(batch)
            if not keep:
                return
            file_id = payload["file_id"]
            keys = self._edit_keys(
                payload, [encode_record_id(file_id, ordinal)
                          for ordinal in batch.ordinals(keep)])
            if delete:
                for key in keys:
                    delete_udtf(buffer, key)
                return
            for key, new_values in zip(keys, zip(*new_columns)):
                update_udtf(buffer, key, dict(zip(targets, new_values)))

        return projection, edit.ranges, stage

    def _run_edit(self, session, edit, detail, scan=None):
        """One EDIT-plan row edit as a job: a batch scan that emits
        deltas.  Every charge comes from ``read_split_batches``, so the
        simulated clock cannot tell this scan from the row-at-a-time one
        it replaced (INTERNALS §8, write path)."""
        verb = edit.verb
        projection, ranges, stage = scan or self._edit_scan(edit)
        splits = self.scan_splits(projection, ranges)
        edit_batch = EditBatch(self._batch_target, next(self._txn_ids))
        batch_rows = session.batch_rows

        def map_fn(split, ctx):
            # Output-committer semantics: a failed/retried attempt's
            # buffer is dropped; only successful attempts reach the batch.
            buffer = edit_batch.task_buffer()
            for batch in self.read_split_batches(split, ctx,
                                                 batch_rows=batch_rows):
                stage(buffer, split.payload, batch)
            count_udtf_calls(ctx, verb, len(buffer.edits))
            edit_batch.absorb(buffer, ctx.task_index)
            return ()

        job = Job(name="%s-edit" % verb, splits=splits, map_fn=map_fn,
                  reduce_fn=None,
                  properties={"shard_fanout": self.shard_fanout})
        result = session.runner.run(job)
        return self._finish_edit(session, edit_batch, verb, detail, [result],
                                 result.sim_seconds,
                                 result.counters.get(verb + "d", 0))

    def _edit_by_key(self, session, scan, verb):
        """EDIT-by-key: stage the statement from a keyed read, or None.

        When the WHERE bounds the PRIMARY KEY (:func:`plan_lookup`
        decides, ``dualtable.lookup.max_rows`` and the cost model's
        job-startup / per-task terms gate it) the rows are found the way
        LOOKUP finds them — stripe index, bucket masks, one union read
        per candidate file — and staged into the statement's EditBatch:
        no Job, no splits, no task loop.  ``SET dualtable.plan = scan``
        forces the job and is the differential oracle.  A non-fatal
        fault in the keyed read falls back to the job with nothing
        staged (both fault points fire before the first charged byte).
        """
        projection, ranges, stage = scan
        mode = session.plan_mode
        cluster = self.env.cluster
        try:
            plan = self.plan_lookup(ranges, projection,
                                    hit_faults=mode != "scan")
            if plan is None or mode == "scan" or (
                    mode != "lookup" and plan.choice.plan != "lookup"):
                if plan is not None \
                        or bounded_pk_range(self, ranges) is not None:
                    self.note_lookup_eligible_scan()
                return None
            self._claim_txn_access(session, "edit")
            edit_batch = EditBatch(self._batch_target, next(self._txn_ids))
            buffer = edit_batch.task_buffer()
            before = cluster.ledger.snapshot()
            with cluster.tracer.span("phase", "dualtable:edit-by-key",
                                     table=self.table.name,
                                     files=len(plan.files),
                                     est_rows=plan.est_rows):
                for payload, batch in keyed_batches(self, plan,
                                                    session.batch_rows):
                    stage(buffer, payload, batch)
        except FaultInjectedError as exc:
            if exc.fatal:
                raise
            self.note_lookup_fallback()
            return None
        detail = self._keyed_detail(plan, "edit", "edit_by_key",
                                    cluster.ledger.diff(before))
        affected = len(buffer.edits)
        if affected:
            cluster.metrics.incr("udtf.%ss" % verb, affected)
        edit_batch.absorb(buffer)
        self._note_plan_choice("edit")
        result = self._finish_edit(
            session, edit_batch, verb, detail, [],
            detail["audit"]["observed_seconds"], affected)
        self._note_dml_done("edit", result)
        return result

    def _finish_edit(self, session, edit_batch, verb, detail, jobs,
                     scan_seconds, affected):
        """Commit (or defer) a staged EDIT statement; its QueryResult."""
        # A SET value its column cannot store fails the statement here,
        # before anything is staged, with the AnalysisError the OVERWRITE
        # rewrite raises; publishing coerces (``apply_edits``).
        coerce = self.schema.coerce_value
        for kind, _, values in edit_batch.edits:
            if kind == "u":
                for target, value in values.items():
                    coerce(target, value)
        commit_seconds = self._commit_or_defer(session, edit_batch)
        self.note_attached_bytes()
        sub = sum(j.sim_seconds for j in session._dml_subquery_jobs)
        return QueryResult(
            sim_seconds=sub + scan_seconds + commit_seconds,
            jobs=session._dml_subquery_jobs + jobs, affected=affected,
            plan="%s-edit" % verb, detail=detail)

    def _edit_keys(self, payload, record_ids):
        """EditBatch keys for one split payload's matched record ids (a
        sharded table tags them with the owning shard)."""
        return record_ids

    def _commit_or_defer(self, session, batch):
        """Commit the EditBatch now, or buffer it in the server txn.

        Under an *optimistic* server transaction nothing durable may
        happen before the transaction's commit point (a killed or
        conflicted statement must leave zero trace), so stage + publish
        are deferred to :meth:`StatementTxn.publish`.  Standalone
        sessions and exclusive transactions commit immediately, exactly
        as before the server existed.
        """
        txn = getattr(session, "current_txn", None)
        if txn is not None and not txn.exclusive:
            txn.defer_edit_batch(self.table.name, batch, session)
            return 0.0
        with self.env.cluster.tracer.span("phase", "dualtable:edit-commit",
                                          table=self.table.name):
            return batch.commit(session)

    # ------------------------------------------------------------------
    # COMPACT (Section III-C): fold the Attached Table into the Master.
    # ------------------------------------------------------------------
    def execute_compact(self, session, major=True, partial=False,
                        max_files=None, victim_paths=None):
        """Fold Attached-Table deltas into the Master.

        Full COMPACT (``partial=False``) rewrites every master file and
        truncates the Attached Table.  Partial COMPACT rewrites only the
        highest-delta-density files (optionally capped at ``max_files``,
        or the explicit ``victim_paths`` the auto-compaction policy
        selected) and drops only the folded files' deltas — record IDs
        of rewritten rows are remapped to the fresh file IDs the rewrite
        allocates, while untouched files keep their IDs and deltas.
        Both modes are one job plus one manifest 2PC run
        (:data:`FULL_COMPACT` / :data:`PARTIAL_COMPACT`).
        """
        self._check_not_compacting()
        self._ensure_recovered()
        if self.attached.is_empty():
            return self._compact_noop()
        attached_bytes = self.attached.size_bytes
        victims = paths = None
        if partial:
            victims = self._select_compact_victims(victim_paths, max_files)
            if not victims:
                return self._compact_noop()
            paths = [v["path"] for v in victims]
            folded_bytes = sum(v["delta_bytes"] for v in victims)
            kind, plan, apply = (PARTIAL_COMPACT, "compact-partial",
                                 self._apply_partial_compact)
            span = {"files": len(victims), "folded_bytes": folded_bytes}
        else:
            folded_bytes = attached_bytes
            kind, plan, apply = (FULL_COMPACT, "compact",
                                 self._apply_full_compact)
            span = {"attached_bytes": attached_bytes}
        self._compacting = True
        cluster = self.env.cluster
        try:
            with cluster.tracer.span("phase", "dualtable:" + plan,
                                     table=self.table.name, **span):
                splits = self._compact_splits(paths)
                job = Job(name=plan, splits=splits,
                          map_fn=self._compact_map_fn, reduce_fn=None)
                result = session.runner.run(job)
                rows = result.outputs

                def prepare(staging):
                    new_paths = self.master.write_rows(rows,
                                                       directory=staging)
                    fields = {"tmp": staging,
                              "location": self.master.location,
                              "rows": len(rows)}
                    if victims is not None:
                        fields.update(
                            old_paths=paths,
                            folded_file_ids=[v["file_id"] for v in victims],
                            new_names=[p.rsplit("/", 1)[1]
                                       for p in new_paths])
                    return fields

                write_seconds = run_with_retries(
                    session,
                    lambda: self.compaction.run(kind, prepare, apply),
                    plan + "-commit")
        finally:
            self._compacting = False
        metrics = cluster.metrics
        metrics.incr("dualtable.compacts")
        metrics.incr("dualtable.compacts.%s" % self.table.name)
        detail = {"attached_bytes": attached_bytes,
                  "folded_bytes": folded_bytes,
                  "mode": "full", "files": len(splits)}
        if victims is not None:
            metrics.incr("dualtable.compacts.partial")
            detail.update(mode="partial",
                          file_ids=[v["file_id"] for v in victims])
        detail["rows_written"] = len(rows)
        metrics.observe("dualtable.compact.folded_bytes", folded_bytes)
        self.note_attached_bytes()
        return QueryResult(
            sim_seconds=result.sim_seconds + write_seconds,
            jobs=[result], affected=len(rows), plan=plan, detail=detail)

    def _compact_noop(self):
        self.note_attached_bytes()
        return QueryResult(sim_seconds=0.0, jobs=[], affected=0,
                           plan="compact-noop",
                           detail={"attached_bytes": 0, "folded_bytes": 0,
                                   "mode": "noop", "files": 0,
                                   "rows_written": 0})

    def _select_compact_victims(self, victim_paths, max_files):
        """Dirty master files ordered by delta density (highest first).

        Consults only control-plane metadata (file sizes, attached key
        ranges) — selection itself is free, like plan choice.
        """
        candidates = []
        for path in self.master.file_paths():
            if victim_paths is not None and path not in victim_paths:
                continue
            file_id, _ = self.master.file_meta(path)
            delta_bytes, delta_entries = \
                self.attached.file_delta_stats(file_id)
            if delta_bytes <= 0:
                continue
            master_bytes = max(1, self.env.fs.file_size(path))
            candidates.append({"path": path, "file_id": file_id,
                               "delta_bytes": delta_bytes,
                               "delta_entries": delta_entries,
                               "master_bytes": master_bytes})
        candidates.sort(
            key=lambda c: (-(c["delta_bytes"] / c["master_bytes"]),
                           c["path"]))
        if max_files is not None:
            candidates = candidates[:max(1, int(max_files))]
        return candidates

    def _compact_map_fn(self, split, ctx):
        """One master file's merged rows, read through batches."""
        for batch in self.read_split_batches(split, ctx):
            yield from batch.rows()

    def _compact_splits(self, paths=None):
        # scan_splits raises while _compacting; build splits directly.
        splits = []
        for path in (paths if paths is not None
                     else self.master.file_paths()):
            reader = self.master.reader(path)
            splits.append(InputSplit(
                payload={"path": path,
                         "file_id": int(reader.metadata["dualtable.file_id"]),
                         "projection": None, "ranges": {},
                         "prune_safe": False},
                size_bytes=reader.projected_bytes(None),
                label=path))
        return splits

    def _apply_full_compact(self, manifest, hit):
        """Swap the compacted master in and truncate the Attached Table
        (the manifest 2PC's apply: every step re-runnable)."""
        fs = self.env.fs
        tmp, location = manifest["tmp"], manifest["location"]
        _, old = self.compaction.staging
        hit("swap")
        if fs.exists(tmp):
            if fs.exists(location) and not fs.exists(old):
                fs.rename(location, old)
            hit("swap2")
            fs.rename(tmp, location)
        self._invalidate_master_cache()
        hit("truncate")
        self.attached.clear()
        hit("cleanup")

    def _apply_partial_compact(self, manifest, hit):
        """Move the rewritten files in, delete the folded originals and
        drop only their deltas.

        Replaying from any prefix converges: renamed files skip (source
        gone), deletes are guarded, and ``clear_file`` of an
        already-empty range is a no-op.  Its charged HBase deletes can
        raise retryable faults; the protocol's resume guard re-enters
        here instead of rebuilding phase 1.
        """
        fs = self.env.fs
        tmp, location = manifest["tmp"], manifest["location"]
        hit("swap")
        for name in manifest["new_names"]:
            src = "%s/%s" % (tmp, name)
            if fs.exists(src):
                dst = "%s/%s" % (location, name)
                if fs.exists(dst):
                    fs.delete(src)
                else:
                    fs.rename(src, dst)
        for old in manifest["old_paths"]:
            if fs.exists(old):
                fs.delete(old)
        self._invalidate_master_cache()
        hit("delta_drop")
        for file_id in manifest["folded_file_ids"]:
            self.attached.clear_file(file_id)


register_handler("dualtable", DualTableHandler)
