"""DualTableHandler: the hybrid storage model, wired into Hive.

One DualTable = its stores (:mod:`repro.core.store`, each one Master
Table + one Attached Table) + the cost-model based UPDATE/DELETE
execution and COMPACT over them (Sections III and V of the paper).  A
plain table has one store; a sharded one (:mod:`repro.shard.sharded`)
one per shard, and a router that says which store each row goes to.

Reads are UNION READs: each master file is one input split; its mapper
merges the sorted ORC row stream with the sorted Attached-Table delta
stream for that file's record-ID range.  Stripe pruning is applied only
when the Attached Table holds no entries for the file (otherwise an
updated field could move a row into the predicate's range and pruning
would be unsound).
"""

import itertools

from repro.common.errors import CompactionInProgressError
from repro.mapreduce import Job
from repro.hive.catalog import register_handler
from repro.hive.pushdown import (estimate_selection, extract_ranges,
                                 make_stripe_filter, sample_selection)
from repro.hive.session import QueryResult
from repro.hive.storage.base import StorageHandler
from repro.core.cost_model import CostModel, record_audit
from repro.core.editlog import EditBatch, recover_edit_logs
from repro.core.lookup import edit_by_key, execute_lookup, plan_lookup
from repro.core.metadata import DualTableMetadata
from repro.core.record_id import RECORD_ID_BYTES, encode_record_id
from repro.core.store import DualTableStore, StoreRouter, setting
from repro.core.udtf import count_udtf_calls, delete_udtf, update_udtf

#: per-assignment Attached-Table payload estimate: 3-byte qualifier +
#: ~10-byte encoded value + cell overhead.
_UPDATE_CELL_BYTES = 18


class DualTableHandler(StorageHandler):
    """The paper's hybrid storage model as a Hive storage handler: one
    table planned over ``shards``, its stores, by ``router``."""

    kind = "dualtable"
    supports_inplace_mutation = False   # mutation goes through plans

    def __init__(self, table, env, store_names=None, router=None):
        StorageHandler.__init__(self, table, env)
        self._read_settings(table)
        self.metadata = DualTableMetadata(env.hbase)
        key_index = (None if self.primary_key is None
                     else table.schema.index_of(self.primary_key))
        self.router = router or StoreRouter()
        #: the stores whole-table planning reads: a plain table's one
        #: store is named like the table, a shard's ``t__s<i>``.
        self.shards = tuple(
            DualTableStore(name, table, env, self.metadata, key_index,
                           index if self.router.bucketed else None)
            for index, name in enumerate(store_names or [table.name]))
        #: a plain table's Master and Attached Table (tests and tools).
        self.master = self.shards[0].master
        self.attached = self.shards[0].attached
        #: the manifest 2PCs recovery finishes: every store's COMPACT.
        self._protocols = [store.compaction for store in self.shards]
        self._compacting = False
        self.txn_dir = "/warehouse/%s/txn" % table.name
        self._txn_ids = itertools.count(1)

    def _read_settings(self, table):
        """The table's settings, each parsed once: PRIMARY KEY, plan mode,
        read factor and the keyed-read row cap."""
        props = table.properties
        pk = props.get("dualtable.primary_key")
        self.primary_key = str(pk).lower() if pk else None
        self.mode = setting(props, "dualtable.mode")
        self.read_factor = setting(props, "dualtable.read_factor")
        self.lookup_rows_limit = setting(props, "dualtable.lookup.max_rows")

    @property
    def shard_fanout(self):
        """Region servers a job's splits spread over (JobRunner makespan
        only — charges never scale): one per store."""
        return len(self.shards)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def create(self):
        for store in self.shards:
            store.create()
        if self.router.bucketed:
            self.metadata.register_table(self.table.name)
        self.router.create()

    def drop(self):
        for store in self.shards:
            store.drop()
        if self.router.bucketed:
            self.metadata.unregister_table(self.table.name)
        base = "/warehouse/%s" % self.table.name
        if self.env.fs.exists(base):
            self.env.fs.delete(base, recursive=True)

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
        compacts = [store.recover() for store in self.shards]
        outcome = {"compact": next((o for o in ("rolled_forward",
                                                "rolled_back")
                                    if o in compacts), "clean"),
                   "dml": recover_edit_logs(self)}
        self._recover_table_commits(outcome)
        self.note_attached_bytes()
        return outcome

    def _recover_table_commits(self, outcome):
        """Finish the table's own interrupted commits beyond the stores'
        and the redo log's; a plain table has none."""

    def _ensure_recovered(self):
        if self._compacting:
            return   # mid-commit state is normal while COMPACT runs
        fs = self.env.fs
        if any(fs.exists(path) for protocol in self._protocols
               for path in protocol.paths) \
                or fs.exists(self.txn_dir) and fs.list_files(self.txn_dir):
            self.recover()

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------
    def insert_rows(self, rows, overwrite=False):
        self._check_not_compacting()
        self._ensure_recovered()
        rows = list(rows)
        self._write(self.router.layout(rows), self.shards if overwrite else ())
        if overwrite:
            self.note_attached_bytes()
        return len(rows)

    def _write(self, parts, replace=()):
        """One append per ``(store index, rows)`` part of a layout (a
        plain table writes one, a sharded one one per hash bucket).

        A store in ``replace`` is overwritten by the first part that
        reaches it — emptying it first would leave a zero-row master file
        behind, and every later job a task to read it — or emptied at the
        end when no part does.
        """
        replace = list(replace)
        for index, part in parts:
            store = self.shards[index]
            store.write(part, overwrite=store in replace)
            if store in replace:
                replace.remove(store)
        for store in replace:
            store.write([], overwrite=True)

    def note_attached_bytes(self):
        """Refresh the live Attached-Table size gauges: every store's
        (:meth:`DualTableStore.note_attached_bytes`) and the table's."""
        for store in self.shards:
            store.note_attached_bytes()
        self.env.cluster.metrics.gauge(
            "dualtable.attached_bytes.%s" % self.table.name,
            sum(store.attached.size_bytes for store in self.shards))

    # ------------------------------------------------------------------
    # Reads (UNION READ: one job over every store's files).
    # ------------------------------------------------------------------
    def scan_splits(self, projection=None, ranges=None):
        self._check_not_compacting()
        self._ensure_recovered()
        # Per-table read counter: the maintenance stats collector derives
        # the read horizon from the scans-vs-DML mix.
        metrics = self.env.cluster.metrics
        metrics.incr("dualtable.scans.%s" % self.table.name)
        projection = list(projection) if projection else None
        splits = [split for store in self.shards
                  for split in store.scan_splits(projection, ranges)]
        # Canonical global order: master file ids are allocated from the
        # table's counter, so *basename* order (the id, not the store
        # directory) is the same for every shard count — charging order,
        # shuffle sampling and float accumulation in the ledger stay
        # byte-identical across INTO 1/4/8.
        splits.sort(key=lambda s: s.payload["path"].rsplit("/", 1)[-1])
        # Workload-profile hook: per-table scanned-bytes histogram (the
        # advisor's "bytes read" axis).  Split sizes are control-plane
        # metadata, identical for any worker count.
        metrics.observe("dualtable.scan_bytes.%s" % self.table.name,
                        sum(split.size_bytes for split in splits))
        return splits

    def read_split_batches(self, split, ctx, batch_rows=None):
        """UNION READ of one master file, on the store the split names
        (:meth:`DualTableStore.read_split_batches`)."""
        store = self.shards[split.payload.get("shard", 0)]
        yield from store.read_split_batches(split, ctx, batch_rows=batch_rows)

    # ------------------------------------------------------------------
    # LOOKUP (the third plan type: point reads without MapReduce).
    # ------------------------------------------------------------------
    def plan_lookup(self, ranges, projection=None, hit_faults=True):
        """Plan a LOOKUP read over the stores the predicate pins (or None
        if ineligible: :func:`~repro.core.lookup.plan_lookup`)."""
        pinned = self.router.pinned(ranges)
        if pinned is None:
            return None
        return plan_lookup(self, ranges,
                           [(index, self.shards[index]) for index in pinned],
                           projection=projection, hit_faults=hit_faults)

    def execute_lookup(self, plan, batch_rows=None, where=None):
        """Run one planned LOOKUP read at sub-job cost (no MR planner):
        :func:`~repro.core.lookup.execute_lookup`."""
        self._check_not_compacting()
        self._ensure_recovered()
        return execute_lookup(self, plan, batch_rows=batch_rows, where=where)

    def note_lookup_scan(self, why):
        """A lookup-eligible read ran the scan (advisor feed): ``why`` is
        ``"eligible_scan"`` (the plan chose it) or ``"fallback"`` (a
        mid-lookup fault)."""
        metrics = self.env.cluster.metrics
        metrics.incr("dualtable.plan.lookup_%s" % why)
        metrics.incr("dualtable.plan.lookup_%s.%s" % (why, self.table.name))

    # ------------------------------------------------------------------
    # Statistics.
    # ------------------------------------------------------------------
    def data_bytes(self):
        return self._master_bytes() + sum(shard.attached.size_bytes
                                          for shard in self.shards)

    def row_count(self):
        return sum(shard.master.row_count() for shard in self.shards)

    def _master_bytes(self):
        return sum(shard.master.data_bytes() for shard in self.shards)

    def _master_readers(self):
        """A reader per master file, shard by shard: what plan choice
        estimates from."""
        return [reader for shard in self.shards
                for reader in shard.master.readers()]

    # ------------------------------------------------------------------
    # UPDATE / DELETE (cost-model dispatch).
    # ------------------------------------------------------------------
    def cost_model(self):
        profile = self.env.cluster.profile
        return CostModel(profile, k=self.read_factor,
                         attached_rates=self.shards[0].attached.rates(profile))

    def _estimate_ratio(self, where):
        """Estimate the modification ratio.

        Prefers stripe-statistics estimation (zero data reads); falls back
        to evaluating the predicate over a small row sample — the paper's
        "historical analysis ... or directly given by the designer"
        alternative, made automatic.
        """
        if where is None:
            return 1.0, self.row_count()
        ranges = extract_ranges(where)
        readers = self._master_readers()
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
        return sample_selection(readers, self.schema, where)

    def _edit_scan_bytes(self, edit):
        """Master bytes the EDIT scan reads (projection + pruning)."""
        projection = [c.name for c in self.schema
                      if c.name.lower() in edit.needed] or None
        total = 0
        for reader in self._master_readers():
            stripe_filter = make_stripe_filter(
                [n for n, _ in reader.schema], edit.ranges)
            total += reader.projected_bytes(projection, stripe_filter)
        return total

    def choose_dml_plan(self, edit):
        """The cost evaluator's EDIT-vs-OVERWRITE verdict for one row
        edit; shared with EXPLAIN."""
        ratio, total_rows = edit.estimate_ratio(self)
        d_bytes = self._master_bytes()
        model = self.cost_model()
        scan_bytes = self._edit_scan_bytes(edit)
        if edit.verb == "delete":
            return model.choose_delete_plan(d_bytes, total_rows, ratio,
                                            edit_scan_bytes=scan_bytes)
        return model.choose_update_plan(
            d_bytes, total_rows, ratio,
            RECORD_ID_BYTES + _UPDATE_CELL_BYTES * len(edit.targets),
            edit_scan_bytes=scan_bytes)

    def execute_update(self, session, edit):
        """One row edit (:mod:`repro.hive.rowedit`): an UPDATE, a DELETE
        or MERGE's matched arm."""
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
            result = edit_by_key(self, session, scan, verb)
            if result is not None:
                return result
        with cluster.tracer.span("phase", "dualtable:plan",
                                 table=self.table.name, dml=verb) as span:
            choice = self.choose_dml_plan(edit)
            plan = self._plan_for(edit, choice.plan)
            span.annotate(plan=plan, cost_plan=choice.plan,
                          ratio=round(choice.ratio, 6),
                          edit_seconds=round(choice.edit_seconds, 6),
                          overwrite_seconds=round(choice.overwrite_seconds,
                                                  6))
        detail = choice.detail(plan)
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
        result.detail["audit"] = record_audit(
            cluster, self.table.name, plan, predicted, result.sim_seconds)
        self._note_dml_done(plan, result)
        return result

    execute_delete = execute_update

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
                                 self._master_bytes())
        self.note_attached_bytes()

    def _plan_for(self, edit, cost_plan):
        """The plan one row edit runs: the one ``dualtable.mode``
        forces, or ``cost_plan`` under ``cost``.

        Keyed reads look for a key only on the store the router maps it
        to.  An EDIT that assigns a keyed table's routing key would leave
        the row on its old key's store — for good, as COMPACT folds in
        place — so it rewrites instead, which re-routes every row.
        """
        if self.primary_key is not None \
                and self.router.assigns_key(edit.targets):
            return "overwrite"
        if self.mode == "cost":
            return cost_plan
        return self.mode

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
        edit_keys = self.router.edit_keys

        def stage(buffer, payload, batch):
            keep, new_columns = match(batch)
            if not keep:
                return
            file_id = payload["file_id"]
            keys = edit_keys(payload.get("shard", 0),
                             [encode_record_id(file_id, ordinal)
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
        edit_batch = EditBatch(self, next(self._txn_ids))
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

    def _attached_for(self, key):
        """``(attached, record_id)``: where one EditBatch key publishes.
        The one routing hook publish and redo-log replay go through."""
        index, record_id = self.router.store_of(key)
        return self.shards[index].attached, record_id

    def _commit_or_defer(self, session, batch):
        """Commit the EditBatch now, or buffer it in the server txn.

        Under an *optimistic* server transaction nothing durable may
        happen before the transaction's commit point (a killed or
        conflicted statement must leave zero trace), so stage + publish
        are deferred to :meth:`StatementTxn.publish`.  Standalone
        sessions and exclusive transactions commit immediately, exactly
        as before the server existed.
        """
        self.router.note_edits(batch.edits)
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
                        max_files=None, victim_paths=None, store=None):
        """Fold Attached-Table deltas into the Master.

        Full COMPACT (``partial=False``) rewrites every master file and
        truncates the Attached Table.  Partial COMPACT rewrites only the
        highest-delta-density files (optionally capped at ``max_files``,
        or the explicit ``victim_paths`` the auto-compaction policy
        selected) and drops only the folded files' deltas — record IDs
        of rewritten rows are remapped to the fresh file IDs the rewrite
        allocates, while untouched files keep their IDs and deltas.
        Victims are picked table-wide: ordered by delta density, ties by
        file basename (the file id, the same at every INTO n).

        Each store with something to fold runs one job plus one manifest
        2PC (:data:`~repro.core.store.FULL_COMPACT` /
        :data:`~repro.core.store.PARTIAL_COMPACT`); a sharded table's
        result sums its shards'.  ``store`` folds that one store alone
        (the auto-compaction daemon and REBALANCE work shard by shard).
        """
        self._check_not_compacting()
        self._ensure_recovered()
        indices = range(len(self.shards)) if store is None else [store]
        if all(self.shards[i].attached.is_empty() for i in indices):
            return self._compact_noop()
        victims = None
        if partial:
            victims = sorted(
                (dict(victim, shard=i) for i in indices for victim
                 in self.shards[i].compact_candidates(victim_paths)),
                key=lambda v: (-(v["delta_bytes"] / v["master_bytes"]),
                               v["path"].rsplit("/", 1)[-1]))
            if max_files is not None:
                victims = victims[:max(1, int(max_files))]
            if not victims:
                return self._compact_noop()
        if store is not None or not self.router.bucketed:
            return self._compact_store(session, indices[0], victims)
        attached_bytes = sum(shard.attached.size_bytes
                             for shard in self.shards)
        results = []
        for index, shard in enumerate(self.shards):
            if victims is None:
                if not shard.attached.is_empty():
                    results.append(self._compact_store(session, index))
                continue
            mine = [v for v in victims if v["shard"] == index]
            if mine:
                results.append(self._compact_store(session, index, mine))
        self.note_attached_bytes()

        def total(name):
            return sum(result.detail.get(name, 0) for result in results)
        detail = {"attached_bytes": attached_bytes,
                  "folded_bytes": total("folded_bytes"),
                  "mode": "sharded", "files": total("files"),
                  "shards": len(self.shards),
                  "rows_written": total("rows_written")}
        if victims is not None:
            detail["file_ids"] = [v["file_id"] for v in victims]
        return QueryResult(
            sim_seconds=sum(r.sim_seconds for r in results),
            jobs=[job for r in results for job in r.jobs],
            affected=sum(r.affected for r in results),
            plan="compact", detail=detail)

    def _compact_store(self, session, index, victims=None):
        """One store's COMPACT: a job merging its files (every one, or
        the ``victims``) and the store's manifest 2PC over the rows."""
        store = self.shards[index]
        attached_bytes = folded_bytes = store.attached.size_bytes
        paths = None
        if victims is not None:
            paths = [v["path"] for v in victims]
            folded_bytes = sum(v["delta_bytes"] for v in victims)
            plan = "compact-partial"
            span = {"files": len(victims), "folded_bytes": folded_bytes}
        else:
            plan = "compact"
            span = {"attached_bytes": attached_bytes}
        self._compacting = True
        cluster = self.env.cluster
        try:
            with cluster.tracer.span("phase", "dualtable:" + plan,
                                     table=store.name, **span):
                splits = store.compact_splits(paths)
                job = Job(name=plan, splits=splits,
                          map_fn=self._compact_map_fn, reduce_fn=None)
                result = session.runner.run(job)
                rows = result.outputs
                write_seconds = store.fold(session, plan, rows, victims)
        finally:
            self._compacting = False
        metrics = cluster.metrics
        metrics.incr("dualtable.compacts")
        metrics.incr("dualtable.compacts.%s" % store.name)
        detail = {"attached_bytes": attached_bytes,
                  "folded_bytes": folded_bytes,
                  "mode": "full", "files": len(splits)}
        if victims is not None:
            metrics.incr("dualtable.compacts.partial")
            detail.update(mode="partial",
                          file_ids=[v["file_id"] for v in victims])
        detail["rows_written"] = len(rows)
        metrics.observe("dualtable.compact.folded_bytes", folded_bytes)
        store.note_attached_bytes()
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

    def _compact_map_fn(self, split, ctx):
        """One master file's merged rows, read through batches."""
        for batch in self.read_split_batches(split, ctx):
            yield from batch.rows()


register_handler("dualtable", DualTableHandler)
