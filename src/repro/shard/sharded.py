"""Sharded DualTable: hash-partitioned master + attached across shards.

One logical table ``t`` is backed by ``n`` child DualTables
``t__s0 .. t__s<n-1>``, each a complete master-ORC + attached-HBase pair
on its own simulated region server.  Rows are routed by a 64-bucket hash
of the declared shard key; the bucket -> shard assignment (the *shard
map*) is persisted next to the table and can be rebalanced one bucket at
a time, a move committed by the manifest 2PC (:mod:`repro.core.manifest`).

Determinism contract: the *physical layout* is a function of the data
and the bucket hash alone, never of the shard count.  ``insert_rows``
groups rows by bucket and writes each bucket as its own append, so ORC
files never span buckets — the file set (sizes, row groups, encoded
bytes) is byte-identical whether the 64 buckets live on 1, 4 or 8
shards, which keeps ledger totals and data-path counters identical too.
Shard count only changes *placement* (which child owns a file) and the
simulated makespan (scatter-gather fan-out via ``shard_fanout``).

Scatter-gather UNION READ: a scan is still ONE MapReduce job whose
splits span every shard (each split tagged with its owning shard), so
job-level counters match the unsharded table; the runner's
``shard_fanout`` property models the extra region servers by widening
the map slots for makespan only — charges are never scaled.

Keyed routing: a LOOKUP read or EDIT-by-key write whose predicate pins
the shard key to a set of values is planned over the shards that own
those values' buckets only, and its candidate files come back in
canonical basename order — the files read, hence the charges, are the
same for every shard count.
"""

import json
from collections import defaultdict
from operator import itemgetter

from repro.common.errors import DualTableError
from repro.mapreduce.job import stable_hash, stable_hashes
from repro.hive.catalog import TableInfo, register_handler
from repro.hive.session import QueryResult
from repro.core.editlog import recover_edit_logs, run_with_retries
from repro.core.handler import DualTableHandler
from repro.core.lookup import NUM_BUCKETS, plan_lookup
from repro.core.manifest import (ManifestKind, ManifestProtocol, index_below,
                                 list_of, of)

#: ``SHOW SHARDS`` result columns.
SHARD_COLUMNS = ["shard", "buckets", "files", "rows", "master_bytes",
                 "attached_bytes", "heat"]


def rebalance_kind(num_shards):
    """REBALANCE's manifest 2PC (:mod:`repro.core.manifest`) on a table
    of ``num_shards``: spill both shards' new contents, commit, overwrite
    both children and persist the new shard map."""
    shard = index_below(num_shards)
    return ManifestKind(
        "dualtable.rebalance", ("spill", "manifest", "apply", "cleanup"),
        {"bucket": index_below(NUM_BUCKETS), "src": shard, "dst": shard,
         "assignment": list_of(shard, length=NUM_BUCKETS),
         "keep": of(str), "dest": of(str)},
        mode="rebalance")


class ShardMap:
    """Bucket -> shard assignment for one sharded table (persisted).

    The default assignment is ``bucket % num_shards``; REBALANCE edits
    it one bucket at a time and persists the result, so the map survives
    process restarts exactly like the master files do.
    """

    def __init__(self, fs, table_name, num_shards):
        self.fs = fs
        self.table_name = table_name
        self.num_shards = num_shards
        self.path = "/warehouse/%s/shardmap.json" % table_name
        loaded = self._load()
        self.assignment = (loaded if loaded is not None
                           else [b % num_shards for b in range(NUM_BUCKETS)])

    def _load(self):
        """The persisted assignment, or None if absent/torn/mismatched."""
        if not self.fs.exists(self.path):
            return None
        try:
            data = json.loads(
                self.fs.read_file_silent(self.path).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(data, dict) \
                or data.get("table") != self.table_name \
                or data.get("num_shards") != self.num_shards:
            return None
        assignment = data.get("assignment")
        if not isinstance(assignment, list) \
                or len(assignment) != NUM_BUCKETS \
                or not all(isinstance(s, int) and 0 <= s < self.num_shards
                           for s in assignment):
            return None
        return assignment

    def persist(self, assignment=None):
        if assignment is not None:
            self.assignment = list(assignment)
        payload = json.dumps({"table": self.table_name,
                              "num_shards": self.num_shards,
                              "assignment": self.assignment}).encode("utf-8")
        if self.fs.exists(self.path):
            self.fs.delete(self.path)
        self.fs.write_file(self.path, payload)

    @staticmethod
    def bucket_of(value):
        """The fixed hash bucket of one shard-key value."""
        return stable_hash(value) % NUM_BUCKETS

    def shard_of(self, value):
        return self.assignment[self.bucket_of(value)]

    def buckets_of(self, shard):
        return [b for b, s in enumerate(self.assignment) if s == shard]


class _ShardedMasterView:
    """Read-only facade presenting the children's masters as one.

    The inherited DualTable cost/statistics paths (`_estimate_ratio`,
    `_edit_scan_bytes`, plan choice, EXPLAIN sizing) consult
    ``handler.master`` for readers and byte totals; this view aggregates
    the child masters in shard order so those paths work unchanged.
    """

    def __init__(self, handler):
        self._handler = handler
        #: logical location: no files ever live here (children own the
        #: bytes), kept so cache-invalidation group keys stay harmless.
        self.location = "/warehouse/%s/master" % handler.table.name

    def _children(self):
        return self._handler.children

    def file_paths(self):
        return [path for child in self._children()
                for path in child.master.file_paths()]

    def readers(self):
        return [reader for child in self._children()
                for reader in child.master.readers()]

    def _owner(self, path):
        for child in self._children():
            if path.startswith(child.master.location + "/"):
                return child
        raise DualTableError("no shard of %s owns master file %s"
                             % (self._handler.table.name, path))

    def reader(self, path):
        return self._owner(path).master.reader(path)

    def file_meta(self, path):
        return self._owner(path).master.file_meta(path)

    def data_bytes(self):
        return sum(child.master.data_bytes() for child in self._children())

    def row_count(self):
        return sum(child.master.row_count() for child in self._children())

    def avg_row_bytes(self):
        rows = self.row_count()
        return (self.data_bytes() / rows) if rows else 0.0


class _ShardedAttachedView:
    """Aggregate facade over the children's attached tables.

    Carries only whole-table operations (sizes, emptiness, rates); the
    per-file-ID surface is deliberately absent — file IDs are allocated
    per child, so any file-keyed access must go through the owning
    child's attached table, never through this view.
    """

    def __init__(self, handler):
        self._handler = handler
        self.name = "dt_%s_attached" % handler.table.name

    def _children(self):
        return self._handler.children

    @property
    def backend(self):
        return self._children()[0].attached.backend

    @property
    def size_bytes(self):
        return sum(child.attached.size_bytes for child in self._children())

    def is_empty(self):
        return all(child.attached.is_empty() for child in self._children())

    def entry_count(self):
        return sum(child.attached.entry_count()
                   for child in self._children())

    def rates(self, profile):
        return self._children()[0].attached.rates(profile)

    def ensure_available(self):
        for child in self._children():
            child.attached.ensure_available()


class _ShardRouter:
    """Publish surface for shard-tagged edits.

    Record IDs in a sharded EDIT batch are ``(shard, record_id)`` pairs;
    publishing (and redo-log replay) unpacks the tag and writes the raw
    record ID into the owning child's Attached Table.
    """

    def __init__(self, children):
        self._children = children

    def put_update(self, key, new_values):
        shard, record_id = key
        self._children[shard].attached.put_update(record_id, new_values)

    def put_delete(self, key):
        shard, record_id = key
        self._children[shard].attached.put_delete(record_id)


class _ShardBatchTarget:
    """What :class:`EditBatch` / :func:`recover_edit_logs` need of a
    handler, for the *logical* sharded table.

    One statement stages exactly ONE redo log under the logical table's
    ``txn/`` directory regardless of the shard count — per-shard staging
    files would make the charged staging bytes (header overhead per
    file) depend on the shard count and break ledger identity.  The
    ``attached`` router then fans the published edits out to the owning
    children.
    """

    def __init__(self, handler):
        self.env = handler.env
        self.table = handler.table
        self.txn_dir = handler.txn_dir
        self.attached = _ShardRouter(handler.children)


class ShardedDualTableHandler(DualTableHandler):
    """N-region-server DualTable behind the single-table interface."""

    kind = "dualtable-sharded"

    def __init__(self, table, env):
        super().__init__(table, env)
        props = table.properties
        key = props.get("shard.key")
        if not key:
            raise DualTableError(
                "sharded table %s needs a shard.key property" % table.name)
        self.shard_key = str(key).lower()
        table.schema.index_of(self.shard_key)   # raises on unknown column
        self.num_shards = int(props.get("shard.count", 4))
        if self.num_shards < 1:
            raise DualTableError(
                "sharded table %s: shard.count must be >= 1" % table.name)
        self.shard_map = ShardMap(env.fs, table.name, self.num_shards)
        # Children are complete DualTables with their own master
        # directory, attached table, redo log and compaction state; they
        # are NOT registered in the metastore (only the logical table
        # is), so SQL can never address a shard directly.
        child_props = {k: v for k, v in props.items()
                       if not k.startswith("shard.")}
        self.children = []
        for index in range(self.num_shards):
            info = TableInfo(name="%s__s%d" % (table.name, index),
                             schema=table.schema, storage="dualtable",
                             properties=dict(child_props))
            info.handler = DualTableHandler(info, env)
            # All children allocate master-file IDs from the LOGICAL
            # table's counter: IDs are globally unique across shards
            # (record IDs can never collide between children) and the ID
            # sequence — hence every file's encoded metadata bytes — is
            # a function of the insert order alone, not the shard count.
            info.handler.master.table_name = table.name
            self.children.append(info.handler)
        # Swap in the aggregate facades so every inherited statistics /
        # cost-model / planning path sees the union of the shards.
        self.master = _ShardedMasterView(self)
        self.attached = _ShardedAttachedView(self)
        #: consumed by JobRunner: scatter-gather widens the map slots by
        #: the shard count for *makespan only* — charges never scale.
        self.shard_fanout = self.num_shards
        self._batch_target = _ShardBatchTarget(self)
        base = "/warehouse/%s" % table.name
        self.rebalancing = ManifestProtocol(
            env, table.name, base + "/rebalance.manifest",
            staging=(base + "/__rebalance__",))
        self._rebalance_kind = rebalance_kind(self.num_shards)
        #: heat counters are cumulative cluster metrics; the advisor and
        #: the rebalance decision subtract this in-memory baseline so a
        #: completed rebalance restarts the skew measurement from zero.
        self._heat_baseline = [0] * self.num_shards

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def create(self):
        for child in self.children:
            child.create()
        self.metadata.register_table(self.table.name)
        self.shard_map.persist()

    def drop(self):
        for child in self.children:
            child.drop()
        self.metadata.unregister_table(self.table.name)
        fs = self.env.fs
        for path in self.rebalancing.paths + (
                self.shard_map.path, "/warehouse/%s" % self.table.name):
            if fs.exists(path):
                fs.delete(path, recursive=True)

    # ------------------------------------------------------------------
    # Crash recovery.
    # ------------------------------------------------------------------
    def recover(self):
        """Heal every shard plus any interrupted rebalance; idempotent.

        A rebalance that reached its manifest is reported as a
        rolled-forward DML entry so server-side recovery accounting
        counts the statement as committed.
        """
        dml = []
        compact_outcomes = []
        for child in self.children:
            outcome = child.recover()
            dml.extend(outcome.get("dml", ()))
            compact_outcomes.append(outcome.get("compact", "clean"))
        # Statement-level redo logs live on the logical table (one per
        # EDIT statement, shard-tagged); replay routes through children.
        dml.extend(recover_edit_logs(self._batch_target))
        rebalance = self.rebalancing.recover(
            {self._rebalance_kind: self._apply_rebalance})
        if rebalance == "rolled_forward":
            self.env.cluster.metrics.incr(
                "shard.rebalance.recovered.%s" % self.table.name)
            dml.append(("rebalance:%s" % self.table.name, "rolled_forward"))
        if "rolled_forward" in compact_outcomes:
            compact = "rolled_forward"
        elif "rolled_back" in compact_outcomes:
            compact = "rolled_back"
        else:
            compact = "clean"
        self.note_attached_bytes()
        return {"compact": compact, "dml": dml, "rebalance": rebalance}

    def _ensure_recovered(self):
        if self._compacting:
            return
        fs = self.env.fs
        if any(map(fs.exists, self.rebalancing.paths)) \
                or fs.exists(self.txn_dir) and fs.list_files(self.txn_dir):
            self.recover()
        for child in self.children:
            child._ensure_recovered()

    # ------------------------------------------------------------------
    # Writes (bucket-grouped for layout determinism).
    # ------------------------------------------------------------------
    def insert_rows(self, rows, overwrite=False):
        self._check_not_compacting()
        self._ensure_recovered()
        rows = list(rows)
        assignment = self.shard_map.assignment
        self._insert_bucketed(rows, self.children if overwrite else (),
                              lambda bucket: self.children[assignment[bucket]])
        if overwrite:
            self.note_attached_bytes()
        return len(rows)

    def _insert_bucketed(self, rows, replace, child_of):
        """One append per bucket, ascending: files never span buckets, so
        the physical file set is independent of the shard count.

        A child in ``replace`` is overwritten by the first bucket that
        reaches it — emptying it first would leave a zero-row master
        file behind, and every later job a task to read it — or emptied
        at the end when no row does.
        """
        buckets = self._rows_by_bucket(rows)
        replace = list(replace)
        for bucket in sorted(buckets):
            child = child_of(bucket)
            child.insert_rows(buckets[bucket], overwrite=child in replace)
            if child in replace:
                replace.remove(child)
        for child in replace:
            child.insert_rows([], overwrite=True)

    def _rows_by_bucket(self, rows):
        """``{bucket: [row, ...]}`` in row order, the shard-key column
        hashed in one bulk pass."""
        keys = map(itemgetter(self.schema.index_of(self.shard_key)), rows)
        buckets = defaultdict(list)
        for digest, row in zip(stable_hashes(list(keys)), rows):
            buckets[digest % NUM_BUCKETS].append(row)
        return buckets

    def note_attached_bytes(self):
        total = 0
        for child in self.children:
            child.note_attached_bytes()
            total += child.attached.size_bytes
        self.env.cluster.metrics.gauge(
            "dualtable.attached_bytes.%s" % self.table.name, total)

    # ------------------------------------------------------------------
    # Reads (scatter-gather UNION READ: one job over all shards).
    # ------------------------------------------------------------------
    def scan_splits(self, projection=None, ranges=None):
        self._check_not_compacting()
        self._ensure_recovered()
        metrics = self.env.cluster.metrics
        metrics.incr("dualtable.scans.%s" % self.table.name)
        splits = []
        total_bytes = 0
        for index, child in enumerate(self.children):
            for split in child.scan_splits(projection, ranges):
                split.payload["shard"] = index
                splits.append(split)
                total_bytes += split.size_bytes
        # Canonical global order: master file ids are allocated from the
        # logical table's counter, so *basename* order (the id, not the
        # shard directory) is the same for every shard count — charging
        # order, shuffle sampling, and float accumulation in the ledger
        # stay byte-identical across INTO 1/4/8.
        splits.sort(
            key=lambda s: s.payload.get("path", "").rsplit("/", 1)[-1])
        metrics.observe("dualtable.scan_bytes.%s" % self.table.name,
                        total_bytes)
        return splits

    def _split_child(self, split):
        return self.children[split.payload.get("shard", 0)]

    def read_split_batches(self, split, ctx, batch_rows=None):
        return self._split_child(split).read_split_batches(
            split, ctx, batch_rows=batch_rows)

    # ------------------------------------------------------------------
    # Keyed access (LOOKUP and EDIT-by-key over the owning shards).
    # ------------------------------------------------------------------
    def _owning_shards(self, ranges):
        """The shards a keyed plan must consult, or None to scan.

        An equality/IN predicate on the shard key pins the shards that
        own its values' buckets; a predicate that leaves the shard key
        open consults every shard (the PRIMARY KEY still bounds what
        each reads).
        """
        shard_range = (ranges or {}).get(self.shard_key)
        if shard_range is None or shard_range.in_set is None:
            return list(range(self.num_shards))
        # ``=`` coerces across types ('9' = 9) where the bucket hash
        # does not: only a key of the column's own type pins a shard.
        key_type = self.schema.column(self.shard_key).python_type
        if not {key_type}.issuperset(map(type, shard_range.in_set)):
            return None
        return sorted({self.shard_map.shard_of(value)
                       for value in shard_range.in_set})

    def plan_lookup(self, ranges, projection=None, hit_faults=True):
        shards = self._owning_shards(ranges)
        if shards is None:
            return None
        return plan_lookup(self, ranges, projection=projection,
                           hit_faults=hit_faults,
                           sources=[(s, self.children[s]) for s in shards])

    def execute_lookup(self, plan, batch_rows=None, where=None):
        # The inherited read charges each candidate on its owning child
        # (``read_split_batches`` routes by the payload's shard tag) and
        # emits the plan/audit series once, under the logical table;
        # the wrapper adds per-shard routing evidence.
        rows, examined, observed, detail = super().execute_lookup(
            plan, batch_rows=batch_rows, where=where)
        metrics = self.env.cluster.metrics
        for shard in plan.shards:
            metrics.incr("shard.lookups.%s.%d" % (self.table.name, shard))
            metrics.incr("shard.heat.%s.%d" % (self.table.name, shard))
        detail["shard"] = plan.shard
        return rows, examined, observed, detail

    # ------------------------------------------------------------------
    # EDIT-plan DML: the core batch EDIT scan, one job over every shard
    # (``read_split_batches`` above routes each split to its child).
    # ------------------------------------------------------------------
    def _plan_for(self, edit, cost_plan):
        # Keyed reads look for a key only on the shard that owns its
        # bucket.  An EDIT that assigns the shard key would leave the row
        # on its old key's shard — for good, as COMPACT folds in place —
        # so it rewrites instead, which re-buckets every row.
        if self.primary_key is not None \
                and self.schema.index_of(self.shard_key) in edit.targets:
            return "overwrite"
        return super()._plan_for(edit, cost_plan)

    def _edit_keys(self, payload, record_ids):
        shard = payload.get("shard", 0)
        return [(shard, record_id) for record_id in record_ids]

    def _commit_or_defer(self, session, batch):
        """Commit (or defer) the statement's routed batch.

        Heat accounting reads the shard tags off the edit list before
        publish unpacks them; the batch then commits — or, under an
        optimistic server transaction, defers under the logical table
        name — exactly like an unsharded one.
        """
        edits = batch.edits
        if not edits:
            return 0.0
        metrics = self.env.cluster.metrics
        table = self.table.name
        per_shard = {}
        for _, key, _ in edits:
            per_shard[key[0]] = per_shard.get(key[0], 0) + 1
        for shard in sorted(per_shard):
            metrics.incr("shard.dml_rows.%s.%d" % (table, shard),
                         per_shard[shard])
            metrics.incr("shard.heat.%s.%d" % (table, shard),
                         per_shard[shard])
        return super()._commit_or_defer(session, batch)

    # ------------------------------------------------------------------
    # COMPACT (per shard; the logical statement folds every child).
    # ------------------------------------------------------------------
    def compaction_units(self):
        """Independently compactable units (the auto-compaction daemon
        decides and runs per child, so one hot shard compacts alone)."""
        return list(self.children)

    def execute_compact(self, session, major=True, partial=False,
                        max_files=None, victim_paths=None):
        self._check_not_compacting()
        self._ensure_recovered()
        sim_seconds = 0.0
        jobs = []
        affected = 0
        folded_bytes = 0
        files = 0
        rows_written = 0
        attached_bytes = self.attached.size_bytes
        for child in self.children:
            result = child.execute_compact(
                session, major=major, partial=partial, max_files=max_files,
                victim_paths=victim_paths)
            sim_seconds += result.sim_seconds
            jobs.extend(result.jobs)
            affected += result.affected
            folded_bytes += result.detail.get("folded_bytes", 0)
            files += result.detail.get("files", 0)
            rows_written += result.detail.get("rows_written", 0)
        self.note_attached_bytes()
        return QueryResult(
            sim_seconds=sim_seconds, jobs=jobs, affected=affected,
            plan="compact",
            detail={"attached_bytes": attached_bytes,
                    "folded_bytes": folded_bytes,
                    "mode": "sharded", "files": files,
                    "shards": self.num_shards,
                    "rows_written": rows_written})

    # ------------------------------------------------------------------
    # SHOW SHARDS / heat accounting.
    # ------------------------------------------------------------------
    def shard_heats(self):
        """Per-shard heat (routed lookups + DML delta rows) since the
        last rebalance."""
        metrics = self.env.cluster.metrics
        table = self.table.name
        return [max(0, metrics.counter("shard.heat.%s.%d" % (table, index))
                    - self._heat_baseline[index])
                for index in range(self.num_shards)]

    def _reset_heat_baseline(self):
        metrics = self.env.cluster.metrics
        table = self.table.name
        self._heat_baseline = [
            metrics.counter("shard.heat.%s.%d" % (table, index))
            for index in range(self.num_shards)]

    def shard_rows(self):
        """``SHOW SHARDS`` rows (see :data:`SHARD_COLUMNS`)."""
        heats = self.shard_heats()
        rows = []
        for index, child in enumerate(self.children):
            rows.append((index,
                         len(self.shard_map.buckets_of(index)),
                         len(child.master.file_paths()),
                         child.master.row_count(),
                         child.master.data_bytes(),
                         child.attached.size_bytes,
                         heats[index]))
        return rows

    # ------------------------------------------------------------------
    # REBALANCE (deterministic one-bucket 2PC move).
    # ------------------------------------------------------------------
    def execute_rebalance(self, session):
        """Move the hottest shard's lowest bucket to the coldest shard.

        Major-compacts source and destination first, so the move copies
        master rows only; then one manifest 2PC run
        (:func:`rebalance_kind`): prepare spills the *complete* new
        contents of both shards as JSON, the manifest commits, and
        :meth:`_apply_rebalance` overwrites both children and persists
        the new shard map.
        """
        self._check_not_compacting()
        self._ensure_recovered()
        src, dst, heats = self._rebalance_choice()
        if src is None:
            return QueryResult(
                sim_seconds=0.0, jobs=[], affected=0,
                plan="rebalance-noop",
                detail={"heats": heats, "reason": "balanced"})
        bucket = min(self.shard_map.buckets_of(src))
        cluster = self.env.cluster
        fs = self.env.fs
        table = self.table.name
        assignment = list(self.shard_map.assignment)
        assignment[bucket] = dst
        moved = []
        with cluster.tracer.span("phase", "dualtable:rebalance",
                                 table=table, bucket=bucket,
                                 src=src, dst=dst):
            # Fold both shards' deltas first: the spill then only has to
            # carry master rows, and the attached stores stay empty
            # through the move.
            fold_src = self.children[src].execute_compact(session)
            fold_dst = self.children[dst].execute_compact(session)
            sim_seconds = fold_src.sim_seconds + fold_dst.sim_seconds
            jobs = list(fold_src.jobs) + list(fold_dst.jobs)
            key_idx = self.schema.index_of(self.shard_key)

            def spill(staging):
                src_rows = list(self.children[src].read_all_rows())
                dst_rows = list(self.children[dst].read_all_rows())
                keep = []
                del moved[:]
                for row in src_rows:
                    if ShardMap.bucket_of(row[key_idx]) == bucket:
                        moved.append(list(row))
                    else:
                        keep.append(list(row))
                dest = [list(row) for row in dst_rows] + moved
                fields = {"bucket": bucket, "src": src, "dst": dst,
                          "assignment": assignment,
                          "keep": staging + "/keep.json",
                          "dest": staging + "/dest.json"}
                fs.write_file(fields["keep"], json.dumps(keep).encode("utf-8"))
                fs.write_file(fields["dest"], json.dumps(dest).encode("utf-8"))
                return fields

            sim_seconds += run_with_retries(
                session, lambda: self.rebalancing.run(
                    self._rebalance_kind, spill, self._apply_rebalance),
                "rebalance-commit")
        metrics = cluster.metrics
        metrics.incr("shard.rebalances.%s" % table)
        metrics.observe("shard.rebalance.moved_rows", len(moved))
        return QueryResult(
            sim_seconds=sim_seconds, jobs=jobs, affected=len(moved),
            plan="rebalance",
            detail={"bucket": bucket, "src": src, "dst": dst,
                    "moved_rows": len(moved), "heats": heats})

    def _rebalance_choice(self):
        """``(src, dst, heats)`` — deterministic, or ``(None, None, h)``.

        Hottest shard donates (ties -> lowest index), coldest receives
        (ties -> lowest index); no-op when already balanced, when one
        shard holds everything worth nothing, or when the donor owns no
        buckets.
        """
        heats = self.shard_heats()
        if self.num_shards < 2:
            return None, None, heats
        indices = range(self.num_shards)
        src = max(indices, key=lambda i: (heats[i], -i))
        dst = min(indices, key=lambda i: (heats[i], i))
        if src == dst or heats[src] <= heats[dst] \
                or not self.shard_map.buckets_of(src):
            return None, None, heats
        return src, dst, heats

    def _apply_rebalance(self, manifest, hit):
        """Overwrite both shards from their spills, persist the new map
        and restart the heat measurement; idempotent.

        Spill files carry each shard's *complete* new contents, so apply
        is a pure overwrite and replaying any prefix converges: an
        already-applied spill file is still present until cleanup, and
        re-overwriting with it is a no-op in content terms.
        """
        fs = self.env.fs
        hit("apply")
        for key, shard in (("keep", manifest["src"]),
                           ("dest", manifest["dst"])):
            path = manifest[key]
            if fs.exists(path):
                rows = [tuple(self.schema.coerce_row(row))
                        for row in json.loads(
                            fs.read_file(path).decode("utf-8"))]
                child = self.children[shard]
                self._insert_bucketed(rows, [child], lambda bucket: child)
        self.shard_map.persist(manifest["assignment"])
        self._reset_heat_baseline()
        hit("cleanup")


register_handler("dualtable-sharded", ShardedDualTableHandler)
