"""Sharded DualTable: one table over N stores, routed by a shard map.

A sharded table ``t`` is a :class:`~repro.core.handler.DualTableHandler`
whose stores are ``t__s0 .. t__s<n-1>``, each a master-ORC +
attached-HBase pair on its own simulated region server, and whose router
(:class:`_ShardRouter`) sends rows by a 64-bucket hash of the declared
shard key.  The bucket -> shard assignment (the *shard map*) is
persisted next to the table and can be rebalanced one bucket at a time,
a move committed by the manifest 2PC (:mod:`repro.core.manifest`).
Reads, DML and COMPACT are the plain table's code paths; only REBALANCE,
shard heat and SHOW SHARDS live here.

Determinism contract: the *physical layout* is a function of the data
and the bucket hash alone, never of the shard count.  An insert groups
rows by bucket and writes each bucket as its own append, so ORC files
never span buckets — the file set (sizes, row groups, encoded bytes) is
byte-identical whether the 64 buckets live on 1, 4 or 8 shards, which
keeps ledger totals and data-path counters identical too.  Shard count
only changes *placement* (which store owns a file) and the simulated
makespan (scatter-gather fan-out via ``shard_fanout``).

Keyed routing: a LOOKUP read or EDIT-by-key write whose predicate pins
the shard key to a set of values is planned over the shards that own
those values' buckets only, and its candidate files come back in
canonical basename order — the files read, hence the charges, are the
same for every shard count.
"""

import json
from collections import Counter, defaultdict
from operator import itemgetter

from repro.common.errors import DualTableError
from repro.mapreduce.job import stable_hashes
from repro.hive.catalog import register_handler
from repro.hive.session import QueryResult
from repro.core.editlog import run_with_retries
from repro.core.handler import DualTableHandler
from repro.core.lookup import NUM_BUCKETS
from repro.core.manifest import (ManifestKind, ManifestProtocol, index_below,
                                 list_of, of)
from repro.core.store import StoreRouter, setting
from repro.shard.shardmap import ShardMap

#: ``SHOW SHARDS`` result columns.
SHARD_COLUMNS = ["shard", "buckets", "files", "rows", "master_bytes",
                 "attached_bytes", "heat"]


def rebalance_kind(num_shards):
    """REBALANCE's manifest 2PC (:mod:`repro.core.manifest`) on a table
    of ``num_shards``: spill both shards' new contents, commit, overwrite
    both shards and persist the new shard map."""
    shard = index_below(num_shards)
    return ManifestKind(
        "dualtable.rebalance", ("spill", "manifest", "apply", "cleanup"),
        {"bucket": index_below(NUM_BUCKETS), "src": shard, "dst": shard,
         "assignment": list_of(shard, length=NUM_BUCKETS),
         "keep": of(str), "dest": of(str)},
        mode="rebalance")


class _ShardRouter(StoreRouter):
    """Routes a sharded table's rows, keyed reads and EditBatch keys by
    its :class:`ShardMap`, and counts each shard's heat: the lookups
    routed to it plus the delta rows DML wrote there."""

    bucketed = True

    def __init__(self, shard_map, schema, key, env, table_name):
        self.shard_map = shard_map
        self.key = key
        self.key_index = schema.index_of(key)   # raises on unknown column
        self.key_type = schema.column(key).python_type
        self._env = env
        self._table = table_name

    def create(self):
        self.shard_map.persist()

    def buckets(self, rows):
        """``{bucket: [row, ...]}`` in row order, the shard-key column
        hashed in one bulk pass."""
        keys = map(itemgetter(self.key_index), rows)
        buckets = defaultdict(list)
        for digest, row in zip(stable_hashes(list(keys)), rows):
            buckets[digest % NUM_BUCKETS].append(row)
        return buckets

    def layout(self, rows, shard=None):
        """One append per bucket, ascending: files never span buckets, so
        the physical file set is independent of the shard count.
        ``shard`` takes every bucket (REBALANCE refilling one shard)."""
        buckets = self.buckets(rows)
        assignment = self.shard_map.assignment
        return [(assignment[bucket] if shard is None else shard,
                 buckets[bucket]) for bucket in sorted(buckets)]

    def pinned(self, ranges):
        """The shards a keyed plan must consult, or None to scan.

        An equality/IN predicate on the shard key pins the shards that
        own its values' buckets; a predicate that leaves the shard key
        open consults every shard (the PRIMARY KEY still bounds what
        each reads).
        """
        shard_range = (ranges or {}).get(self.key)
        if shard_range is None or shard_range.in_set is None:
            return list(range(self.shard_map.num_shards))
        # ``=`` coerces across types ('9' = 9) where the bucket hash
        # does not: only a key of the column's own type pins a shard.
        if not {self.key_type}.issuperset(map(type, shard_range.in_set)):
            return None
        return sorted({self.shard_map.shard_of(value)
                       for value in shard_range.in_set})

    def assigns_key(self, targets):
        return self.key_index in targets

    def edit_keys(self, index, record_ids):
        return [(index, record_id) for record_id in record_ids]

    def store_of(self, key):
        return key

    def note_lookup(self, plan, detail):
        metrics = self._env.cluster.metrics
        for shard in plan.shards:
            metrics.incr("shard.lookups.%s.%d" % (self._table, shard))
            metrics.incr("shard.heat.%s.%d" % (self._table, shard))
        detail["shard"] = plan.shard

    def note_edits(self, edits):
        metrics = self._env.cluster.metrics
        per_shard = Counter(key[0] for _, key, _ in edits)
        for shard, rows in sorted(per_shard.items()):
            metrics.incr("shard.dml_rows.%s.%d" % (self._table, shard), rows)
            metrics.incr("shard.heat.%s.%d" % (self._table, shard), rows)


class _Sizes:
    """Only the two table sizes perfbench's harness reads off a handler's
    ``master`` and ``attached``; delete both with its next change."""

    def __init__(self, shards):
        self._shards = shards

    def data_bytes(self):
        return sum(shard.master.data_bytes() for shard in self._shards)

    @property
    def size_bytes(self):
        return sum(shard.attached.size_bytes for shard in self._shards)


class ShardedDualTableHandler(DualTableHandler):
    """A DualTable over one store per shard, routed by a persisted
    :class:`ShardMap`.  Reads, DML and COMPACT are the plain table's;
    this class adds REBALANCE, shard heat and SHOW SHARDS."""

    def __init__(self, table, env):
        key = table.properties.get("shard.key")
        if not key:
            raise DualTableError(
                "sharded table %s needs a shard.key property" % table.name)
        self.shard_key = str(key).lower()
        self.num_shards = setting(table.properties, "shard.count")
        self.shard_map = ShardMap(env.fs, table.name, self.num_shards)
        super().__init__(
            table, env,
            ["%s__s%d" % (table.name, index)
             for index in range(self.num_shards)],
            _ShardRouter(self.shard_map, table.schema, self.shard_key, env,
                         table.name))
        self.master = self.attached = _Sizes(self.shards)
        base = "/warehouse/%s" % table.name
        self.rebalancing = ManifestProtocol(
            env, table.name, base + "/rebalance.manifest",
            staging=(base + "/__rebalance__",))
        self._protocols.append(self.rebalancing)
        self._rebalance_kind = rebalance_kind(self.num_shards)
        #: heat counters are cumulative cluster metrics; the advisor and
        #: the rebalance decision subtract this in-memory baseline so a
        #: completed rebalance restarts the skew measurement from zero.
        self._heat_baseline = [0] * self.num_shards

    def _recover_table_commits(self, outcome):
        """Finish an interrupted REBALANCE.  One that reached its
        manifest is reported as a rolled-forward DML entry so
        server-side recovery accounting counts the statement as
        committed."""
        outcome["rebalance"] = self.rebalancing.recover(
            {self._rebalance_kind: self._apply_rebalance})
        if outcome["rebalance"] == "rolled_forward":
            self.env.cluster.metrics.incr(
                "shard.rebalance.recovered.%s" % self.table.name)
            outcome["dml"].append(("rebalance:%s" % self.table.name,
                                   "rolled_forward"))

    # ------------------------------------------------------------------
    # SHOW SHARDS / heat accounting.
    # ------------------------------------------------------------------
    def shard_heats(self):
        """Per-shard heat (routed lookups + DML delta rows) since the
        last rebalance."""
        return [max(0, heat - base) for heat, base
                in zip(self._heat_counters(), self._heat_baseline)]

    def _heat_counters(self):
        metrics = self.env.cluster.metrics
        return [metrics.counter("shard.heat.%s.%d" % (self.table.name, index))
                for index in range(self.num_shards)]

    def shard_rows(self):
        """``SHOW SHARDS`` rows (see :data:`SHARD_COLUMNS`)."""
        heats = self.shard_heats()
        return [(index, len(self.shard_map.buckets_of(index)),
                 len(child.master.file_paths()), child.master.row_count(),
                 child.master.data_bytes(), child.attached.size_bytes,
                 heats[index])
                for index, child in enumerate(self.shards)]

    # ------------------------------------------------------------------
    # REBALANCE (deterministic one-bucket 2PC move).
    # ------------------------------------------------------------------
    def execute_rebalance(self, session):
        """Move the hottest shard's lowest bucket to the coldest shard.

        Major-compacts source and destination first, so the move copies
        master rows only; then one manifest 2PC run
        (:func:`rebalance_kind`): prepare spills the *complete* new
        contents of both shards as JSON, the manifest commits, and
        :meth:`_apply_rebalance` overwrites both shards and persists
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
            fold_src = self.execute_compact(session, store=src)
            fold_dst = self.execute_compact(session, store=dst)
            sim_seconds = fold_src.sim_seconds + fold_dst.sim_seconds
            jobs = list(fold_src.jobs) + list(fold_dst.jobs)
            key_idx = self.schema.index_of(self.shard_key)

            def spill(staging):
                src_rows = list(self._store_rows(src))
                dst_rows = list(self._store_rows(dst))
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
                self._write(self.router.layout(rows, shard),
                            [self.shards[shard]])
        self.shard_map.persist(manifest["assignment"])
        self._heat_baseline = self._heat_counters()
        hit("cleanup")

    def _store_rows(self, index):
        """Every merged row of one shard (a charged read, like a scan)."""
        for split in self.shards[index].scan_splits():
            for batch in self.read_split_batches(split, None):
                yield from batch.rows()


register_handler("dualtable-sharded", ShardedDualTableHandler)
