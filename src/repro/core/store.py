"""One DualTable store: the paper's storage pair (Section III), a Master
Table of ORC files on HDFS plus the Attached Table of their deltas.

A store reads (UNION READ), writes and COMPACTs its own files; it holds
no table setting and plans nothing.  The table
(:class:`~repro.core.handler.DualTableHandler`) plans over one store, or
one per shard, through a router (:class:`StoreRouter` when plain).
"""

from repro.common.errors import DualTableError
from repro.mapreduce import InputSplit
from repro.hive.pushdown import make_stripe_filter
from repro.core.attached import AttachedTable
from repro.core.editlog import run_with_retries
from repro.core.manifest import ManifestKind, ManifestProtocol, list_of, of
from repro.core.master import FILE_ID_KEY, MasterTable
from repro.core.union_read import classify_merge_units, union_read_overlay
from repro.parallel import parallel_map

#: DualTable table properties: key -> (default, allowed values or the
#: least integer allowed).
SETTINGS = {
    "dualtable.mode": ("cost", ("cost", "edit", "overwrite")),
    "dualtable.read_factor": (1, 1),
    "dualtable.lookup.max_rows": (10_000, 0),
    "dualtable.attached": ("hbase", ("hbase", "btree")),
    "orc.rows_per_file": (50_000, 1),
    "orc.stripe_rows": (5_000, 1),
    "shard.count": (4, 1),
}


def setting(properties, key):
    """Table property ``key`` of ``properties`` (its default when absent),
    parsed and checked; a bad value is a :class:`DualTableError`."""
    default, allowed = SETTINGS[key]
    value = properties.get(key, default)
    if isinstance(allowed, tuple):
        choice = str(value).lower()
        if choice not in allowed:
            raise DualTableError("%s must be one of %s, got %r"
                                 % (key, "/".join(allowed), value))
        return choice
    if type(value) is float and value.is_integer():
        value = int(value)      # ``SET DUALTABLE (read_factor = 2.0)``
    try:
        number = value if type(value) is int else int(str(value))
    except ValueError:
        raise DualTableError("%s must be an integer, got %r"
                             % (key, value)) from None
    if number < allowed:
        raise DualTableError("%s must be >= %d, got %r"
                             % (key, allowed, value))
    return number


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


class DualTableStore:
    """One Master Table + Attached Table pair, named ``name``.

    Master file IDs come from the table's counter (``table.name``), so
    record IDs never collide between one table's stores.  ``key_index``
    is the PRIMARY KEY column its files are sorted by.  ``shard`` is its
    index on a sharded table: its splits carry it, and it counts its
    scans under its own name too.
    """

    def __init__(self, name, table, env, metadata, key_index=None,
                 shard=None):
        props = table.properties
        self.name = name
        self.shard = shard
        self.env = env
        self.schema = table.schema
        self.master = MasterTable(
            fs=env.fs,
            location="/warehouse/%s/master" % name,
            schema=table.schema,
            metadata_manager=metadata,
            table_name=table.name,
            rows_per_file=setting(props, "orc.rows_per_file"),
            stripe_rows=setting(props, "orc.stripe_rows"),
            key_index=key_index,
        )
        self.attached = AttachedTable(
            env.hbase, "dt_%s_attached" % name,
            backend=setting(props, "dualtable.attached"))
        # The COMPACT two-phase-commit paths (siblings of the master
        # directory, never inside it).  ``master.__old__`` holds the
        # pre-swap master during a full COMPACT's swap.
        base = "/warehouse/%s" % name
        old = base + "/master.__old__"
        self.compaction = ManifestProtocol(
            env, name, base + "/compact.manifest",
            staging=(base + "/master.__compact__", old),
            restore={old: self.master.location})

    # ------------------------------------------------------------------
    # Lifecycle and recovery.
    # ------------------------------------------------------------------
    def create(self):
        self.master.create()
        self.attached.create()
        self.master.metadata.register_table(self.name)

    def drop(self):
        self.attached.drop()
        self.master.metadata.unregister_table(self.name)
        base = "/warehouse/%s" % self.name     # master and COMPACT paths
        if self.env.fs.exists(base):
            self.env.fs.delete(base, recursive=True)

    def recover(self):
        """Finish or undo an interrupted COMPACT; ``"rolled_forward"``,
        ``"rolled_back"`` or ``"clean"``.  Idempotent."""
        outcome = self.compaction.recover(
            {FULL_COMPACT: self._apply_full_compact,
             PARTIAL_COMPACT: self._apply_partial_compact})
        if outcome == "rolled_back":
            self._invalidate_master_cache()
        return outcome

    def note_attached_bytes(self):
        """Refresh the live Attached-Table size gauge of this store.

        Every path that grows or shrinks the Attached Table calls this,
        so the auto-compaction daemon and SHOW METRICS see delta
        accumulation between compactions, not just the post-COMPACT zero.
        """
        self.env.cluster.metrics.gauge(
            "dualtable.attached_bytes.%s" % self.name,
            self.attached.size_bytes)

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

    def write(self, rows, overwrite=False):
        """Append ``rows`` as new master files, or replace the store's
        contents (master and deltas) with them."""
        if overwrite:
            self.master.replace_with(rows)
            self.attached.clear()
            self._invalidate_master_cache()
            self.note_attached_bytes()
        else:
            self.master.write_rows(rows)

    # ------------------------------------------------------------------
    # Reads (UNION READ of one master file).
    # ------------------------------------------------------------------
    def scan_splits(self, projection=None, ranges=None):
        """One split per master file; stripe pruning only where the file
        has no deltas (an update could move a row into the range)."""
        # Recover the Attached store up front: the per-file fan-out below
        # may run on pool workers, and a WAL replay must happen (and be
        # charged) exactly once, before any of them look at key ranges.
        self.attached.ensure_available()

        def split_for(path):
            reader = self.master.reader(path)
            file_id = int(reader.metadata[FILE_ID_KEY])
            prune_safe = not self.attached.has_entries_in_file(file_id)
            return InputSplit(
                payload={"path": path, "file_id": file_id,
                         "projection": projection,
                         "ranges": (ranges or {}) if prune_safe else {},
                         "prune_safe": prune_safe},
                size_bytes=reader.projected_bytes(projection),
                label=path)

        splits = self._tagged(parallel_map(self.env.cluster, split_for,
                                           self.master.file_paths()))
        if self.shard is not None:
            metrics = self.env.cluster.metrics
            metrics.incr("dualtable.scans.%s" % self.name)
            metrics.observe("dualtable.scan_bytes.%s" % self.name,
                            sum(split.size_bytes for split in splits))
        return splits

    def _tagged(self, splits):
        if self.shard is not None:
            for split in splits:
                split.payload["shard"] = self.shard
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
        for name, units in (("batches_fast", fast),
                            ("batches_overlay", dirty)):
            if units:
                metrics.incr("unionread.%s" % name, units)
                metrics.incr("unionread.%s.%s" % (name, self.name), units)

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
            # Per-store delta churn: how much merge work reads on this
            # table keep paying for (advisor read-overhead evidence).
            metrics.incr("unionread.deltas_applied.%s" % self.name,
                         stats["deltas_applied"])
        for name in ("rows_deleted", "deltas_skipped", "trailing_deltas"):
            if stats.get(name):
                metrics.incr("unionread.%s" % name, stats[name])

    def _projection_map(self, projection):
        schema = self.schema
        if projection is None:
            return {i: i for i in range(len(schema))}
        return {schema.index_of(name): pos
                for pos, name in enumerate(projection)}

    # ------------------------------------------------------------------
    # COMPACT (Section III-C): fold the Attached Table into the Master.
    # ------------------------------------------------------------------
    def compact_candidates(self, victim_paths=None):
        """Every dirty master file (of ``victim_paths``, if given) with
        its delta and master sizes, in path order.

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
            candidates.append({"path": path, "file_id": file_id,
                               "delta_bytes": delta_bytes,
                               "delta_entries": delta_entries,
                               "master_bytes":
                                   max(1, self.env.fs.file_size(path))})
        return candidates

    def compact_splits(self, paths=None):
        """One unpruned split per master file (of ``paths``, if given)."""
        splits = []
        for path in (paths if paths is not None
                     else self.master.file_paths()):
            reader = self.master.reader(path)
            splits.append(InputSplit(
                payload={"path": path,
                         "file_id": int(reader.metadata[FILE_ID_KEY]),
                         "projection": None, "ranges": {},
                         "prune_safe": False},
                size_bytes=reader.projected_bytes(None),
                label=path))
        return self._tagged(splits)

    def fold(self, session, plan, rows, victims=None):
        """Commit one COMPACT's merged ``rows``: write them into staging,
        commit the manifest, then swap them in for every master file
        (``victims`` None) or for the victims only.  Returns the commit's
        simulated seconds."""
        kind, apply = (FULL_COMPACT, self._apply_full_compact)
        if victims is not None:
            kind, apply = (PARTIAL_COMPACT, self._apply_partial_compact)

        def prepare(staging):
            new_paths = self.master.write_rows(rows, directory=staging)
            fields = {"tmp": staging, "location": self.master.location,
                      "rows": len(rows)}
            if victims is not None:
                fields.update(
                    old_paths=[v["path"] for v in victims],
                    folded_file_ids=[v["file_id"] for v in victims],
                    new_names=[p.rsplit("/", 1)[1] for p in new_paths])
            return fields

        return run_with_retries(
            session, lambda: self.compaction.run(kind, prepare, apply),
            plan + "-commit")

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


class StoreRouter:
    """A plain table's router: its one store gets every row and key.

    A router answers which store each inserted row goes to (``layout``:
    ``[(store index, rows)]``, one append each), which stores a keyed
    read consults (``pinned``, None to scan) and how an EditBatch key
    names its store (``edit_keys``, ``store_of``).  A sharded table
    routes by its shard map (:mod:`repro.shard.sharded`) and counts
    heat (``note_lookup``, ``note_edits``).
    """

    #: stores are shards: each counts its own scans, splits and keys name
    #: it, and COMPACT reports the sum over shards.
    bucketed = False

    def create(self):
        """Persist routing state (none here)."""

    def layout(self, rows):
        return [(0, rows)]      # one append, a zero-row file for no rows

    def pinned(self, ranges):
        return [0]

    def assigns_key(self, targets):
        """Whether assigning the ``targets`` columns moves a row's store."""
        return False

    def edit_keys(self, index, record_ids):
        return record_ids

    def store_of(self, key):
        return 0, key

    def note_lookup(self, plan, detail):
        pass

    def note_edits(self, edits):
        pass
