"""The Attached Table: HBase-backed store of row modifications.

Data layout (Section V-B):

* HBase row key   = the DualTable record ID (sorted == master order),
* UPDATE info     = one cell per updated field; the qualifier encodes the
  Hive column number, the cell value the new field value,
* DELETE info     = a special marker cell (``D``) in the record's row.

HBase multi-versioning tracks the change history of each field for free —
the paper calls this out as an advantage over Hive ACID deltas.
"""

import struct

from dataclasses import dataclass, field

from repro.common.errors import CorruptDeltaError, HBaseError
from repro.core.record_id import decode_record_id, file_key_range
from repro.hive.valuecodec import decode_value, encode_value

DELETE_MARKER = b"D"
_UPDATE_PREFIX = b"u"
#: what a value this library did not write makes the value codec raise.
DECODE_ERRORS = (HBaseError, struct.error, UnicodeDecodeError)


def update_qualifier(column_index):
    return _UPDATE_PREFIX + struct.pack(">H", column_index)


def parse_qualifier(qualifier):
    """Return ('delete', None) or ('update', column_index)."""
    if qualifier == DELETE_MARKER:
        return "delete", None
    if qualifier[:1] == _UPDATE_PREFIX and len(qualifier) == 3:
        return "update", struct.unpack(">H", qualifier[1:])[0]
    return "unknown", None


def corrupt_delta(table, record_id, problem):
    return CorruptDeltaError("attached table %s, record id %s: %s"
                             % (table, record_id.hex(), problem))


@dataclass
class DeltaRecord:
    """Resolved modification state of one record ID."""

    deleted: bool = False
    updates: dict = field(default_factory=dict)   # column_index -> value


def resolve_delta(table, record_id, cells):
    """The :class:`DeltaRecord` of one record's ``{qualifier: value}``."""
    delta = DeltaRecord()
    for qualifier, value in cells.items():
        kind, column_index = parse_qualifier(qualifier)
        if kind == "delete":
            delta.deleted = True
        elif kind == "update":
            try:
                delta.updates[column_index] = decode_value(value)
            except DECODE_ERRORS as exc:
                raise corrupt_delta(
                    table, record_id, "undecodable value %r: %s"
                    % (value, exc)) from exc
        else:
            raise corrupt_delta(table, record_id,
                                "unrecognised qualifier %r" % qualifier)
    return delta


class AttachedTable:
    """Client API over the per-DualTable attached store.

    The default backend is HBase (the paper's implementation); passing
    ``backend="btree"`` stores modifications in the simulated MySQL-style
    B-tree row store instead — the "other storage options for the
    Attached Table" the paper leaves as future work.  Both backends share
    the HTable client surface, so everything above this class is
    backend-agnostic.
    """

    def __init__(self, hbase_service, name, backend="hbase"):
        if backend not in ("hbase", "btree"):
            raise ValueError("unknown attached backend %r" % backend)
        self._service = hbase_service
        self.name = name
        self.backend = backend
        self._btree = None

    def create(self):
        if self.backend == "hbase":
            self._service.ensure_table(self.name)
        elif self._btree is None:
            from repro.kvstore import BTreeTable
            self._btree = BTreeTable(self._service.cluster, self.name)

    def drop(self):
        if self.backend == "hbase":
            if self._service.has_table(self.name):
                self._service.drop_table(self.name)
        else:
            self._btree = None

    def _htable(self):
        if self.backend == "hbase":
            return self._service.table(self.name)
        if self._btree is None:
            raise RuntimeError("attached btree store not created")
        return self._btree

    def ensure_available(self):
        """Run any pending WAL recovery now (and charge it), so later
        reads — possibly on pool workers, or under cache capture — see a
        recovered store without racing on the replay."""
        if self.backend == "hbase":
            self._service.ensure_available()

    def rates(self, profile):
        """Device rates of this backend, for the cost evaluator."""
        from repro.core.cost_model import AttachedRates

        if self.backend == "hbase":
            return AttachedRates.from_hbase_profile(profile)
        store = self._htable()
        return AttachedRates(write_bps=store.write_bps,
                             read_bps=store.read_bps,
                             op_latency_s=store.op_latency_s,
                             scan_row_latency_s=store.op_latency_s / 16,
                             page_bytes=store.page_bytes,
                             page_locality=store.page_locality)

    def _delta_cache(self):
        return getattr(self._service.cluster, "delta_cache", None)

    def _invalidate_cache(self):
        cache = self._delta_cache()
        if cache is not None:
            cache.invalidate_group(self.name)

    # ------------------------------------------------------------------
    # Writes (the EDIT plan's UDTF calls).
    # ------------------------------------------------------------------
    def put_update(self, record_id, new_values):
        """Store new field values: ``{column_index: python_value}``."""
        self._put(record_id, {update_qualifier(idx): encode_value(val)
                              for idx, val in new_values.items()})

    def put_delete(self, record_id):
        """Store a DELETE marker for one record."""
        self._put(record_id, {DELETE_MARKER: b"1"})

    def _put(self, record_id, payload):
        """One delta write; drops the cache entries of that record's
        master file only.

        They drop before the store mutates and again after it: a reader
        running between the two may have re-cached pre-put content.
        """
        cache = self._delta_cache()
        prefix = (self.name, self.backend, decode_record_id(record_id)[0])
        if cache is not None:
            cache.invalidate_prefix(prefix)
        try:
            self._htable().put(record_id, payload)
        finally:
            if cache is not None:
                cache.invalidate_prefix(prefix)

    # ------------------------------------------------------------------
    # Reads (the UNION READ merge input).
    # ------------------------------------------------------------------
    def file_deltas(self, file_id):
        """``(cells, overlay)`` of one master file: one charged scan.

        ``cells`` are the scan's resolved rows, ``(record_id, {qualifier:
        raw value})`` in record-id order, and ``overlay`` the columnar
        :class:`~repro.core.union_read.DeltaOverlay` built from them —
        all the batch read path touches.  Both are memoized in the
        cluster's delta-range cache together with the charges the scan
        recorded; a hit replays those charges verbatim, so simulated
        time is byte-identical either way.  Every mutation drops the
        entry (INTERNALS §6), so a hit always reflects current content;
        it is shared, callers must not mutate it.
        """
        from repro.core.union_read import build_overlay

        cluster = self._service.cluster

        def fetch():
            # Trigger any pending WAL recovery *before* capturing, so the
            # replay charge applies once globally instead of being stored
            # in (and re-charged from) the cache entry.
            self.ensure_available()
            with cluster.capture() as recorder:
                cells = list(self._htable().scan(*file_key_range(file_id)))
            return cells, build_overlay(cells, self.name), recorder

        cells, overlay, recorder = self._memo(
            (file_id, "deltas"), fetch, weigh=lambda entry: 128 + sum(
                84 + 88 * len(data) for _, data in entry[0]))
        recorder.replay(cluster)
        return cells, overlay

    def delta_items(self, cells):
        """``(record_id, DeltaRecord)`` per delta row of ``cells`` — the
        row merge's input, derived from the scan's cells on demand."""
        return [(record_id, resolve_delta(self.name, record_id, data))
                for record_id, data in cells]

    def scan_file(self, file_id):
        """:meth:`delta_items` of one master file; charged as
        :meth:`file_deltas`."""
        return iter(self.delta_items(self.file_deltas(file_id)[0]))

    def scan_range(self, start=None, stop=None):
        return self.delta_items(self._htable().scan(start, stop))

    def get(self, record_id):
        cells = self._htable().get(record_id)
        if cells is None:
            return None
        return resolve_delta(self.name, record_id, cells)

    def history(self, record_id, versions=10):
        """Multi-version change history of one record's fields."""
        cells = self._htable().get(record_id, versions=versions)
        if cells is None:
            return {}
        out = {}
        for qualifier, entries in cells.items():
            kind, column_index = parse_qualifier(qualifier)
            if kind != "update":
                continue
            out[column_index] = [(ts, decode_value(v)) for ts, v in entries]
        return out

    # ------------------------------------------------------------------
    # Stats / maintenance.
    # ------------------------------------------------------------------
    @property
    def size_bytes(self):
        return self._htable().store_bytes

    def is_empty(self):
        return self._htable().is_empty()

    def has_entries_in_file(self, file_id):
        """Metadata-level check used to decide if stripe pruning is safe:
        two bisects per store, no cell visited, nothing cached."""
        return self._htable().any_in_range(*file_key_range(file_id))

    def file_delta_stats(self, file_id):
        """``(delta_bytes, delta_entries)`` for one master file.

        Control-plane metadata (uncharged), like the key-range scans it
        wraps — the compaction policy consults it for every candidate
        file on every decision and the LOOKUP planner per indexed file.

        The answer is memoized as a **delta-presence index**, keyed
        ``(table, backend, file_id, "presence")``.
        """
        table, (start, stop) = self._htable(), file_key_range(file_id)
        return self._memo((file_id, "presence"), lambda: (
            table.bytes_in_range(start, stop),
            table.rows_in_range(start, stop)))

    def _memo(self, key, compute, weigh=None):
        """``compute()``, memoized in the delta-range cache under the
        file's key prefix, so whatever drops one of a file's entries
        drops them all (INTERNALS §6)."""
        cache = self._delta_cache()
        if cache is None or cache.budget_bytes <= 0:
            return compute()
        key = (self.name, self.backend) + key
        value = cache.get(key)
        if value is None:
            value = compute()
            cache.put(key, value, nbytes=weigh(value) if weigh else 64)
        return value

    def pk_dirty_in_file(self, file_id, column_index):
        """True if any delta in this file rewrites the PK column itself.

        Stripe pruning by primary-key min/max on a file *with* deltas is
        still sound as long as no delta moves a row across PK ranges —
        non-PK updates cannot change which stripe a key lives in, and
        deletes of pruned rows are irrelevant.  The one unsound case is
        an UPDATE that sets the PK column: the LOOKUP planner must read
        such a file in full.  Control-plane metadata (uncharged, via
        ``scan_silent``) memoized beside the presence index.
        """
        qualifier = update_qualifier(column_index)
        return self._memo(
            (file_id, "pk-dirty", column_index),
            lambda: any(qualifier in cells for _, cells in
                        self._htable().scan_silent(*file_key_range(file_id))))

    def entry_count(self):
        return self._htable().count_rows()

    def clear(self):
        self._invalidate_cache()
        self._htable().truncate()

    def clear_file(self, file_id):
        """Delete every delta of one master file; charged and idempotent.

        Unlike :meth:`clear` (a free HBase ``truncate``), dropping one
        file's key range is a real data-path operation: a charged scan
        materializes the record IDs, then each row is deleted at per-op
        cost.  Partial COMPACT pays this asymmetry by design — it is the
        price of keeping every other file's deltas.  Returns the number
        of rows deleted.
        """
        self._invalidate_cache()
        start, stop = file_key_range(file_id)
        table = self._htable()
        doomed = [record_id for record_id, _ in table.scan(start, stop)]
        for record_id in doomed:
            table.delete_row(record_id)
        # Range-scoped reclaim: without it the HBase backend would count
        # the delete tombstones in ``bytes_in_range`` forever and stripe
        # pruning for this file would never re-enable.
        table.reclaim_range(start, stop)
        return len(doomed)
