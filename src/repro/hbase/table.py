"""Client-facing HBase table and the region-server service.

:class:`HTable` routes operations to regions by key range and charges the
cluster ledger for every random read/write:

* ``put``/``delete`` — bytes at the HBase write rate plus per-op latency,
* ``get`` — a seek plus the bytes of the touched cells,
* ``scan`` — the *raw* merged cell bytes in range (LSM read amplification
  included: shadowed versions and tombstones still cost I/O) plus a
  per-row latency.

Timestamps come from a logical clock owned by :class:`HBaseService` so the
multi-version behaviour is deterministic.
"""

import bisect
import itertools

from repro.common.errors import TableExistsError, TableNotFoundError
from repro.hbase.region import Region


class HTable:
    """One HBase table: a sorted list of regions plus the client API."""

    def __init__(self, name, service, split_points=(), system=False):
        self.name = name
        self._service = service
        self._cluster = service.cluster
        #: system tables (metadata) are control-plane state cached by the
        #: master; their accesses are not charged as data-path I/O.
        self.system = system
        bounds = [None] + sorted(split_points) + [None]
        self.regions = [Region(bounds[i], bounds[i + 1])
                        for i in range(len(bounds) - 1)]
        self._split_points = sorted(split_points)

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------
    def _region_for(self, row):
        idx = bisect.bisect_right(self._split_points, row)
        return self.regions[idx]

    def _regions_in_range(self, start_row, stop_row):
        for region in self.regions:
            if start_row is not None and region.stop_row is not None \
                    and region.stop_row <= start_row:
                continue
            if stop_row is not None and region.start_row is not None \
                    and region.start_row >= stop_row:
                continue
            yield region

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------
    def put(self, row, values, ts=None):
        """Put ``{qualifier: value}`` cells for one row."""
        self._service.ensure_available()
        self._cluster.faults.hit("hbase.put", table=self.name)
        ts = self._service.next_ts() if ts is None else ts
        region = self._region_for(row)
        nbytes = 0
        for qualifier, value in values.items():
            region.put(row, qualifier, value, ts)
            nbytes += len(row) + len(qualifier) + 9 + len(value)
        if not self.system:
            self._cluster.charge_hbase_write(nbytes, nops=1)
        return ts

    def delete_row(self, row, ts=None):
        self._service.ensure_available()
        self._cluster.faults.hit("hbase.delete", table=self.name)
        ts = self._service.next_ts() if ts is None else ts
        self._region_for(row).delete_row(row, ts)
        if not self.system:
            self._cluster.charge_hbase_write(len(row) + 9, nops=1)
        return ts

    def delete_column(self, row, qualifier, ts=None):
        self._service.ensure_available()
        self._cluster.faults.hit("hbase.delete", table=self.name)
        ts = self._service.next_ts() if ts is None else ts
        self._region_for(row).delete_column(row, qualifier, ts)
        if not self.system:
            self._cluster.charge_hbase_write(
                len(row) + len(qualifier) + 9, nops=1)
        return ts

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------
    def get(self, row, versions=1):
        """Resolved cells of one row, or None if absent/deleted."""
        self._service.ensure_available()
        region = self._region_for(row)
        data = region.get(row, versions=versions)
        if not self.system:
            nbytes = region.bytes_in_range(row, row + b"\x00")
            self._cluster.charge_hbase_read(max(nbytes, len(row)), nops=1)
        return data

    def scan(self, start_row=None, stop_row=None, versions=1):
        """Yield resolved ``(row, cells)`` pairs in global row order."""
        self._service.ensure_available()
        for region in self._regions_in_range(start_row, stop_row):
            rows = region.scan(start_row, stop_row, versions=versions)
            yield from rows
            if not self.system:
                raw_bytes = region.bytes_in_range(start_row, stop_row)
                self._cluster.charge_hbase_scan(raw_bytes, len(rows))

    def scan_all(self, **kwargs):
        return list(self.scan(**kwargs))

    def scan_silent(self, start_row=None, stop_row=None, versions=1):
        """Uncharged :meth:`scan` for control-plane planning stats.

        Planners use this to classify ranges (e.g. does any delta touch
        the primary-key column?) without perturbing the ledger; never
        use it on a data path.
        """
        self._service.ensure_available()
        for region in self._regions_in_range(start_row, stop_row):
            yield from region.scan(start_row, stop_row, versions=versions)

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------
    def flush(self):
        for region in self.regions:
            region.flush()

    def compact(self, major=False):
        before = self.store_bytes
        # Compaction drops shadowed versions, shrinking the raw bytes a
        # scan charges — cached delta ranges must re-materialize.
        delta_cache = getattr(self._cluster, "delta_cache", None)
        if delta_cache is not None:
            delta_cache.invalidate_group(self.name)
        for region in self.regions:
            region.compact(major=major)
        # Compaction rewrites store files: charge read+write of the data.
        self._cluster._charge("hbase", "compact", nbytes=before + self.store_bytes,
                              nops=1,
                              rate=self._cluster.profile.per_slot_rate(
                                  self._cluster.profile.hbase_write_bps))

    def truncate(self):
        bounds = [None] + self._split_points + [None]
        self.regions = [Region(bounds[i], bounds[i + 1])
                        for i in range(len(bounds) - 1)]

    def reclaim_range(self, start_row=None, stop_row=None):
        """Physically drop every cell in range, tombstones included.

        Models the range-scoped major compaction that follows a bulk
        delete.  Like :meth:`truncate` the reclaim itself is background
        I/O the client does not wait on, but without it
        ``bytes_in_range`` would count tombstones forever and stripe
        pruning over the range would never re-enable.
        """
        self._service.ensure_available()
        for region in self._regions_in_range(start_row, stop_row):
            region.purge_range(start_row, stop_row)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def store_bytes(self):
        self._service.ensure_available()
        return sum(r.store_bytes for r in self.regions)

    def bytes_in_range(self, start_row=None, stop_row=None):
        # Stats must see post-replay state: planners use them to decide
        # whether pruning is safe, and a crash-wiped memstore would make
        # a populated range look empty.
        self._service.ensure_available()
        return sum(r.bytes_in_range(start_row, stop_row)
                   for r in self._regions_in_range(start_row, stop_row))

    def any_in_range(self, start_row=None, stop_row=None):
        """``bytes_in_range(...) > 0`` by key-range bounds alone:
        control-plane and uncharged, it visits no cell."""
        self._service.ensure_available()
        return any(r.any_in_range(start_row, stop_row)
                   for r in self._regions_in_range(start_row, stop_row))

    def rows_in_range(self, start_row=None, stop_row=None):
        """Live (resolved) row count in range; control-plane, uncharged."""
        self._service.ensure_available()
        return sum(len(region.scan(start_row, stop_row))
                   for region in self._regions_in_range(start_row, stop_row))

    def cell_count(self):
        self._service.ensure_available()
        return sum(r.cell_count() for r in self.regions)

    def count_rows(self):
        """Number of live (non-deleted) rows; charges a full scan."""
        return sum(1 for _ in self.scan())

    def is_empty(self):
        for _ in itertools.islice(self.scan(), 1):
            return False
        return True


class HBaseService:
    """The HMaster + region servers: table catalog and logical clock."""

    def __init__(self, cluster):
        self.cluster = cluster
        self._tables = {}
        self._ts = itertools.count(1)
        self._crashed = False

    def next_ts(self):
        return next(self._ts)

    # ------------------------------------------------------------------
    # Crash / recovery (the WAL contract).
    # ------------------------------------------------------------------
    def crash_region_server(self):
        """Crash the (single simulated) region server.

        Every region's memstore is lost; HFiles and WALs survive.  The
        next client operation triggers WAL replay via
        :meth:`ensure_available`.  Returns the number of cells dropped
        from memstores.
        """
        lost = 0
        for table in self._tables.values():
            for region in table.regions:
                lost += region.crash()
        self._crashed = True
        # Cached delta ranges embed charges recorded against pre-crash
        # region state; WAL recovery (and its replay charge) must be
        # observed by the next scan, so the cache cannot survive.
        delta_cache = getattr(self.cluster, "delta_cache", None)
        if delta_cache is not None:
            delta_cache.clear()
        self.cluster.metrics.incr("hbase.region_crashes")
        return lost

    def ensure_available(self):
        """Entry gate for every client op: recover after a crash."""
        if self._crashed:
            self.recover()

    def recover(self):
        """Replay every region's WAL; charge the replay I/O.

        Idempotent — regions rebuild their memstores from the WAL from
        scratch, so repeated recovery converges to the same state.
        Returns the data-path WAL bytes replayed.
        """
        self._crashed = False
        with self.cluster.tracer.span("substrate", "hbase:wal_replay") \
                as span:
            replayed = 0
            for table in self._tables.values():
                table_bytes = sum(r.recover() for r in table.regions)
                if not table.system:
                    replayed += table_bytes
            if replayed:
                self.cluster._charge(
                    "hbase", "wal_replay", nbytes=replayed, nops=1,
                    rate=self.cluster.profile.hbase_write_bps)
            span.annotate(replayed_bytes=replayed)
        self.cluster.metrics.incr("hbase.wal_replays")
        self.cluster.metrics.observe("hbase.wal_replay_bytes", replayed)
        return replayed

    def create_table(self, name, split_points=(), system=False):
        if name in self._tables:
            raise TableExistsError("HBase table exists: %s" % name)
        table = HTable(name, self, split_points=split_points, system=system)
        self._tables[name] = table
        return table

    def table(self, name):
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError("no HBase table: %s" % name) from None

    def has_table(self, name):
        return name in self._tables

    def drop_table(self, name):
        if name not in self._tables:
            raise TableNotFoundError("no HBase table: %s" % name)
        del self._tables[name]

    def ensure_table(self, name, split_points=(), system=False):
        if name in self._tables:
            return self._tables[name]
        return self.create_table(name, split_points=split_points,
                                 system=system)

    def list_tables(self):
        return sorted(self._tables)
