"""The simulated cluster: profile + clock + ledger + charge API.

A :class:`Cluster` is the shared substrate handed to HDFS, HBase, the
MapReduce engine, and the Hive session.  Subsystems never compute time on
their own; they call one of the ``charge_*`` methods, which converts bytes
and operation counts into simulated seconds using the cluster profile and
records the result in the ledger (and in any active cost scope).

Charging model
--------------

Charges are expressed *per task*: the rate used for a sequential stream is
the per-slot share of the aggregate device throughput.  When the MapReduce
scheduler lays concurrently-running tasks onto slots, total throughput
approaches the configured aggregate — matching the paper's "multiple Map
tasks add up to 1 GB/s" framing.

``byte_scale``/``op_scale`` multiply *charged time only* so that benches
can emulate paper-sized datasets with laptop-sized data (see
:mod:`repro.cluster.profile`).
"""

import threading
from contextlib import contextmanager

from repro.cluster.clock import SimClock
from repro.cluster.ledger import Charge, MetricsLedger
from repro.cluster.profile import ClusterProfile
from repro.faults import FaultInjector
from repro.parallel import ByteBudgetLRU, TaskRecorder, WorkerPool
from repro import obs


def _fault_recorder(metrics, tracer):
    """The injector's ``on_fire`` observer: counts and annotates a fired
    fault.  Closes over the two leaves it writes, not the cluster, so
    the injector does not point back at its owner."""
    def record(fault, context):
        metrics.incr("faults.fired")
        metrics.incr("faults.fired.%s" % fault.kind)
        if tracer.enabled:
            tracer.annotate(fault="%s@%s" % (fault.kind, fault.point))
    return record


class Cluster:
    """A simulated Hadoop cluster shared by every storage subsystem."""

    def __init__(self, profile=None, seed=0):
        self.profile = profile or ClusterProfile()
        self.clock = SimClock()
        self.ledger = MetricsLedger()
        self.seed = seed
        #: the shared fault-injection point registry (no-op until a
        #: FaultPlan is installed; see repro.faults).
        self.faults = FaultInjector()
        #: always-on event metrics (counters/gauges/histograms).
        self.metrics = obs.MetricsRegistry()
        #: structured span tracer; disabled unless turned on (or a
        #: profiling collector is active — see repro.obs.profiling).
        self.tracer = obs.Tracer(self.ledger)
        self.faults.on_fire = _fault_recorder(self.metrics, self.tracer)
        #: thread-local capture stack for the parallel engine: while a
        #: TaskRecorder is pushed, this thread's charges and metric
        #: events are buffered instead of applied (see repro.parallel).
        self._capture = threading.local()
        self.metrics.bind_capture(self._capture)
        self._pool = None
        #: wall-clock caches; contents never change simulated charges
        #: (hits replay the same charges a miss records).
        self.orc_cache = ByteBudgetLRU(
            getattr(self.profile, "orc_cache_bytes", 0),
            metrics=self.metrics, name="cache.orc")
        self.delta_cache = ByteBudgetLRU(
            getattr(self.profile, "delta_cache_bytes", 0),
            metrics=self.metrics, name="cache.delta")
        obs.register_cluster(self)

    # ------------------------------------------------------------------
    # Cost scopes (used by the MR engine to meter individual tasks).
    # ------------------------------------------------------------------
    @contextmanager
    def cost_scope(self, label=""):
        scope = self.ledger.push_scope(label)
        try:
            yield scope
        finally:
            self.ledger.pop_scope(scope)

    # ------------------------------------------------------------------
    # Capture/replay (the parallel engine's determinism protocol).
    # ------------------------------------------------------------------
    @contextmanager
    def capture(self, recorder=None):
        """Buffer this thread's charges/metrics into a TaskRecorder.

        Capture stacks nest per thread; replaying a recorder while an
        outer capture is active bubbles its contents into the outer
        recorder (see :mod:`repro.parallel.recorder`).
        """
        recorder = recorder or TaskRecorder()
        stack = getattr(self._capture, "stack", None)
        if stack is None:
            stack = self._capture.stack = []
        stack.append(recorder)
        try:
            yield recorder
        finally:
            stack.pop()

    def record_charge(self, charge):
        """Apply one charge: to the active capture, else the ledger."""
        stack = getattr(self._capture, "stack", None)
        if stack:
            stack[-1].add_charge(charge)
        else:
            self.ledger.record(charge)
        return charge

    @property
    def pool(self):
        """The cluster's worker pool, sized to ``profile.workers``."""
        workers = max(1, int(getattr(self.profile, "workers", 1)))
        pool = self._pool
        if pool is None or pool.workers != workers:
            if pool is not None:
                pool.close()
            pool = self._pool = WorkerPool(workers)
        return pool

    # ------------------------------------------------------------------
    # Generic charging.
    # ------------------------------------------------------------------
    def _charge(self, subsystem, op, nbytes=0, nops=0, seconds=None, rate=None,
                per_op_latency=0.0):
        profile = self.profile
        if seconds is None:
            seconds = 0.0
            if rate and nbytes:
                seconds += (nbytes * profile.byte_scale) / rate
            if per_op_latency and nops:
                seconds += nops * profile.op_scale * per_op_latency
        charge = Charge(subsystem=subsystem, op=op, nbytes=nbytes,
                        nops=nops, seconds=seconds)
        return self.record_charge(charge)

    # ------------------------------------------------------------------
    # HDFS sequential streams.
    # ------------------------------------------------------------------
    def charge_hdfs_read(self, nbytes):
        rate = self.profile.per_slot_rate(self.profile.hdfs_read_bps)
        return self._charge("hdfs", "read", nbytes=nbytes, nops=1, rate=rate)

    def charge_hdfs_write(self, nbytes):
        rate = self.profile.per_slot_rate(self.profile.hdfs_write_bps)
        return self._charge("hdfs", "write", nbytes=nbytes, nops=1, rate=rate)

    # ------------------------------------------------------------------
    # HBase random reads/writes and scans.
    #
    # HBase is modeled as a shared, serialized resource: charges use the
    # *aggregate* cluster rates (the paper's C^A terms), and the MapReduce
    # engine adds a job's total HBase seconds to its run time as a serial
    # component rather than splitting them across task slots.  This
    # captures the region-server bottleneck that date-clustered record IDs
    # create (all EDIT-plan writes land in one key range).
    # ------------------------------------------------------------------
    def charge_hbase_write(self, nbytes, nops=1):
        return self._charge("hbase", "write", nbytes=nbytes, nops=nops,
                            rate=self.profile.hbase_write_bps,
                            per_op_latency=self.profile.hbase_op_latency_s)

    def charge_hbase_read(self, nbytes, nops=1):
        return self._charge("hbase", "read", nbytes=nbytes, nops=nops,
                            rate=self.profile.hbase_read_bps,
                            per_op_latency=self.profile.hbase_op_latency_s)

    def charge_hbase_scan(self, nbytes, nrows):
        return self._charge("hbase", "scan", nbytes=nbytes, nops=nrows,
                            rate=self.profile.hbase_read_bps,
                            per_op_latency=self.profile.hbase_scan_row_latency_s)

    # ------------------------------------------------------------------
    # MapReduce engine costs.
    # ------------------------------------------------------------------
    def charge_shuffle(self, nbytes):
        rate = self.profile.per_slot_rate(self.profile.shuffle_bps,
                                          self.profile.total_reduce_slots)
        return self._charge("mapreduce", "shuffle", nbytes=nbytes, nops=1,
                            rate=rate)

    def charge_cpu_rows(self, nrows):
        return self._charge(
            "cpu", "rows", nops=nrows,
            seconds=nrows * self.profile.op_scale * self.profile.cpu_row_cost_s)

    def charge_fixed(self, subsystem, op, seconds):
        return self._charge(subsystem, op, seconds=seconds)

    def __repr__(self):
        return "Cluster(profile=%r, t=%.2fs)" % (self.profile.name,
                                                 self.clock.now)
