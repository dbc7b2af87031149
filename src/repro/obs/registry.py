"""Metrics registry: named counters, gauges and histograms.

One :class:`MetricsRegistry` lives on every cluster (``cluster.metrics``)
and is always on — recording a metric is a dict operation, never a ledger
charge, so instrumentation cannot perturb simulated time.  The registry
complements the :class:`~repro.cluster.ledger.MetricsLedger`: the ledger
answers "how many bytes/seconds did device X cost", the registry answers
"how many times did event Y happen" (plan choices, fault firings, task
retries, WAL replays, COMPACT folds...).

Metric names are dotted paths (``dualtable.plan.edit``,
``mapreduce.task_retries``); see docs/INTERNALS.md for the taxonomy.

Thread safety: all uncaptured mutations take a registry-wide lock.  A
bare ``defaultdict[name] += 1`` is a read-modify-write that loses
updates under preemption, which showed up once the server admitted many
sessions against one cluster (the PR-3 join NULL-key sentinel was the
same class of bug).  The capture path needs no lock — capture buffers
are thread-local by construction.
"""

import math
import threading

from collections import defaultdict

#: log-bucket resolution: boundaries at 10**(i / _BUCKETS_PER_DECADE).
#: Fixed for the life of the metric format — quantile estimates are a
#: pure function of the bucket counts, so any two runs that observe the
#: same multiset of values report byte-identical p50/p95/p99 regardless
#: of observation order or worker count.
_BUCKETS_PER_DECADE = 5


def bucket_index(value):
    """The fixed log-bucket index of a positive value.

    Bucket ``i`` covers ``(10**((i-1)/K), 10**(i/K)]`` with
    ``K = _BUCKETS_PER_DECADE``; zero and negative values go to the
    reserved ``None`` bucket (they have no logarithm).
    """
    if value <= 0.0:
        return None
    # ceil on the log axis, nudged so exact boundaries stay in their
    # own bucket (10**(i/K) -> bucket i, not i+1).
    return math.ceil(math.log10(value) * _BUCKETS_PER_DECADE - 1e-9)


def bucket_upper_bound(index):
    """Upper boundary of log bucket ``index`` (0.0 for the zero bucket)."""
    if index is None:
        return 0.0
    return 10.0 ** (index / _BUCKETS_PER_DECADE)


class Histogram:
    """Streaming summary of observed values: count/sum/min/max plus
    fixed log-bucket counts for deterministic quantiles.

    Quantiles are read from the bucket table (the reported pXX is the
    upper boundary of the bucket holding that rank), so they are exactly
    reproducible: same observed values — in any order — give the same
    p50/p95/p99 to the last bit.  See docs/INTERNALS.md §11.
    """

    __slots__ = ("count", "total", "vmin", "vmax", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.vmin = None
        self.vmax = None
        #: log-bucket index -> count; None is the <= 0 bucket.
        self.buckets = {}

    def observe(self, value):
        value = float(value)
        self.count += 1
        self.total += value
        self.vmin = value if self.vmin is None else min(self.vmin, value)
        self.vmax = value if self.vmax is None else max(self.vmax, value)
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def quantile(self, q):
        """Deterministic quantile estimate from the log buckets.

        Returns the upper boundary of the bucket containing the
        ``ceil(q * count)``-th smallest observation (the zero bucket
        reports 0.0).  Exact to bucket resolution (~58% per bucket at
        5 buckets/decade), and independent of observation order.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        # None (the <=0 bucket) sorts first: those are the smallest.
        for index in sorted(self.buckets,
                            key=lambda i: (i is not None, i)):
            seen += self.buckets[index]
            if seen >= rank:
                return bucket_upper_bound(index)
        return bucket_upper_bound(max(i for i in self.buckets
                                      if i is not None)) \
            if any(i is not None for i in self.buckets) else 0.0

    @property
    def p50(self):
        return self.quantile(0.50)

    @property
    def p95(self):
        return self.quantile(0.95)

    @property
    def p99(self):
        return self.quantile(0.99)

    def as_dict(self):
        return {"count": self.count, "sum": self.total,
                "mean": self.mean, "min": self.vmin, "max": self.vmax,
                "p50": self.p50, "p95": self.p95, "p99": self.p99,
                "buckets": {("zero" if index is None else str(index)):
                            self.buckets[index]
                            for index in sorted(
                                self.buckets,
                                key=lambda i: (i is not None, i))}}

    def merge(self, other):
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.vmin = other.vmin if self.vmin is None \
            else min(self.vmin, other.vmin)
        self.vmax = other.vmax if self.vmax is None \
            else max(self.vmax, other.vmax)
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count

    def __repr__(self):
        return ("Histogram(count=%d, mean=%.4g, p95=%.4g, min=%s, max=%s)"
                % (self.count, self.mean, self.p95, self.vmin, self.vmax))


class MetricsRegistry:
    """Counters, gauges and histograms for one simulated cluster."""

    def __init__(self):
        self.counters = defaultdict(int)
        self.gauges = {}
        self.histograms = {}
        self._lock = threading.Lock()
        #: optional thread-local capture stack shared with the owning
        #: cluster (repro.parallel): while a recorder is pushed on the
        #: calling thread, events are buffered instead of applied so a
        #: parallel task's metrics can be replayed in task order.
        self._capture_tls = None

    def bind_capture(self, tls):
        """Share the cluster's thread-local capture stack."""
        self._capture_tls = tls

    def _capture_buffer(self):
        tls = self._capture_tls
        if tls is None:
            return None
        stack = getattr(tls, "stack", None)
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def incr(self, name, amount=1):
        buffer = self._capture_buffer()
        if buffer is not None:
            buffer.add_event("incr", name, amount)
            return
        with self._lock:
            self.counters[name] += amount

    def gauge(self, name, value):
        buffer = self._capture_buffer()
        if buffer is not None:
            buffer.add_event("gauge", name, value)
            return
        with self._lock:
            self.gauges[name] = value

    def observe(self, name, value):
        buffer = self._capture_buffer()
        if buffer is not None:
            buffer.add_event("observe", name, value)
            return
        with self._lock:
            self._observe_locked(name, value)

    def _observe_locked(self, name, value):
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def replay(self, events):
        """Apply captured ``(kind, name, value)`` events in order.

        Respects any capture active on the *calling* thread, so nested
        replays bubble out one level at a time (see repro.parallel).
        """
        buffer = self._capture_buffer()
        if buffer is not None:
            buffer.events.extend(events)
            return
        with self._lock:
            for kind, name, value in events:
                if kind == "incr":
                    self.counters[name] += value
                elif kind == "observe":
                    self._observe_locked(name, value)
                else:
                    self.gauges[name] = value

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------
    def counter(self, name):
        return self.counters.get(name, 0)

    def histogram(self, name):
        return self.histograms.get(name)

    def snapshot(self):
        """A plain-dict dump (JSON-serializable)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {name: h.as_dict()
                               for name, h in self.histograms.items()},
            }

    def rows(self, like=None):
        """``(metric, type, value)`` rows for table rendering.

        Ordering is deterministic: sorted by (name, type) only — values
        never participate in the comparison, so mixed value types can't
        make the sort order depend on dict insertion history.  ``like``
        filters names with glob semantics (``SHOW METRICS LIKE
        'server.*'``); a pattern without a wildcard is treated as a
        prefix filter.
        """
        with self._lock:
            rows = [(name, "counter", value)
                    for name, value in self.counters.items()]
            rows += [(name, "gauge", value)
                     for name, value in self.gauges.items()]
            rows += [(name, "histogram",
                      "count=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g "
                      "min=%.4g max=%.4g"
                      % (h.count, h.mean, h.p50, h.p95, h.p99,
                         h.vmin or 0.0, h.vmax or 0.0))
                     for name, h in self.histograms.items()]
        if like is not None:
            import fnmatch
            pattern = like if any(c in like for c in "*?[") else like + "*"
            rows = [r for r in rows if fnmatch.fnmatchcase(r[0], pattern)]
        return sorted(rows, key=lambda r: (r[0], r[1]))

    # ------------------------------------------------------------------
    # Aggregation / lifecycle.
    # ------------------------------------------------------------------
    def merge(self, other):
        """Fold another registry into this one (profile aggregation)."""
        with self._lock:
            for name, value in other.counters.items():
                self.counters[name] += value
            self.gauges.update(other.gauges)
            for name, hist in other.histograms.items():
                mine = self.histograms.get(name)
                if mine is None:
                    mine = self.histograms[name] = Histogram()
                mine.merge(hist)

    def reset(self):
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()

    def reset_gauges(self, prefix):
        """Drop every gauge whose name starts with ``prefix``.

        Gauges are *owned* by the subsystem that sets them (a queue
        depth belongs to one server instance, not to the cluster), so a
        new owner clears its namespace on construction — otherwise a
        fresh server inherits the last instance's residue in snapshots.
        """
        with self._lock:
            for name in [n for n in self.gauges if n.startswith(prefix)]:
                del self.gauges[name]
