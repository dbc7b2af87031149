"""repro.obs: tracing, metrics and profiling for the simulated stack.

Three pieces:

* :class:`Tracer` (``cluster.tracer``) — structured spans over the
  simulated-time axis, disabled by default;
* :class:`MetricsRegistry` (``cluster.metrics``) — always-on counters /
  gauges / histograms (dict operations only, never ledger charges);
* :func:`profiling` — a process-wide collector that force-enables the
  tracer on every cluster created inside the ``with`` block, so bench
  experiments (which build many sessions internally) aggregate into one
  trace + metrics snapshot (``dualtable-bench <fig> --profile DIR``).
"""

from contextlib import contextmanager

from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.tracer import NULL_SPAN, Span, Tracer
from repro.obs import export

__all__ = ["Histogram", "MetricsRegistry", "Span", "Tracer", "NULL_SPAN",
           "TraceCollector", "profiling", "active_collector",
           "register_cluster", "export"]

_ACTIVE = None


class TraceCollector:
    """Aggregates tracers/registries of every cluster created under it."""

    def __init__(self):
        self.tracers = []
        self.registries = []

    def adopt(self, cluster):
        cluster.tracer.enable()
        self.tracers.append(cluster.tracer)
        self.registries.append(cluster.metrics)

    def merged_metrics(self):
        merged = MetricsRegistry()
        for registry in self.registries:
            merged.merge(registry)
        return merged

    def trace_document(self):
        groups = [(i + 1, "cluster-%d" % (i + 1), tracer.spans)
                  for i, tracer in enumerate(self.tracers)]
        return export.trace_document(
            groups, metrics=self.merged_metrics().snapshot())


def active_collector():
    return _ACTIVE


def register_cluster(cluster):
    """Called by Cluster.__init__; enrolls in any active collector."""
    if _ACTIVE is not None:
        _ACTIVE.adopt(cluster)


@contextmanager
def profiling():
    """Force-enable tracing on every cluster created in this block."""
    global _ACTIVE
    collector = TraceCollector()
    previous, _ACTIVE = _ACTIVE, collector
    try:
        yield collector
    finally:
        _ACTIVE = previous
