"""Structured span tracing over the simulated-time model.

A :class:`Tracer` lives on every cluster (``cluster.tracer``) and is
**disabled by default**: ``tracer.span(...)`` then returns a shared no-op
handle, so the production path pays one attribute check and never touches
the ledger — tracing off adds zero charges and changes no benchmark
numbers.

When enabled, each ``with tracer.span(kind, name, **attrs):`` block

* timestamps itself on the simulated-time axis (cumulative charged ledger
  seconds — the only monotone clock the simulation has; see
  docs/INTERNALS.md "Observability"), and
* attaches a :class:`~repro.cluster.ledger.CostScope` to the ledger for
  its lifetime, so on close the span carries exactly the bytes, ops,
  seconds and hbase_seconds charged inside it.

Span kinds form the trace hierarchy::

    statement  one SQL statement (hive/session.py)
      phase    a named sub-step (cost eval, edit commit, SELECT stages)
      job      one MapReduce job (mapreduce/runner.py)
        task   one task *attempt*, retries and speculation included
          substrate  HDFS file I/O, HBase WAL replay, union-read merges

Scopes are attached/detached by identity (not LIFO) so spans opened
inside generators (union-read) survive early abandonment.
"""

import itertools


class _NullSpan:
    """The shared disabled-tracer handle: absorbs every interaction."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def annotate(self, **attrs):
        pass


NULL_SPAN = _NullSpan()


class Span:
    """One traced region; also its own context manager."""

    __slots__ = ("span_id", "parent_id", "kind", "name", "start_s", "end_s",
                 "attrs", "seconds", "hbase_seconds", "nbytes", "nops",
                 "_tracer", "_scope")

    def __init__(self, tracer, kind, name, attrs):
        self._tracer = tracer
        self.kind = kind
        self.name = name
        self.attrs = attrs
        self.span_id = None
        self.parent_id = None
        self.start_s = 0.0
        self.end_s = 0.0
        self.seconds = 0.0
        self.hbase_seconds = 0.0
        self.nbytes = 0
        self.nops = 0
        self._scope = None

    def annotate(self, **attrs):
        self.attrs.update(attrs)

    @property
    def duration_s(self):
        return self.end_s - self.start_s

    def __enter__(self):
        tracer = self._tracer
        self.span_id = next(tracer._ids)
        if tracer._stack:
            self.parent_id = tracer._stack[-1].span_id
        self.start_s = tracer.now()
        self._scope = tracer.ledger.attach_scope(
            label="span:%s" % self.name)
        tracer._stack.append(self)
        return self

    def __exit__(self, *exc):
        tracer = self._tracer
        scope, self._scope = self._scope, None
        if scope is not None:
            tracer.ledger.detach_scope(scope)
            self.seconds = scope.seconds
            self.hbase_seconds = scope.hbase_seconds
            self.nbytes = scope.nbytes
            self.nops = scope.nops
        # Identity removal: abandoned-generator spans may close out of
        # order relative to siblings.
        try:
            tracer._stack.remove(self)
        except ValueError:
            pass
        self.end_s = max(self.start_s, tracer.now())
        # A finished span is data: the tracer holds it, not the reverse.
        self._tracer = None
        tracer.spans.append(self)
        return False

    def __repr__(self):
        return ("Span(%s:%s, %.3f..%.3fs, %.3fs charged, %d bytes)"
                % (self.kind, self.name, self.start_s, self.end_s,
                   self.seconds, self.nbytes))


class Tracer:
    """Per-cluster span recorder; off by default.

    Holds the cluster's ledger, not the cluster: a profiling collector
    keeps tracers past their cluster's life, and must not keep the
    cluster (its caches, its storage) with them.
    """

    def __init__(self, ledger):
        self.ledger = ledger
        self.enabled = False
        #: finished spans, in completion order.
        self.spans = []
        self._stack = []
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    def now(self):
        """The trace time axis: cumulative charged simulated seconds."""
        return self.ledger.total_seconds

    def enable(self):
        self.enabled = True

    def disable(self):
        self.enabled = False

    def clear(self):
        self.spans = []
        self._stack = []

    # ------------------------------------------------------------------
    def span(self, kind, name, **attrs):
        """Open a span (a context manager); no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, kind, name, attrs)

    def current(self):
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def annotate(self, **attrs):
        """Attach attributes to the innermost open span, if any."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def find(self, kind=None, name=None):
        """Finished spans filtered by kind and/or exact name."""
        return [s for s in self.spans
                if (kind is None or s.kind == kind)
                and (name is None or s.name == name)]
