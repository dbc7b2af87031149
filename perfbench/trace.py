"""Wall-clock spans recorded from outside ``src/repro``.

``Tracing.install()`` wraps each layer's public entry points (the
``LAYER_MAP`` below) with a span that carries name, start, end, parent
and the id of the statement it ran under.  Nothing in ``src/`` is
edited: methods are patched on their class, module functions in every
``repro`` module namespace that holds a reference (a name bound with
``from x import y`` is looked up where it was imported, not where it
was defined).

Self time of a span = its duration minus the part its child spans
cover, accumulated per layer as the spans close.  Three rules keep the
arithmetic honest and the cost bounded:

* a call that arrives while its own layer is already on top of the
  stack opens no span (its time is the layer's either way);
* a generator entry point is one span whose duration is its *resident*
  time, the sum of its ``next()`` durations, so the consumer's work
  between two ``next()`` calls is not charged to the producer;
* only spans of at least ``KEEP_NS`` are kept as records for the trace
  file; shorter ones (per-row predicate calls, per-row generator
  resumes) are in the layer totals only.

The harness opens one root span per timed statement; its self time is
the ``untraced`` layer: statement time no wrapped entry point covers.
"""

import fnmatch
import importlib
import inspect
import itertools
import json
import sys
from time import perf_counter_ns

UNTRACED = "untraced"
#: spans shorter than this are counted but not kept as records.
KEEP_NS = 100_000

#: layer -> entry points.  ``module:function`` (globs allowed),
#: ``module:Class.method`` or ``module:Class.*`` (every public method
#: defined on the class itself).  README.md renders this table.
LAYER_MAP = {
    "hive.parser": ["repro.hive.parser:parse",
                    "repro.hive.parser:parse_script"],
    "hive.session": ["repro.hive.session:HiveSession.execute",
                     "repro.hive.session:HiveSession.execute_statement",
                     "repro.hive.session:HiveSession.load_rows",
                     "repro.maintenance.daemon:AutoCompactionDaemon.tick"],
    "hive.executor": ["repro.hive.executor:SelectExecutor.run"],
    "hive.types": ["repro.hive.types:TableSchema.*",
                   "repro.hive.types:HiveType.parse"],
    "mapreduce": ["repro.mapreduce.runner:JobRunner.run"],
    "orc.reader": ["repro.orc.reader:OrcReader.__init__",
                   "repro.orc.reader:OrcReader.*"],
    "orc.writer": ["repro.orc.writer:write_orc",
                   "repro.orc.writer:OrcWriter.*"],
    "core.union_read": [
        "repro.core.union_read:union_read_file",
        "repro.core.union_read:union_read_batches",
        "repro.core.union_read:union_read_overlay",
        "repro.core.union_read:build_overlay",
        "repro.core.union_read:classify_merge_units",
        # the handler's read path drives the merge, so it counts here.
        "repro.core.handler:DualTableHandler.scan_splits",
        "repro.core.handler:DualTableHandler.read_split",
        "repro.core.handler:DualTableHandler.read_split_with_rids",
        "repro.core.handler:DualTableHandler.read_split_batches",
        "repro.core.handler:DualTableHandler._prepare_union_read"],
    "core.attached": ["repro.core.attached:AttachedTable.*"],
    "core.handler.dml": [
        "repro.core.handler:DualTableHandler.execute_update",
        "repro.core.handler:DualTableHandler.execute_delete",
        "repro.core.handler:DualTableHandler.insert_rows"],
    "core.handler.compact": [
        "repro.core.handler:DualTableHandler.execute_compact",
        "repro.core.handler:DualTableHandler.recover"],
    "core.lookup": ["repro.core.lookup:plan_lookup",
                    "repro.core.lookup:run_lookup",
                    "repro.core.lookup:stripe_index",
                    "repro.core.handler:DualTableHandler.plan_lookup",
                    "repro.core.handler:DualTableHandler.execute_lookup"],
    "core.editlog": ["repro.core.editlog:EditBatch.*",
                     "repro.core.editlog:TaskEditBuffer.*",
                     "repro.core.editlog:encode_edits",
                     "repro.core.editlog:decode_edits",
                     "repro.core.editlog:apply_edits",
                     "repro.core.editlog:run_with_retries",
                     "repro.core.editlog:recover_edit_logs"],
    "hbase": ["repro.hbase.table:HTable.*",
              "repro.hbase.table:HBaseService.*"],
    "hdfs": ["repro.hdfs.filesystem:HdfsFileSystem.*",
             "repro.hdfs.filesystem:HdfsWriteHandle.*"],
    "cluster.ledger": ["repro.cluster.ledger:MetricsLedger.record",
                       "repro.cluster.ledger:MetricsLedger.snapshot",
                       "repro.cluster.ledger:MetricsLedger.diff",
                       "repro.cluster.cluster:Cluster.record_charge",
                       "repro.cluster.cluster:Cluster.charge_*"],
    "obs.registry": ["repro.obs.registry:MetricsRegistry.incr",
                     "repro.obs.registry:MetricsRegistry.gauge",
                     "repro.obs.registry:MetricsRegistry.observe",
                     "repro.obs.registry:MetricsRegistry.replay"],
    "parallel.cache": ["repro.parallel.cache:ByteBudgetLRU.get",
                       "repro.parallel.cache:ByteBudgetLRU.put",
                       "repro.parallel.cache:ByteBudgetLRU.invalidate_group"],
    "server": ["repro.server.server:DualTableServer.run",
               "repro.server.server:DualTableServer.execute",
               "repro.server.txn:StatementTxn.*",
               "repro.server.txn:CommitLog.*"],
    "shard": ["repro.shard.sharded:ShardedDualTableHandler.*",
              "repro.shard.sharded:ShardedDualTableHandler._edit_update",
              "repro.shard.sharded:ShardedDualTableHandler._edit_delete",
              "repro.shard.sharded:ShardedDualTableHandler._commit_edit_batch",
              "repro.shard.sharded:ShardMap.*",
              "repro.shard.sharded:_ShardRouter.*"],
    "workloads": ["repro.workloads.smartgrid:generate_*",
                  "repro.workloads.smartgrid:grid_rows_cached",
                  "repro.workloads.smartgrid:load_grid_table",
                  "repro.workloads.tpch:generate_*",
                  "repro.workloads.tpch:tpch_rows_cached",
                  "repro.workloads.tpch:load_tpch"],
}

#: factories whose *returned callables* are the layer's entry points
#: (compiled row / batch expressions).  Patched in every importing
#: module but not in the defining one, so the closures a compiler
#: builds for sub-expressions stay bare and only the outermost one
#: opens a span.
FACTORY_MAP = {
    "hive.expressions": ["repro.hive.expressions:compile_expr"],
    "hive.vexpr": ["repro.hive.vexpr:compile_batch",
                   "repro.hive.vexpr:compile_batch_predicate"],
}

#: MapReduce map/reduce/combiner callables are closures built by the
#: layer that submits the job; ``JobRunner.run`` wraps them in a span of
#: the layer their defining module belongs to.
JOB_FN_LAYERS = {
    "repro.hive.executor": "hive.executor",
    "repro.hive.session": "hive.session",
    "repro.hive.merge": "hive.session",
    "repro.core.handler": "core.handler.dml",
    "repro.shard.sharded": "shard",
}

LAYERS = sorted(set(LAYER_MAP) | set(FACTORY_MAP))

_IMPORTS = ("repro.hive.session", "repro.hive.merge", "repro.server.server",
            "repro.shard.sharded", "repro.maintenance.daemon",
            "repro.workloads.smartgrid", "repro.workloads.tpch",
            "repro.bench.experiments")


class _AnyLayer:
    """Equal to every layer: with this at the bottom of the stack, a
    wrapped call made outside a statement takes the same-layer path and
    records nothing (set-up, the harness's probes between statements)."""

    def __eq__(self, other):
        return True


class Recorder:
    """Per-layer self time and call counts, plus the kept span records."""

    def __init__(self, layers=LAYERS, keep_ns=KEEP_NS):
        self.layers = list(layers) + [UNTRACED]
        self.index = {name: i for i, name in enumerate(self.layers)}
        self.keep_ns = keep_ns
        self.new_id = itertools.count(1).__next__
        # frame = [layer index, ns covered by children, span id]
        self.stack = [[_AnyLayer(), 0, 0]]
        self.self_ns = [0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        self.spans = []
        self.stmt_id = 0

    def reset(self):
        """Forget what was recorded (wrappers keep pointing here)."""
        self.self_ns[:] = [0] * len(self.layers)
        self.calls[:] = [0] * len(self.layers)
        del self.spans[:]

    # -- statement roots -------------------------------------------------
    def begin_statement(self, stmt_id, name):
        self.stmt_id = stmt_id
        self._root = (name, perf_counter_ns())
        self.stack.append([self.index[UNTRACED], 0, self.new_id()])

    def end_statement(self):
        end = perf_counter_ns()
        name, start = self._root
        frame = self.stack.pop()
        layer = frame[0]
        self.self_ns[layer] += end - start - frame[1]
        self.calls[layer] += 1
        self.spans.append((frame[2], None, self.stmt_id, layer, name,
                           start, end - start, None))
        self.stmt_id = 0

    def keep(self, frame, parent, layer, name, start, dur, resident=None):
        """Record one span (slow path: long spans only).  A generator's
        span reaches from its first to its last resume, so its children
        lie inside it; ``resident`` is the part it was running."""
        if not frame[2]:
            frame[2] = self.new_id()
        if not parent[2]:
            parent[2] = self.new_id()
        self.spans.append((frame[2], parent[2], self.stmt_id, layer, name,
                           start, dur, resident))

    # -- wrappers --------------------------------------------------------
    def wrap(self, fn, layer, name=None):
        """``fn`` inside a span of ``layer`` (generator-aware)."""
        name = name or getattr(fn, "__qualname__", repr(fn))
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, self.index[layer], name)
        return self._wrap_call(fn, self.index[layer], name)

    def _wrap_call(self, fn, layer, name):
        stack, self_ns, calls = self.stack, self.self_ns, self.calls
        keep_ns, keep, now = self.keep_ns, self.keep, perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0, 0]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = now() - start
                stack.pop()
                parent[1] += dur
                self_ns[layer] += dur - frame[1]
                calls[layer] += 1
                if dur >= keep_ns or frame[2]:
                    keep(frame, parent, layer, name, start, dur)
        traced.__wrapped__ = fn
        traced.__qualname__ = name
        return traced

    def _wrap_generator(self, fn, layer, name):
        stack, self_ns, calls = self.stack, self.self_ns, self.calls
        keep_ns, keep, now = self.keep_ns, self.keep, perf_counter_ns

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            frame = [layer, 0, 0]
            first, last, resident = None, 0, 0
            calls[layer] += 1
            try:
                while True:
                    parent = stack[-1]
                    if parent[0] == layer:
                        try:
                            value = next(inner)
                        except StopIteration:
                            return
                        yield value
                        continue
                    stack.append(frame)
                    start = now()
                    if first is None:
                        first = start
                    done = False
                    try:
                        value = next(inner)
                    except StopIteration:
                        done = True
                    finally:
                        last = now()
                        dur = last - start
                        stack.pop()
                        parent[1] += dur
                        self_ns[layer] += dur - frame[1]
                        frame[1] = 0
                        resident += dur
                    if done:
                        return
                    yield value
            finally:
                inner.close()
                if resident >= keep_ns or frame[2]:
                    keep(frame, stack[-1], layer, name, first, last - first,
                         resident)
        traced.__wrapped__ = fn
        traced.__qualname__ = name
        return traced

    def wrap_factory(self, factory, layer):
        """Span the factory call and every call of what it returns."""
        traced_factory = self.wrap(factory, layer)
        name = "%s()" % factory.__qualname__

        def traced(*args, **kwargs):
            compiled = traced_factory(*args, **kwargs)
            return self.wrap(compiled, layer, name)
        traced.__wrapped__ = factory
        return traced

    def wrap_job_runner(self, run):
        """``JobRunner.run`` plus the job's callables, by defining layer."""
        traced_run = self.wrap(run, "mapreduce")

        def listed(fn, layer):
            # The runner materializes every map/reduce output at once,
            # so draining the generator inside the span changes nothing
            # but keeps a per-record resume out of the trace.
            traced = self.wrap(lambda *a: list(fn(*a)), layer,
                               fn.__qualname__)
            traced.job_fn = fn
            return traced

        def traced(runner, job):
            for attr in ("map_fn", "reduce_fn", "combiner_fn"):
                fn = getattr(job, attr)
                if fn is None or hasattr(fn, "job_fn"):
                    continue
                layer = JOB_FN_LAYERS.get(getattr(fn, "__module__", None))
                if layer == "core.handler.dml" \
                        and "compact" in fn.__qualname__:
                    layer = "core.handler.compact"
                if layer is not None:
                    setattr(job, attr, listed(fn, layer))
            return traced_run(runner, job)
        traced.__wrapped__ = run
        return traced

    # -- results ---------------------------------------------------------
    def layer_totals(self):
        """``{layer: (self seconds, calls)}`` for every reported layer."""
        return {name: (self.self_ns[i] / 1e9, self.calls[i])
                for i, name in enumerate(self.layers)}

    def trace_document(self):
        """Chrome trace-event JSON (``repro.obs.export.validate_trace``
        accepts it: X events with cat, args.span_id / parent_id)."""
        events = []
        for (span_id, parent_id, stmt_id, layer, name, start, dur,
             resident) in self.spans:
            args = {"span_id": span_id, "statement": stmt_id}
            if parent_id is not None:
                args["parent_id"] = parent_id
            if resident is not None:
                args["resident_us"] = resident / 1e3
            events.append({"name": name, "cat": self.layers[layer],
                           "ph": "X", "pid": 1, "tid": 1,
                           "ts": start / 1e3, "dur": dur / 1e3,
                           "args": args})
        events.sort(key=lambda e: e["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(self.trace_document(), handle)


class Tracing:
    """Installs (and removes) the wrappers of one :class:`Recorder`."""

    def __init__(self, recorder=None):
        self.recorder = recorder or Recorder()
        self._undo = []          # (namespace object, attribute, original)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _repro_modules(self):
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None
                and (name == "repro" or name.startswith("repro."))]

    def _patch_function(self, module, name, make, skip_home=False):
        """Replace ``module.name`` wherever a ``repro`` module holds it."""
        original = vars(module)[name]
        replacement = make(original)
        for mod in self._repro_modules():
            if skip_home and mod is module:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def _patch_method(self, cls, name, make):
        raw = vars(cls)[name]
        if isinstance(raw, (staticmethod, classmethod)):
            replacement = type(raw)(make(raw.__func__))
        elif inspect.isfunction(raw):
            replacement = make(raw)
        else:
            return                      # property or other descriptor
        self._set(cls, name, replacement)

    def _targets(self, spec):
        """Expand one ``module:target`` spec to (owner, attribute) pairs."""
        module_name, _, target = spec.partition(":")
        module = importlib.import_module(module_name)
        if "." in target:
            cls_name, _, pattern = target.partition(".")
            cls = getattr(module, cls_name)
            names = [n for n in vars(cls)
                     if fnmatch.fnmatchcase(n, pattern)
                     and (not n.startswith("_") or n == pattern)]
            return [(cls, n) for n in names]
        names = [n for n, v in vars(module).items()
                 if fnmatch.fnmatchcase(n, target) and inspect.isfunction(v)
                 and v.__module__ == module_name]
        return [(module, n) for n in names]

    def install(self):
        rec = self.recorder
        for name in _IMPORTS:
            importlib.import_module(name)
        done = set()
        for table, factory in ((LAYER_MAP, False), (FACTORY_MAP, True)):
            for layer, specs in table.items():
                for spec in specs:
                    for owner, attr in self._targets(spec):
                        if (owner, attr) in done:
                            continue
                        done.add((owner, attr))
                        self._install_one(rec, layer, owner, attr, factory)
        return rec

    def _install_one(self, rec, layer, owner, attr, factory):
        label = "%s.%s" % (getattr(owner, "__name__", owner), attr)
        if factory:
            self._patch_function(
                owner, attr, lambda fn: rec.wrap_factory(fn, layer),
                skip_home=True)
        elif inspect.ismodule(owner):
            self._patch_function(
                owner, attr, lambda fn: rec.wrap(fn, layer, label))
        elif label == "JobRunner.run":
            self._patch_method(owner, attr, rec.wrap_job_runner)
        else:
            self._patch_method(
                owner, attr, lambda fn: rec.wrap(fn, layer, label))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
