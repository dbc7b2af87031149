"""The auto-compaction daemon: sim-clock-driven background maintenance.

Scheduling contract (documented in INTERNALS §7):

* the session calls :meth:`AutoCompactionDaemon.tick` after every
  outermost statement, once that statement's simulated time has been
  added to the clock — maintenance runs *between* statements, never
  inside one;
* a tick never re-enters itself, never touches a table whose handler is
  mid-COMPACT or that has no AUTOCOMPACT config, and fast-exits on the
  uncharged ``attached.is_empty()`` metadata check;
* everything a decision reads (ORC footers for file stats) is charged
  inside a ``maintenance`` cost scope and advanced on the clock, so
  background work is as real as foreground work;
* the injected ``dualtable.autocompact.tick`` fault point covers the
  new crash window: a kill between the decision and the compaction
  leaves at most a manifest behind, which PR 1's ``recover()`` heals on
  the next table access.

Every decision — including declines — lands in a bounded log with the
policy's full cost breakdown; ``SHOW COMPACTIONS`` renders it.
"""

import itertools
import weakref

from dataclasses import dataclass

from repro.common.errors import AnalysisError
from repro.maintenance.policy import CompactionPolicy
from repro.maintenance.stats import StatsCollector

#: columns of SHOW COMPACTIONS.
COMPACTION_COLUMNS = ["id", "table", "trigger", "action", "files",
                      "folded_bytes", "predicted_s", "observed_s",
                      "rel_error", "note"]


@dataclass
class CompactionRecord:
    """One logged maintenance decision or manual compaction."""

    id: int
    table: str
    trigger: str            # 'auto' | 'manual'
    action: str             # 'partial' | 'full' | 'declined' | 'noop'
    files: int = 0
    folded_bytes: int = 0
    predicted_s: float = None
    observed_s: float = None
    rel_error: float = None
    clock: float = 0.0
    note: str = ""

    def row(self):
        return (self.id, self.table, self.trigger, self.action, self.files,
                self.folded_bytes,
                None if self.predicted_s is None
                else round(self.predicted_s, 3),
                None if self.observed_s is None
                else round(self.observed_s, 3),
                None if self.rel_error is None
                else round(self.rel_error, 4),
                self.note)


class AutoCompactionDaemon:
    """Per-session background compactor over AUTOCOMPACT-enabled tables."""

    #: decision-log bound (oldest entries dropped first).
    MAX_RECORDS = 256

    def __init__(self, session):
        #: weak: the session owns its daemon, and a daemon whose session
        #: is gone has nothing to compact (its ticks are no-ops).
        self._session = weakref.ref(session)
        self.collector = StatsCollector(session.cluster)
        self.configs = {}           # table name -> options dict
        self.records = []
        self._ids = itertools.count(1)
        self._last_decision_clock = {}
        self._active = False

    # ------------------------------------------------------------------
    # Configuration (ALTER TABLE t SET AUTOCOMPACT (...)).
    # ------------------------------------------------------------------
    def configure(self, table, enabled, options):
        from repro.hive.session import QueryResult

        session = self._session()
        info = session.metastore.table(table)
        handler = info.handler
        if getattr(handler, "kind", None) not in ("dualtable",
                                                  "dualtable-sharded"):
            raise AnalysisError(
                "AUTOCOMPACT requires a DualTable table (got %s stored "
                "as %s)" % (info.name, info.storage))
        key = info.name
        if enabled:
            self.configs[key] = dict(options)
        else:
            self.configs.pop(key, None)
            self._last_decision_clock.pop(key, None)
        session.cluster.metrics.gauge("dualtable.autocompact.tables",
                                      len(self.configs))
        return QueryResult(
            plan="alter-autocompact", affected=0,
            detail={"table": key, "enabled": bool(enabled),
                    "options": dict(options)})

    def note_manual(self, table, result):
        """Log a manually issued COMPACT so SHOW COMPACTIONS sees it."""
        detail = result.detail or {}
        action = detail.get("mode") or result.plan
        self._log(CompactionRecord(
            id=next(self._ids), table=table, trigger="manual",
            action=action, files=detail.get("files", 0),
            folded_bytes=detail.get("folded_bytes", 0),
            observed_s=result.sim_seconds,
            clock=self._session().cluster.clock.now,
            note=result.plan))

    def compaction_rows(self):
        return [record.row() for record in self.records]

    def _log(self, record):
        self.records.append(record)
        del self.records[:-self.MAX_RECORDS]

    # ------------------------------------------------------------------
    # The tick (called by the session between statements).
    # ------------------------------------------------------------------
    def tick(self):
        session = self._session()
        if self._active or not self.configs or session is None:
            return
        self._active = True
        try:
            for name in sorted(self.configs):
                self._tick_table(session, name, self.configs[name])
        finally:
            self._active = False

    def _tick_table(self, session, name, options):
        cluster = session.cluster
        try:
            info = session.metastore.table(name)
        except Exception:
            self.configs.pop(name, None)
            self.collector.forget(name)
            return
        handler = info.handler
        if handler._compacting:
            return      # concurrency guard: a COMPACT is mid-commit
        guard = session.txn_guard
        if guard is not None and guard(name):
            # Server transactions hold buffered (unpublished) EditBatches
            # on this table; compacting now would remap the record IDs
            # those edits target.  Skip and retry on a later tick.
            return
        interval = float(options.get("interval", 0.0))
        last = self._last_decision_clock.get(name)
        if last is not None and interval > 0 \
                and cluster.clock.now - last < interval:
            return
        cluster.faults.hit("dualtable.autocompact.tick", table=name)
        stats = self.collector.refresh(name, handler.read_factor)
        if all(shard.attached.is_empty() for shard in handler.shards):
            return      # uncharged fast path: nothing to fold
        self._last_decision_clock[name] = cluster.clock.now
        horizon = float(options.get("horizon", 0.0)) or stats.horizon
        # Decided and run per store, so a hot shard folds alone.
        for index, target in enumerate(handler.shards):
            if not target.attached.is_empty():
                self._tick_target(session, handler, index, options, horizon)

    def _tick_target(self, session, handler, index, options, horizon):
        """Decide + (maybe) compact one store."""
        cluster = session.cluster
        target = handler.shards[index]
        name = target.name
        with cluster.tracer.span("phase", "autocompact:decide",
                                 table=name) as span:
            with cluster.cost_scope("maintenance") as scope:
                policy = CompactionPolicy(target, options)
                decision = policy.decide(horizon)
            decision_seconds = (
                scope.parallel_seconds
                / max(1, cluster.profile.total_map_slots)
                + scope.hbase_seconds)
            attrs = {"action": decision.action,
                     "predicted_seconds": decision.predicted_seconds,
                     "benefit_seconds": decision.benefit_seconds,
                     "horizon": horizon}
            attrs.update(decision.breakdown)
            span.annotate(**{k: round(v, 6) if isinstance(v, float) else v
                             for k, v in attrs.items()})
        cluster.metrics.incr("dualtable.autocompact.decisions")
        cluster.metrics.observe("dualtable.autocompact.decision_seconds",
                                decision_seconds)
        if decision_seconds > 0:
            cluster.clock.advance(decision_seconds)
        if decision.action == "decline":
            cluster.metrics.incr("dualtable.autocompact.declined")
            self._log(CompactionRecord(
                id=next(self._ids), table=name, trigger="auto",
                action="declined",
                files=decision.breakdown.get("dirty_files", 0),
                predicted_s=decision.predicted_seconds,
                observed_s=decision_seconds,
                clock=cluster.clock.now, note=decision.note))
            return
        self._execute(session, name, handler, index, decision)

    def _execute(self, session, name, handler, index, decision):
        cluster = session.cluster
        folded_bytes = sum(f.delta_bytes for f in decision.files
                           if f.delta_bytes > 0)
        if decision.action == "full":
            result = handler.execute_compact(session, store=index)
        else:
            result = handler.execute_compact(
                session, partial=True,
                victim_paths=[f.path for f in decision.files], store=index)
        observed = result.sim_seconds
        predicted = decision.predicted_seconds
        rel_error = (abs(predicted - observed) / observed
                     if observed > 0 else 0.0)
        cluster.metrics.incr("dualtable.autocompact.compactions")
        cluster.metrics.observe("maintenance.rel_error", rel_error)
        if observed > 0:
            cluster.clock.advance(observed)
        self._log(CompactionRecord(
            id=next(self._ids), table=name, trigger="auto",
            action=result.detail.get("mode", decision.action),
            files=result.detail.get("files", len(decision.files)),
            folded_bytes=result.detail.get("folded_bytes", folded_bytes),
            predicted_s=predicted, observed_s=observed,
            rel_error=rel_error, clock=cluster.clock.now,
            note=decision.note))
