"""HiveSession: the public SQL entry point.

A session owns one simulated cluster plus HDFS, HBase, the MapReduce
runner and the metastore, and executes HiveQL statements end-to-end.

UPDATE, DELETE and MERGE's matched arm (the heart of the paper) are one
row edit each (:mod:`repro.hive.rowedit`), run by the table's storage
handler's ``execute_update``; COMPACT by its ``execute_compact``
(:class:`~repro.hive.storage.base.StorageHandler`).  Plain ORC tables
take the default, Hive's INSERT OVERWRITE lowering (Listing 2,
:meth:`HiveSession._rewrite_via_overwrite`): read *every column of every
row*, rewrite the table or the partitions the edit touches.  HBase
writes in place during the scan, ACID appends a delta table, DualTable
chooses EDIT or OVERWRITE by its cost model.
"""

import os
import weakref

from dataclasses import dataclass, field
from itertools import compress, repeat

from repro.cluster import Cluster, ClusterProfile
from repro.common.errors import AnalysisError, HiveError
from repro.hdfs import HdfsFileSystem
from repro.hbase import HBaseService
from repro.mapreduce import Job, JobRunner
from repro.hive import ast_nodes as ast
from repro.hive.catalog import HiveEnv, Metastore, register_handler
from repro.hive.executor import SelectExecutor, _output_name
from repro.hive.expressions import Env, compile_expr
from repro.hive.parser import parse
from repro.hive.rowedit import WhereEdit
from repro.hive.storage.hbase_handler import HBaseTableHandler
from repro.hive.storage.orc_handler import OrcHdfsHandler
from repro.vector import DEFAULT_BATCH_ROWS, spliced

register_handler("orc", OrcHdfsHandler)
register_handler("orc-partitioned", OrcHdfsHandler)
register_handler("hbase", HBaseTableHandler)

@dataclass
class QueryResult:
    """Rows plus the simulated cost of one statement."""

    names: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    sim_seconds: float = 0.0
    jobs: list = field(default_factory=list)
    plan: str = ""
    affected: int = None
    detail: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self):
        if not self.rows or not self.rows[0]:
            return None
        return self.rows[0][0]


class HiveSession:
    """One connection to the simulated warehouse."""

    def __init__(self, cluster=None, profile=None, batch_rows=None):
        self.cluster = cluster or Cluster(profile or ClusterProfile.laptop())
        self.set_batch_rows(batch_rows
                            if batch_rows is not None
                            else os.environ.get("REPRO_BATCH_ROWS")
                            or DEFAULT_BATCH_ROWS)
        self.fs = HdfsFileSystem(self.cluster)
        self.hbase = HBaseService(self.cluster)
        self.runner = JobRunner(self.cluster)
        self.env = HiveEnv(self.cluster, self.fs, self.hbase, self.runner)
        self.metastore = Metastore(self.env)
        self.views = {}
        self._dml_subquery_jobs = []
        self._stmt_depth = 0
        #: SELECT routing: "cost" consults the cost model per statement,
        #: "lookup" forces the LOOKUP plan (erroring when ineligible),
        #: "scan" forces MapReduce.  ``SET dualtable.plan = ...``.
        self.plan_mode = "cost"
        # Server attachment (repro.server).  `current_txn` is the
        # statement transaction the server is running through this
        # engine — DualTable EDIT commits defer their publish to it.
        # Stays None for standalone sessions, like `server`.
        self.current_txn = None
        self._server = None
        self._ensure_extended_handlers()
        self._bind_fault_actions()
        # Imported lazily: repro.maintenance returns QueryResults, so a
        # top-level import would be circular.
        from repro.maintenance import AutoCompactionDaemon
        self.maintenance = AutoCompactionDaemon(self)

    @property
    def server(self):
        """The :class:`~repro.server.DualTableServer` running this engine,
        or None.  Held weakly (the server owns its engine): once the
        server is gone the engine is a standalone session again."""
        return None if self._server is None else self._server()

    @server.setter
    def server(self, server):
        self._server = weakref.ref(server)

    @property
    def txn_guard(self):
        """The server's busy check (``table_busy``), which the
        maintenance daemon consults to skip tables with in-flight
        buffered writes; None without a server."""
        server = self.server
        return None if server is None else server.table_busy

    def _bind_fault_actions(self):
        """Wire side-effecting fault kinds to this session's subsystems.

        The actions live on ``cluster.faults``, below the session, so
        they reach it through a weak reference: an action whose session
        is gone is a no-op.
        """
        session = weakref.ref(self)

        def region_crash(fault):
            live = session()
            if live is not None:
                live.hbase.crash_region_server()

        def datanode_loss(fault):
            live = session()
            if live is not None:
                live._lose_one_datanode()

        faults = self.cluster.faults
        faults.bind("region_crash", region_crash)
        faults.bind("datanode_loss", datanode_loss)

    def _lose_one_datanode(self):
        """Kill a live datanode, but never the last one (data would be
        unrecoverable, which is a cluster loss, not a fault to survive)."""
        alive = [i for i, dn in enumerate(self.fs.datanodes) if dn.alive]
        if len(alive) > 1:
            self.fs.kill_datanode(alive[0])

    @staticmethod
    def _ensure_extended_handlers():
        # DualTable and ACID register themselves on import; importing here
        # keeps `HiveSession` self-contained for users.
        from repro.core import handler as _dualtable_handler  # noqa: F401
        from repro.acid import handler as _acid_handler       # noqa: F401
        from repro.shard import sharded as _sharded_handler   # noqa: F401

    def set_batch_rows(self, batch_rows):
        """Set the shared split/batch granularity (bounds-validated).

        One knob governs MaterializedSource split chunking and
        ColumnBatch sizing (a materialized split is exactly one batch).
        Changing it changes task counts — and therefore simulated time.
        """
        from repro.vector import validate_batch_rows
        self.batch_rows = validate_batch_rows(batch_rows)
        return self

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def execute(self, sql):
        """Parse and execute one HiveQL statement."""
        stmt = parse(sql) if isinstance(sql, str) else sql
        return self.execute_statement(stmt)

    sql = execute

    def execute_statement(self, stmt):
        """Execute one parsed statement inside a statement-level span.

        The span (a no-op unless ``cluster.tracer`` is enabled) is the
        root of the statement → job → task → substrate trace hierarchy;
        the simulated clock advances by the statement's run time once the
        outermost statement finishes (EXPLAIN ANALYZE and MERGE execute
        statements reentrantly).
        """
        verb = type(stmt).__name__.replace("Stmt", "").lower()
        self._stmt_depth += 1
        try:
            with self.cluster.tracer.span(
                    "statement", verb,
                    table=getattr(stmt, "table", None)) as span:
                result = self._dispatch_statement(stmt)
                span.annotate(plan=result.plan,
                              sim_seconds=round(result.sim_seconds, 6),
                              affected=result.affected)
        finally:
            self._stmt_depth -= 1
        self.cluster.metrics.incr("session.statements")
        self.cluster.metrics.incr("session.statements.%s" % verb)
        if self._stmt_depth == 0:
            # Latency histograms observe *simulated* seconds, so the
            # distributions (and the advisor reading them) are identical
            # across workers=N.
            self.cluster.metrics.observe("statement.seconds",
                                         result.sim_seconds)
            self.cluster.metrics.observe("statement.seconds.%s" % verb,
                                         result.sim_seconds)
        if self._stmt_depth == 0 and result.sim_seconds > 0:
            self.cluster.clock.advance(result.sim_seconds)
        if self._stmt_depth == 0:
            # Background maintenance runs between statements, on the
            # advanced clock, never inside one (see repro.maintenance).
            self.maintenance.tick()
        return result

    def _dispatch_statement(self, stmt):
        if isinstance(stmt, (ast.SelectStmt, ast.UnionAllStmt)):
            return self._select(stmt)
        if isinstance(stmt, ast.InsertStmt):
            return self._insert(stmt)
        if isinstance(stmt, (ast.UpdateStmt, ast.DeleteStmt)):
            return self._update_or_delete(stmt)
        if isinstance(stmt, ast.MergeStmt):
            from repro.hive.merge import execute_merge
            self._dml_subquery_jobs = []
            return execute_merge(self, stmt)
        if isinstance(stmt, ast.ExplainStmt):
            from repro.hive.explain import explain
            return explain(self, stmt.statement, analyze=stmt.analyze)
        if isinstance(stmt, ast.ShowMetricsStmt):
            return QueryResult(names=["metric", "type", "value"],
                               rows=self.cluster.metrics.rows(
                                   like=stmt.like),
                               plan="show-metrics")
        if isinstance(stmt, ast.ShowAdvisorStmt):
            from repro.advisor import FINDING_COLUMNS, advisor_rows
            return QueryResult(names=list(FINDING_COLUMNS),
                               rows=advisor_rows(self),
                               plan="show-advisor")
        if isinstance(stmt, ast.AnalyzeWorkloadStmt):
            from repro.advisor import analyze_workload
            return analyze_workload(self, apply=stmt.apply)
        if isinstance(stmt, ast.AlterDualTableStmt):
            return self._alter_dualtable(stmt)
        if isinstance(stmt, ast.SetOptionStmt):
            return self._set_option(stmt)
        if isinstance(stmt, ast.ShowSessionsStmt):
            server = self.server
            if server is None:
                raise AnalysisError(
                    "SHOW SESSIONS requires a DualTableServer "
                    "(this is a standalone session)")
            return QueryResult(
                names=["session_id", "tenant", "state", "statements",
                       "committed", "inflight"],
                rows=server.session_rows(), plan="show-sessions")
        if isinstance(stmt, ast.ShowServerStatsStmt):
            server = self.server
            if server is None:
                raise AnalysisError(
                    "SHOW SERVER STATS requires a DualTableServer "
                    "(this is a standalone session)")
            return QueryResult(names=["stat", "value"],
                               rows=server.stats_rows(),
                               plan="show-server-stats")
        if isinstance(stmt, ast.CreateTableStmt):
            return self._create_table(stmt)
        if isinstance(stmt, ast.CreateViewStmt):
            key = stmt.name.lower()
            if key in self.views or self.metastore.has_table(key):
                if stmt.if_not_exists:
                    return QueryResult(plan="create-view")
                raise AnalysisError("name already in use: %s" % stmt.name)
            self.views[key] = stmt.query
            return QueryResult(plan="create-view")
        if isinstance(stmt, ast.AlterDropPartitionStmt):
            return self._drop_partition(stmt)
        if isinstance(stmt, ast.DropTableStmt):
            if stmt.table.lower() in self.views:
                del self.views[stmt.table.lower()]
                return QueryResult(plan="drop-view")
            self.metastore.drop_table(stmt.table, if_exists=stmt.if_exists)
            return QueryResult(plan="drop")
        if isinstance(stmt, ast.CompactStmt):
            return self._compact(stmt)
        if isinstance(stmt, ast.ShowShardsStmt):
            return self._show_shards(stmt)
        if isinstance(stmt, ast.AlterRebalanceStmt):
            return self._alter_rebalance(stmt)
        if isinstance(stmt, ast.AlterAutoCompactStmt):
            return self.maintenance.configure(stmt.table, stmt.enabled,
                                              stmt.options)
        if isinstance(stmt, ast.ShowCompactionsStmt):
            from repro.maintenance.daemon import COMPACTION_COLUMNS
            return QueryResult(names=list(COMPACTION_COLUMNS),
                               rows=self.maintenance.compaction_rows(),
                               plan="show-compactions")
        if isinstance(stmt, ast.ShowPartitionsStmt):
            info = self.metastore.table(stmt.table)
            handler = info.handler
            if not handler.partition_columns:
                raise AnalysisError(
                    "table %s is not partitioned" % stmt.table)
            rows = [("/".join("%s=%s" % (c, v) for c, v in
                              zip(handler.partition_columns, key)),)
                    for key, _ in handler.partitions()]
            return QueryResult(names=["partition"], rows=rows,
                               plan="show-partitions")
        if isinstance(stmt, ast.ShowTablesStmt):
            rows = [(t,) for t in self.metastore.list_tables()]
            rows += [(v,) for v in sorted(self.views)]
            return QueryResult(names=["table_name"], rows=sorted(rows),
                               plan="show")
        if isinstance(stmt, ast.DescribeStmt):
            info = self.metastore.table(stmt.table)
            rows = [(c.name, c.htype.value) for c in info.schema]
            rows.append(("# storage", info.storage))
            return QueryResult(names=["col_name", "data_type"], rows=rows,
                               plan="describe")
        raise HiveError("unsupported statement: %r" % (stmt,))

    def _create_table(self, stmt):
        storage = stmt.storage
        columns = list(stmt.columns)
        properties = dict(stmt.properties)
        if stmt.partition_columns:
            if storage != "orc":
                raise AnalysisError(
                    "PARTITIONED BY is supported for ORC tables only "
                    "(got STORED AS %s)" % storage.upper())
            storage = "orc-partitioned"
            columns = columns + list(stmt.partition_columns)
            properties["partition.columns"] = ",".join(
                name for name, _ in stmt.partition_columns)
        if stmt.primary_key is not None:
            if storage != "dualtable":
                raise AnalysisError(
                    "PRIMARY KEY requires STORED AS DUALTABLE (the "
                    "LOOKUP plan probes the attached table; got %s)"
                    % storage.upper())
            names = [name.lower() for name, _ in columns]
            if stmt.primary_key not in names:
                raise AnalysisError(
                    "PRIMARY KEY column %r is not in the column list"
                    % stmt.primary_key)
            properties["dualtable.primary_key"] = stmt.primary_key
        if stmt.shard_key is not None:
            if storage != "dualtable":
                raise AnalysisError(
                    "SHARDED BY requires STORED AS DUALTABLE (got %s)"
                    % storage.upper())
            names = [name.lower() for name, _ in columns]
            if stmt.shard_key not in names:
                raise AnalysisError(
                    "SHARDED BY column %r is not in the column list"
                    % stmt.shard_key)
            count = int(stmt.shard_count or 1)
            if count < 1:
                raise AnalysisError("SHARDED ... INTO needs n >= 1")
            storage = "dualtable-sharded"
            properties["shard.key"] = stmt.shard_key
            properties["shard.count"] = count
        self.metastore.create_table(stmt.table, columns, storage=storage,
                                    properties=properties,
                                    if_not_exists=stmt.if_not_exists)
        return QueryResult(plan="create")

    def _alter_dualtable(self, stmt):
        """``ALTER TABLE t SET DUALTABLE (read_factor = 2, mode = ...)``.

        The advisor's actuator knobs: retunes the live handler *and*
        the table properties, so the change survives handler re-reads
        and shows in DESCRIBE-adjacent tooling.
        """
        from repro.core.handler import DualTableHandler
        info = self.metastore.table(stmt.table)
        handler = info.handler
        if not isinstance(handler, DualTableHandler):
            raise AnalysisError(
                "ALTER TABLE ... SET DUALTABLE requires a DualTable "
                "table (got %s stored as %s)" % (info.name, info.storage))
        from repro.core.store import setting
        applied = {}
        for key, value in stmt.options.items():
            if key not in ("read_factor", "mode"):
                raise AnalysisError(
                    "unknown DUALTABLE option %r (read_factor, mode)"
                    % (key,))
            prop = "dualtable." + key
            parsed = setting({prop: value}, prop)
            setattr(handler, key, parsed)
            info.properties[prop] = parsed
            applied[key] = value
        self.cluster.metrics.incr("advisor.alter_dualtable")
        return QueryResult(plan="alter-dualtable",
                           detail={"table": info.name,
                                   "options": applied})

    #: session options settable via ``SET name = value``.
    SESSION_OPTIONS = {"dualtable.plan": ("cost", "lookup", "scan")}

    def _set_option(self, stmt):
        """``SET dualtable.plan = cost | lookup | scan``."""
        allowed = self.SESSION_OPTIONS.get(stmt.name)
        if allowed is None:
            raise AnalysisError(
                "unknown session option %r (settable: %s)"
                % (stmt.name, ", ".join(sorted(self.SESSION_OPTIONS))))
        value = str(stmt.value).lower()
        if value not in allowed:
            raise AnalysisError(
                "bad value %r for %s (choose from %s)"
                % (stmt.value, stmt.name, "/".join(allowed)))
        self.plan_mode = value
        self.cluster.metrics.incr("session.set_option")
        return QueryResult(plan="set",
                           detail={"name": stmt.name, "value": value})

    def _partition_key(self, info, spec, clause):
        """The partition key a ``PARTITION (...)`` spec names, coerced."""
        columns = info.handler.partition_columns
        if not columns:
            raise AnalysisError("table %s is not partitioned" % info.name)
        missing = [c for c in columns if c not in spec]
        if missing:
            raise AnalysisError("%s needs values for: %s"
                                % (clause, ", ".join(missing)))
        offset = len(info.schema) - len(columns)
        return tuple(info.schema.coerce_value(offset + i, spec[name])
                     for i, name in enumerate(columns))

    def _drop_partition(self, stmt):
        info = self.metastore.table(stmt.table)
        dropped = info.handler.drop_partition(
            self._partition_key(info, stmt.spec, "DROP PARTITION"))
        return QueryResult(plan="drop-partition",
                           affected=1 if dropped else 0,
                           detail={"partition": dict(stmt.spec),
                                   "existed": dropped})

    def load_rows(self, table_name, rows):
        """LOAD-equivalent: bulk append python rows into a table."""
        info = self.metastore.table(table_name)
        coerced = info.schema.coerce_rows(rows)
        seconds = self._charged_parallel(
            lambda: info.handler.insert_rows(coerced, overwrite=False))
        return QueryResult(plan="load", affected=len(coerced),
                           sim_seconds=seconds)

    def table(self, name):
        return self.metastore.table(name)

    # ------------------------------------------------------------------
    # SELECT.
    # ------------------------------------------------------------------
    def _select(self, stmt):
        executor = SelectExecutor(self)
        result = executor.run(stmt)
        sim = (sum(job.sim_seconds for job in executor.jobs)
               + executor.lookup_seconds)
        jobs = sum(not job.local for job in executor.jobs)
        local = sorted({d["plan"] for d in executor.local_details})
        if executor.lookup_details and not executor.jobs:
            plan = "lookup"
        else:
            parts = (["%d jobs" % jobs] if jobs or not local else []) + local
            plan = "+".join(["select(%s)" % parts[0]] + parts[1:])
            if executor.lookup_details:
                plan += "+lookup"
        detail = {}
        if executor.lookup_details:
            detail = dict(executor.lookup_details[0])
            if len(executor.lookup_details) > 1:
                detail["lookups"] = list(executor.lookup_details)
        elif executor.local_details:
            detail = dict(executor.local_details[0])
            if len(executor.local_details) > 1:
                detail["stages"] = list(executor.local_details)
        return QueryResult(names=result.names, rows=result.rows,
                           sim_seconds=sim, jobs=executor.jobs,
                           plan=plan, detail=detail)

    def view_query(self, name):
        """The stored query of a view, or None."""
        return self.views.get(name.lower())

    def infer_select_names(self, stmt):
        """Output column names of a SELECT (a UNION ALL's first branch)
        without executing it: the names of the executor's star
        expansion."""
        if isinstance(stmt, ast.UnionAllStmt):
            stmt = stmt.selects[0]
        items = SelectExecutor(self)._expand_stars_early(stmt)
        return [_output_name(item, i) for i, item in enumerate(items)]

    # ------------------------------------------------------------------
    # INSERT.
    # ------------------------------------------------------------------
    def _insert(self, stmt):
        info = self.metastore.table(stmt.table)
        suffix = (self._partition_key(info, stmt.partition_spec,
                                      "PARTITION spec")
                  if stmt.partition_spec else ())
        jobs = []
        if stmt.values is not None:
            env = Env()
            rows = [tuple(compile_expr(e, env)(()) for e in row)
                    for row in stmt.values]
            select_seconds = 0.0
        else:
            executor = SelectExecutor(self)
            result = executor.run(stmt.query)
            rows = result.rows
            jobs = executor.jobs
            select_seconds = sum(job.sim_seconds for job in jobs)
        if suffix:
            rows = [tuple(r) + suffix for r in rows]
        coerced = info.schema.coerce_rows(rows)
        write_seconds = self._charged_parallel(
            lambda: info.handler.insert_rows(coerced,
                                             overwrite=stmt.overwrite))
        return QueryResult(sim_seconds=select_seconds + write_seconds,
                           jobs=jobs, affected=len(coerced),
                           plan="insert-%s"
                                % ("overwrite" if stmt.overwrite else "into"))

    # ------------------------------------------------------------------
    # UPDATE / DELETE dispatch.
    # ------------------------------------------------------------------
    def _update_or_delete(self, stmt):
        info = self.metastore.table(stmt.table)
        stmt = self._resolve_dml_subqueries(stmt)
        return info.handler.execute_update(self, WhereEdit(stmt, info.schema))

    def _resolve_dml_subqueries(self, stmt):
        """Materialize scalar/IN subqueries in SET and WHERE clauses."""
        executor = SelectExecutor(self)
        self._dml_subquery_jobs = []
        def rewrite(expr):
            if expr is None:
                return None
            rewritten = executor._rewrite_expr_subqueries(expr)
            return rewritten
        if isinstance(stmt, ast.UpdateStmt):
            stmt.assignments = [(name, rewrite(e))
                                for name, e in stmt.assignments]
        stmt.where = rewrite(stmt.where)
        self._dml_subquery_jobs = executor.jobs
        return stmt

    # -- Hive(HDFS) baseline: full INSERT OVERWRITE --------------------
    def _overwrite_scope(self, handler, ranges):
        """(scan_ranges, affected_partitions) for an overwrite rewrite.

        Plain tables rewrite everything (no pruning possible: every row
        must be written back).  Partitioned tables rewrite only the
        partitions the edit's ranges can touch — Hive's partition-level
        granularity — so partition-column constraints prune the scan.
        """
        if not handler.partition_columns:
            return None, None
        partition_ranges = {name: r for name, r in ranges.items()
                            if name in handler.partition_columns}
        return partition_ranges, handler.affected_partitions(
            partition_ranges)

    def _rewrite_via_overwrite(self, info, edit, extra_detail=None):
        """Listing-2 lowering of one row edit: rewrite every row.

        Each map task scans ColumnBatches, matches rows and evaluates
        their new values (the edit's batch matcher), splices the results
        into copied columns — or, for DELETE, drops the matched rows —
        and hands the runner row tuples again (the row-at-a-time
        statement of the same lowering is the oracle in
        ``tests/test_overwrite_batch.py``).
        """
        handler = info.handler
        schema = info.schema
        verb = edit.verb
        match = edit.batch_matcher(schema.names)
        targets = edit.targets
        # INSERT OVERWRITE reads *all* columns; only partition-level
        # pruning is possible (every surviving row must be rewritten).
        scan_ranges, affected = self._overwrite_scope(handler, edit.ranges)
        splits = handler.scan_splits(projection=None, ranges=scan_ranges)
        batch_rows = self.batch_rows
        counter = verb + "d"

        def map_fn(split, ctx):
            out = []
            for batch in handler.read_split_batches(split, ctx,
                                                    batch_rows=batch_rows):
                columns, n = batch.columns, batch.length
                keep, values = match(batch)
                if keep:
                    ctx.incr(counter, len(keep))
                    if verb == "delete":
                        survives = spliced([True] * n, keep, repeat(False))
                        columns = [compress(column, survives)
                                   for column in columns]
                    else:
                        columns = list(columns)
                        for target, column in zip(targets, values):
                            columns[target] = spliced(columns[target], keep,
                                                      column)
                out.extend(zip(*columns))
            return out

        job = Job(name="%s-overwrite" % verb, splits=splits, map_fn=map_fn,
                  reduce_fn=None,
                  properties={"shard_fanout": handler.shard_fanout})
        result = self.runner.run(job)
        rows = schema.coerce_rows(result.outputs)
        if affected is not None:
            write_seconds = self._charged_parallel(
                lambda: handler.replace_partitions(rows, affected))
        else:
            write_seconds = self._charged_parallel(
                lambda: handler.insert_rows(rows, overwrite=True))
        jobs = self._dml_subquery_jobs + [result]
        sub_seconds = sum(j.sim_seconds for j in self._dml_subquery_jobs)
        detail = {"plan": "overwrite", "rows_written": len(rows)}
        detail.update(extra_detail or {})
        return QueryResult(
            sim_seconds=sub_seconds + result.sim_seconds + write_seconds,
            jobs=jobs, affected=result.counters.get(counter, 0),
            plan="%s-overwrite" % verb, detail=detail)

    # ------------------------------------------------------------------
    # COMPACT.
    # ------------------------------------------------------------------
    def _compact(self, stmt):
        info = self.metastore.table(stmt.table)
        result = info.handler.execute_compact(
            self, major=stmt.major, partial=stmt.partial,
            max_files=stmt.max_files)
        self.maintenance.note_manual(info.name, result)
        return result

    # ------------------------------------------------------------------
    # Sharding (SHOW SHARDS / ALTER TABLE ... REBALANCE).
    # ------------------------------------------------------------------
    def _sharded_handler(self, table, verb):
        from repro.shard.sharded import ShardedDualTableHandler
        info = self.metastore.table(table)
        handler = info.handler
        if not isinstance(handler, ShardedDualTableHandler):
            raise AnalysisError(
                "%s requires a sharded DualTable (got %s stored as %s)"
                % (verb, info.name, info.storage))
        return handler

    def _show_shards(self, stmt):
        from repro.shard import SHARD_COLUMNS
        handler = self._sharded_handler(stmt.table, "SHOW SHARDS")
        return QueryResult(names=list(SHARD_COLUMNS),
                           rows=handler.shard_rows(), plan="show-shards")

    def _alter_rebalance(self, stmt):
        handler = self._sharded_handler(stmt.table,
                                        "ALTER TABLE ... REBALANCE")
        return handler.execute_rebalance(self)

    # ------------------------------------------------------------------
    # Cost helpers.
    # ------------------------------------------------------------------
    def _charged_parallel(self, fn, slots=None):
        """Run ``fn``, return its charged time divided over ``slots``.

        Bulk writes issued by a statement (INSERT OVERWRITE output, HBase
        truncate+reload...) happen inside parallel tasks on a real
        cluster; per-slot charge divided by slot count yields the
        aggregate-rate elapsed time.
        """
        slots = slots or self.cluster.profile.total_map_slots
        with self.cluster.cost_scope("bulk") as scope:
            fn()
        # HBase charges are already at serialized aggregate rates; only
        # the HDFS/CPU portion parallelizes over task slots.
        return (scope.parallel_seconds / max(1, slots)
                + scope.hbase_seconds)

