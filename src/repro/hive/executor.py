"""SELECT execution: scans, reduce-side joins, hash aggregation, sorting.

The executor compiles a :class:`~repro.hive.ast_nodes.SelectStmt` into one
or more MapReduce jobs, mirroring how Hive lowers HiveQL:

* leaf scans are map tasks with projection + predicate pushdown,
* each join is one reduce-side-join job (left-deep chaining, single-side
  conjuncts pushed below the join),
* GROUP BY is a hash-aggregation map phase plus a merging reduce,
* ORDER BY / LIMIT run as a final (charged) pass.

Intermediate results between chained jobs are "materialized": their
estimated serialized size is charged as HDFS write+read, like Hive's
inter-job temp files.
"""

import heapq
from dataclasses import dataclass, field
from itertools import repeat
from math import isnan
from operator import itemgetter, neg

from repro.common.errors import AnalysisError, FaultInjectedError
from repro.mapreduce import InputSplit, Job, estimate_record_bytes
from repro.hive import ast_nodes as ast
from repro.hive.aggregates import (AggregateSpec, rewrite_aggregates,
                                   validate_no_nested_aggregates)
from repro.hive.expressions import (Env, SlotRef, compile_expr,
                                    contains_aggregate, find_subqueries,
                                    is_true, referenced_columns, walk)
from repro.hive.pushdown import extract_ranges
from repro.hive.vexpr import compile_batch, compile_batch_predicate
from repro.vector import (DEFAULT_BATCH_ROWS, batch_from_rows,
                          batches_from_rows, gather, group_indices)


# ----------------------------------------------------------------------
# Row sources.
# ----------------------------------------------------------------------
@dataclass
class ScanSource:
    """A leaf table scan with pushdown applied."""

    handler: object
    alias: str
    projection: list            # column names read from storage
    env: Env                    # environment over the projected tuple
    filter_expr: object = None  # residual row filter (AST)
    ranges: dict = field(default_factory=dict)

    def splits(self):
        return self.handler.scan_splits(self.projection, self.ranges)

    def make_batch_reader(self, batch_rows=DEFAULT_BATCH_ROWS):
        handler = self.handler
        predicate = (compile_batch_predicate(self.filter_expr, self.env)
                     if self.filter_expr is not None else None)

        def read(split, ctx):
            for batch in handler.read_split_batches(split, ctx,
                                                    batch_rows=batch_rows):
                if predicate is not None:
                    batch = predicate(batch)
                    if batch.length == 0:
                        continue
                yield batch
        return read


@dataclass
class MaterializedSource:
    """An in-memory intermediate relation (Hive temp-file analogue)."""

    rows: list
    env: Env
    bytes_estimate: int = 0

    def splits(self, chunk_rows=20000):
        if not self.rows:
            return [InputSplit(payload=[], size_bytes=0, label="mem[empty]")]
        per_row = max(1, self.bytes_estimate // max(1, len(self.rows)))
        return [
            InputSplit(payload=self.rows[i:i + chunk_rows],
                       size_bytes=per_row * len(self.rows[i:i + chunk_rows]),
                       label="mem[%d]" % i)
            for i in range(0, len(self.rows), chunk_rows)
        ]

    def make_batch_reader(self, batch_rows=DEFAULT_BATCH_ROWS):
        width = self.env.width

        def read(split, ctx):
            ctx.cluster.charge_hdfs_read(split.size_bytes)
            yield from batches_from_rows(split.payload, width, batch_rows)
        return read


def merge_envs(left_env, right_env):
    """Environment over concatenated (left_tuple + right_tuple) rows."""
    merged = Env()
    for name in left_env.names():
        slot = left_env.try_resolve(name)
        if slot is not None:
            merged.bind(name, slot)
    offset = left_env.width
    for name in right_env.names():
        slot = right_env.try_resolve(name)
        if slot is not None:
            merged.bind(name, offset + slot)
    merged.width = left_env.width + right_env.width
    return merged


class QueryResultRows:
    """Schema names + row tuples returned by the executor."""

    def __init__(self, names, rows):
        self.names = names
        self.rows = rows


# ----------------------------------------------------------------------
# Executor.
# ----------------------------------------------------------------------
class SelectExecutor:
    """Executes one SELECT statement for a session."""

    def __init__(self, session):
        self.session = session
        self.jobs = []
        #: simulated seconds charged by LOOKUP-plan reads (no Job exists
        #: to sum, so the session adds this to the jobs' time).
        self.lookup_seconds = 0.0
        self.lookup_details = []

    @property
    def cluster(self):
        return self.session.env.cluster

    @property
    def runner(self):
        return self.session.env.runner

    @property
    def plan_mode(self):
        """``cost`` (default), or the forced ``lookup`` / ``scan`` knob."""
        return getattr(self.session, "plan_mode", "cost")

    @property
    def batch_rows(self):
        return getattr(self.session, "batch_rows", DEFAULT_BATCH_ROWS)

    def _splits(self, relation):
        """Splits for a relation, honoring the session batch-size knob.

        The knob is shared deliberately: a MaterializedSource split is
        exactly one batch, so one setting governs both task granularity
        (which the simulated clock sees) and batch sizing.
        """
        if isinstance(relation, MaterializedSource):
            return relation.splits(chunk_rows=self.batch_rows)
        return relation.splits()

    # ------------------------------------------------------------------
    def run(self, stmt):
        if isinstance(stmt, ast.UnionAllStmt):
            return self._union_all(stmt)
        stmt = self._materialize_subqueries(stmt)
        if stmt.source is None:
            return self._constant_select(stmt)
        items = self._expand_stars_early(stmt)
        tracer = self.cluster.tracer
        with tracer.span("phase", "select:from"):
            relation = self._execute_from(stmt, items)
        with tracer.span("phase", "select:finalize"):
            return self._finalize(stmt, items, relation)

    def _union_all(self, stmt):
        """Concatenate branch results (schemas must agree in arity)."""
        names = None
        rows = []
        for select in stmt.selects:
            branch = self.run(select)
            if names is None:
                names = branch.names
            elif len(branch.names) != len(names):
                raise AnalysisError(
                    "UNION ALL branches have %d vs %d columns"
                    % (len(names), len(branch.names)))
            rows.extend(branch.rows)
        self.cluster.charge_cpu_rows(len(rows))
        return QueryResultRows(names or [], rows)

    # ------------------------------------------------------------------
    # Subqueries (uncorrelated; evaluated eagerly, costs accounted).
    # ------------------------------------------------------------------
    def _materialize_subqueries(self, stmt):
        def rewrite(expr):
            if expr is None or not find_subqueries(expr):
                return expr
            return self._rewrite_expr_subqueries(expr)
        stmt.where = rewrite(stmt.where)
        stmt.having = rewrite(stmt.having)
        for item in stmt.items:
            item.expr = rewrite(item.expr)
        for join in stmt.joins:
            join.condition = rewrite(join.condition)
        return stmt

    def _rewrite_expr_subqueries(self, expr):
        if isinstance(expr, ast.SubQueryExpr):
            result = self._run_subquery(expr.query)
            if len(result.rows) > 1:
                raise AnalysisError(
                    "scalar subquery returned %d rows" % len(result.rows))
            value = result.rows[0][0] if result.rows else None
            return ast.Literal(value=value)
        if isinstance(expr, ast.InList):
            items = []
            for item in expr.items:
                if isinstance(item, ast.SubQueryExpr):
                    result = self._run_subquery(item.query)
                    values = frozenset(r[0] for r in result.rows)
                    items.append(ast.Literal(value=values))
                else:
                    items.append(self._rewrite_expr_subqueries(item))
            return ast.InList(
                operand=self._rewrite_expr_subqueries(expr.operand),
                items=items, negated=expr.negated)
        if isinstance(expr, ast.BinaryOp):
            return ast.BinaryOp(op=expr.op,
                                left=self._rewrite_expr_subqueries(expr.left),
                                right=self._rewrite_expr_subqueries(expr.right))
        if isinstance(expr, ast.LogicalOp):
            return ast.LogicalOp(op=expr.op,
                                 operands=[self._rewrite_expr_subqueries(o)
                                           for o in expr.operands])
        if isinstance(expr, ast.NotOp):
            return ast.NotOp(
                operand=self._rewrite_expr_subqueries(expr.operand))
        if isinstance(expr, ast.FuncCall):
            return ast.FuncCall(name=expr.name,
                                args=[self._rewrite_expr_subqueries(a)
                                      for a in expr.args],
                                distinct=expr.distinct)
        return expr

    def _run_subquery(self, query):
        sub = SelectExecutor(self.session)
        result = sub.run(query)
        self.jobs.extend(sub.jobs)
        return result

    # ------------------------------------------------------------------
    # Star expansion (needs source schemas only, not data).
    # ------------------------------------------------------------------
    def _expand_stars_early(self, stmt):
        items = []
        for item in stmt.items:
            if not isinstance(item.expr, ast.Star):
                items.append(item)
                continue
            qualifier = item.expr.qualifier
            refs = [stmt.source] + [j.table for j in stmt.joins]
            for ref in refs:
                if qualifier and ref.binding.lower() != qualifier.lower():
                    continue
                for name in self._source_column_list(ref):
                    col = ast.ColumnRef(name=name, qualifier=ref.binding)
                    items.append(ast.SelectItem(expr=col, alias=name))
        if not items:
            raise AnalysisError("SELECT list is empty after * expansion")
        return items

    def _source_column_list(self, table_ref):
        table_ref = self._resolve_view(table_ref)
        if table_ref.subquery is not None:
            return self.session.infer_select_names(table_ref.subquery)
        info = self.session.metastore.table(table_ref.name)
        return info.schema.names

    def _resolve_view(self, table_ref):
        """Expand a view reference into a derived table (in place).

        The stored view AST is deep-copied: execution rewrites statement
        trees in place (subquery materialization), and the view must stay
        pristine for its next use.
        """
        import copy

        if table_ref.subquery is None and table_ref.name is not None:
            view = self.session.view_query(table_ref.name)
            if view is not None:
                table_ref.subquery = copy.deepcopy(view)
        return table_ref

    # ------------------------------------------------------------------
    # FROM clause → a joined relation with per-binding pushdown.
    # ------------------------------------------------------------------
    def _execute_from(self, stmt, items):
        side_filters, residual = self._split_where(stmt)
        needed = self._needed_columns(stmt, items, residual)
        left = self._leaf_relation(stmt.source,
                                   side_filters.get(stmt.source.binding),
                                   needed.get(stmt.source.binding.lower()))
        for join in stmt.joins:
            right = self._leaf_relation(
                join.table, side_filters.get(join.table.binding),
                needed.get(join.table.binding.lower()))
            left = self._join(left, right, join)
        relation = left
        if residual is not None:
            relation = self._apply_residual(relation, residual)
        return relation

    def _apply_residual(self, relation, residual):
        if isinstance(relation, ScanSource):
            combined = (residual if relation.filter_expr is None
                        else ast.LogicalOp(op="and",
                                           operands=[relation.filter_expr,
                                                     residual]))
            relation.filter_expr = combined
            relation.ranges = extract_ranges(combined)
            return relation
        env = relation.env
        rows = self._filter_rows(residual, env, relation.rows)
        self.cluster.charge_cpu_rows(len(relation.rows))
        return MaterializedSource(rows, env, estimate_record_bytes(rows))

    def _filter_rows(self, expr, env, rows):
        """The rows of an in-memory relation that pass ``expr``."""
        predicate = compile_batch_predicate(expr, env)
        kept = []
        for batch in batches_from_rows(rows, env.width, self.batch_rows):
            kept.extend(predicate(batch).rows())
        return kept

    def _split_where(self, stmt):
        """Partition WHERE conjuncts by which FROM binding they touch."""
        if stmt.where is None:
            return {}, None
        bindings = [stmt.source.binding] + [j.table.binding
                                            for j in stmt.joins]
        available = {
            ref.binding: {n.lower() for n in self._source_column_list(ref)}
            for ref in [stmt.source] + [j.table for j in stmt.joins]
        }
        side_filters = {}
        residual = []
        single_source = len(bindings) == 1
        for conjunct in _iter_conjuncts(stmt.where):
            owner = self._owning_binding(conjunct, available, bindings)
            if owner is not None or single_source:
                owner = owner or bindings[0]
                side_filters.setdefault(owner, []).append(conjunct)
            else:
                residual.append(conjunct)
        merged = {b: _and(conj) for b, conj in side_filters.items()}
        return merged, _and(residual) if residual else None

    def _owning_binding(self, expr, available, bindings):
        touched = set()
        for node in walk(expr):
            if not isinstance(node, ast.ColumnRef):
                continue
            if node.qualifier:
                touched.add(node.qualifier.lower())
            else:
                owners = [b for b in bindings
                          if node.name.lower() in available[b]]
                if len(owners) != 1:
                    return None
                touched.add(owners[0].lower())
        if len(touched) != 1:
            return None
        lower_map = {b.lower(): b for b in bindings}
        return lower_map.get(next(iter(touched)))

    def _needed_columns(self, stmt, items, residual):
        """Column names each binding must produce (lowercased sets)."""
        refs = [stmt.source] + [j.table for j in stmt.joins]
        available = {ref.binding.lower():
                     {n.lower() for n in self._source_column_list(ref)}
                     for ref in refs}
        needed = {b: set() for b in available}
        exprs = [item.expr for item in items]
        exprs.extend(j.condition for j in stmt.joins)
        exprs.extend(stmt.group_by)
        if residual is not None:
            exprs.append(residual)
        if stmt.having is not None:
            exprs.append(stmt.having)
        exprs.extend(o.expr for o in stmt.order_by)
        for expr in exprs:
            if expr is None:
                continue
            for node in walk(expr):
                if not isinstance(node, ast.ColumnRef):
                    continue
                name = node.name.lower()
                if node.qualifier:
                    bucket = needed.get(node.qualifier.lower())
                    if bucket is not None:
                        bucket.add(name)
                else:
                    for binding, cols in available.items():
                        if name in cols:
                            needed[binding].add(name)
        return needed

    def _leaf_relation(self, table_ref, side_filter, needed):
        table_ref = self._resolve_view(table_ref)
        if table_ref.subquery is not None:
            result = self._run_subquery(table_ref.subquery)
            env = Env()
            env.add_schema(result.names, alias=table_ref.binding)
            rows = result.rows
            if side_filter is not None:
                rows = self._filter_rows(side_filter, env, rows)
            return MaterializedSource(rows, env, estimate_record_bytes(rows))
        info = self.session.metastore.table(table_ref.name)
        return self._make_scan(info, table_ref.binding, side_filter, needed)

    def _make_scan(self, info, alias, side_filter, needed):
        schema = info.schema
        if needed is None:
            projection = schema.names
        else:
            want = set(needed)
            if side_filter is not None:
                want |= referenced_columns(side_filter)
            projection = [c.name for c in schema if c.name.lower() in want]
            if not projection:
                projection = [schema.columns[0].name]
        env = Env()
        env.add_schema(projection, alias=alias)
        ranges = extract_ranges(side_filter) if side_filter is not None else {}
        # Repeatable reads: record the table in the server transaction at
        # scan-build time, so the commit-log snapshot taken at dispatch
        # covers every table the statement physically reads.
        txn = getattr(self.session, "current_txn", None)
        if txn is not None:
            txn.touch(info.name)
        return ScanSource(handler=info.handler, alias=alias,
                          projection=projection, env=env,
                          filter_expr=side_filter, ranges=ranges)

    # ------------------------------------------------------------------
    # Join (reduce-side).
    # ------------------------------------------------------------------
    def _join(self, left, right, join):
        self._reject_forced_lookup(left, "a join")
        self._reject_forced_lookup(right, "a join")
        left_env, right_env = left.env, right.env
        merged_env = merge_envs(left_env, right_env)
        equi, leftover = self._split_join_condition(join.condition,
                                                    left_env, right_env)
        if not equi:
            raise AnalysisError(
                "join requires at least one equi-condition: %r"
                % (join.condition,))
        leftover_fn = (compile_expr(leftover, merged_env)
                       if leftover is not None else None)
        left_width, right_width = left_env.width, right_env.width
        kind = join.kind

        splits = ([InputSplit(payload=("L", s), size_bytes=s.size_bytes,
                              label="L:" + s.label)
                   for s in self._splits(left)]
                  + [InputSplit(payload=("R", s), size_bytes=s.size_bytes,
                                label="R:" + s.label)
                     for s in self._splits(right)])
        sides = {
            "L": (left.make_batch_reader(self.batch_rows),
                  [compile_batch(l, left_env) for l, _ in equi],
                  kind in ("left", "full")),
            "R": (right.make_batch_reader(self.batch_rows),
                  [compile_batch(r, right_env) for _, r in equi],
                  kind in ("right", "full")),
        }

        def map_fn(split, ctx):
            # NULL-key sentinels are unique per row so null keys never
            # group; keyed by (task_index, local_i) in reader order — not
            # a shared counter — so key assignment is identical however
            # map tasks interleave on the worker pool.
            side, inner = split.payload
            reader, key_bexprs, outer = sides[side]
            local_i = 0
            out = []
            for batch in reader(inner, ctx):
                key_cols = [fn(batch.columns, batch.length)
                            for fn in key_bexprs]
                if not any(None in col for col in key_cols):
                    out.extend(zip(zip(*key_cols),
                                   zip(repeat(side), batch.rows())))
                    continue
                for key, values in zip(zip(*key_cols), batch.rows()):
                    if None in key:
                        if outer:
                            out.append((("\x00null", ctx.task_index,
                                         local_i), (side, values)))
                            local_i += 1
                        continue
                    out.append((key, (side, values)))
            return out

        def reduce_fn(key, tagged, ctx):
            lefts = [v for tag, v in tagged if tag == "L"]
            rights = [v for tag, v in tagged if tag == "R"]
            null_right = (None,) * right_width
            null_left = (None,) * left_width
            if isinstance(key, tuple) and key and key[0] == "\x00null":
                # NULL join keys never match; outer sides still emit.
                return ([lv + null_right for lv in lefts]
                        + [null_left + rv for rv in rights])
            if kind == "inner" and leftover_fn is None:
                return [lv + rv for lv in lefts for rv in rights]
            out = []
            matched_right = set()
            for lv in lefts:
                matched = False
                for i, rv in enumerate(rights):
                    combined = lv + rv
                    if leftover_fn is None or is_true(leftover_fn(combined)):
                        matched = True
                        matched_right.add(i)
                        out.append(combined)
                if not matched and kind in ("left", "full"):
                    out.append(lv + null_right)
            if kind in ("right", "full"):
                out.extend(null_left + rv for i, rv in enumerate(rights)
                           if i not in matched_right)
            return out

        job = Job(name="join", splits=splits, map_fn=map_fn,
                  reduce_fn=reduce_fn,
                  num_reducers=self.cluster.profile.total_reduce_slots,
                  properties={"shard_fanout": max(self._fanout(left),
                                                  self._fanout(right))})
        result = self.runner.run(job)
        self.jobs.append(result)
        rows = result.outputs
        source = MaterializedSource(rows, merged_env,
                                    estimate_record_bytes(rows))
        # Hive writes inter-job results to HDFS temp files.
        self.cluster.charge_hdfs_write(source.bytes_estimate)
        return source

    def _split_join_condition(self, condition, left_env, right_env):
        equi, leftover = [], []
        for conjunct in _iter_conjuncts(condition):
            pair = self._equi_pair(conjunct, left_env, right_env)
            if pair is not None:
                equi.append(pair)
            else:
                leftover.append(conjunct)
        return equi, _and(leftover) if leftover else None

    def _equi_pair(self, expr, left_env, right_env):
        if not (isinstance(expr, ast.BinaryOp) and expr.op == "="):
            return None
        sides = []
        for operand in (expr.left, expr.right):
            cols = [n for n in walk(operand) if isinstance(n, ast.ColumnRef)]
            if not cols:
                return None
            in_left = all(_resolvable(c, left_env) for c in cols)
            in_right = all(_resolvable(c, right_env) for c in cols)
            if in_left and not in_right:
                sides.append("L")
            elif in_right and not in_left:
                sides.append("R")
            else:
                return None
        if set(sides) != {"L", "R"}:
            return None
        if sides[0] == "L":
            return (expr.left, expr.right)
        return (expr.right, expr.left)

    # ------------------------------------------------------------------
    # Final stage: aggregation or projection, then ORDER BY / LIMIT.
    # ------------------------------------------------------------------
    def _finalize(self, stmt, items, relation):
        is_aggregate = bool(stmt.group_by) or any(
            contains_aggregate(item.expr) for item in items)
        if stmt.having is not None and not is_aggregate:
            raise AnalysisError("HAVING requires GROUP BY or aggregates")
        names = [_output_name(item, i) for i, item in enumerate(items)]
        sort_keys, hidden = self._sort_keys(stmt, names)
        if is_aggregate:
            if stmt.distinct:
                raise AnalysisError(
                    "SELECT DISTINCT cannot be combined with aggregates")
            self._reject_forced_lookup(relation, "aggregation")
            rows = self._aggregate_stage(stmt, items + hidden, relation)
        else:
            rows = self._projection_stage(items + hidden, relation)
            if stmt.distinct:
                self.cluster.charge_cpu_rows(len(rows))
                rows = list(dict.fromkeys(rows))
        rows = self._order_and_limit(stmt, sort_keys, rows)
        if hidden:
            rows = list(map(itemgetter(slice(len(names))), rows))
        return QueryResultRows(names, rows)

    def _sort_keys(self, stmt, names):
        """ORDER BY keys as batch expressions over the result rows.

        A key that is not an expression over the output names (a
        qualified or unprojected source column, an aggregate) becomes a
        hidden trailing select item: the final stage computes it like any
        other item — and raises ``AnalysisError`` there if it resolves
        nowhere — and ``_finalize`` strips it after the sort.  Returns
        ``([(batch_fn, descending)], hidden_items)``.
        """
        env = Env().add_schema(names)
        keys, hidden = [], []
        for order in stmt.order_by:
            try:
                fn = compile_batch(order.expr, env)
            except AnalysisError:
                if stmt.distinct:
                    raise AnalysisError(
                        "SELECT DISTINCT: ORDER BY key %r must be an "
                        "output column" % (order.expr,)) from None
                fn = compile_batch(SlotRef(index=len(names) + len(hidden)),
                                   env)
                hidden.append(ast.SelectItem(expr=order.expr, alias=None))
            keys.append((fn, order.descending))
        return keys, hidden

    def _projection_stage(self, items, relation):
        exprs = [item.expr for item in items]
        if isinstance(relation, MaterializedSource):
            rows = _project(
                batches_from_rows(relation.rows, relation.env.width,
                                  self.batch_rows),
                [compile_batch(expr, relation.env) for expr in exprs])
            self.cluster.charge_cpu_rows(len(relation.rows))
            return rows
        compiled = [compile_expr(expr, relation.env) for expr in exprs]
        source_rows = self._try_lookup(relation)
        if source_rows is not None:
            rows = [tuple(fn(r) for fn in compiled) for r in source_rows]
            self.cluster.charge_cpu_rows(len(source_rows))
            return rows
        bexprs = [compile_batch(expr, relation.env) for expr in exprs]
        reader = relation.make_batch_reader(self.batch_rows)

        def map_fn(split, ctx):
            return _project(reader(split, ctx), bexprs)

        job = Job(name="select-scan", splits=self._splits(relation),
                  map_fn=map_fn, reduce_fn=None,
                  properties={"shard_fanout": self._fanout(relation)})
        result = self.runner.run(job)
        self.jobs.append(result)
        return result.outputs

    # ------------------------------------------------------------------
    # LOOKUP routing (the plan that skips MapReduce entirely).
    # ------------------------------------------------------------------
    @staticmethod
    def _lookup_capable(relation):
        return (isinstance(relation, ScanSource)
                and getattr(relation.handler, "primary_key", None) is not None
                and hasattr(relation.handler, "execute_lookup"))

    @staticmethod
    def _fanout(relation):
        """Scatter-gather width for this relation's jobs (makespan only)."""
        if isinstance(relation, ScanSource):
            return getattr(relation.handler, "shard_fanout", 1)
        return 1

    def _try_lookup(self, relation):
        """Route an eligible dualtable scan through the LOOKUP plan.

        Returns the merged source rows (tuples in ``relation.env`` order
        with the residual filter applied) when the LOOKUP plan ran, or
        None to fall through to the MR scan.  A non-fatal injected fault
        anywhere in the lookup (index read, attached probe) falls back to
        the scan plan — planning is uncharged and both fault points fire
        before the first charged byte, so the fallback never double
        charges.
        """
        mode = self.plan_mode
        if not isinstance(relation, ScanSource):
            return None
        handler = relation.handler
        if not self._lookup_capable(relation):
            if mode == "lookup":
                raise AnalysisError(
                    "SET dualtable.plan = lookup: table %r has no PRIMARY "
                    "KEY lookup path" % relation.alias)
            return None
        if mode == "scan":
            if handler.plan_lookup(relation.ranges, relation.projection,
                                   hit_faults=False) is not None:
                handler.note_lookup_scan("eligible_scan")
            return None
        try:
            plan = handler.plan_lookup(relation.ranges,
                                       relation.projection)
        except FaultInjectedError as exc:
            if exc.fatal:
                raise
            handler.note_lookup_scan("fallback")
            return None
        if plan is None:
            if mode == "lookup":
                raise AnalysisError(
                    "SET dualtable.plan = lookup: predicate does not bound "
                    "PRIMARY KEY %r (or the range exceeds "
                    "dualtable.lookup.max_rows)" % handler.primary_key)
            return None
        if mode != "lookup" and plan.choice.plan != "lookup":
            handler.note_lookup_scan("eligible_scan")
            return None
        where = ((relation.filter_expr, relation.env)
                 if relation.filter_expr is not None else None)
        try:
            rows, examined, seconds, detail = handler.execute_lookup(
                plan, batch_rows=self.batch_rows, where=where)
        except FaultInjectedError as exc:
            if exc.fatal:
                raise
            handler.note_lookup_scan("fallback")
            return None
        self.lookup_seconds += seconds
        self.lookup_details.append(detail)
        if where is not None:
            # The filter's CPU charge goes by the rows it examined.
            self.cluster.charge_cpu_rows(examined)
        return rows

    def _reject_forced_lookup(self, relation, what):
        if self.plan_mode == "lookup" and self._lookup_capable(relation):
            raise AnalysisError(
                "SET dualtable.plan = lookup cannot serve %s over "
                "DualTable %r — SET dualtable.plan = cost (or scan) first"
                % (what, relation.alias))

    def _aggregate_stage(self, stmt, items, relation):
        group_by = list(stmt.group_by)
        agg_calls = []
        rewritten_items = [rewrite_aggregates(item.expr, group_by, agg_calls)
                           for item in items]
        having_rewritten = (rewrite_aggregates(stmt.having, group_by,
                                               agg_calls)
                            if stmt.having is not None else None)
        validate_no_nested_aggregates(agg_calls)

        specs = []
        for call in agg_calls:
            star = (not call.args) or isinstance(call.args[0], ast.Star)
            if star and call.name != "count":
                raise AnalysisError("%s(*) is not supported" % call.name)
            specs.append(AggregateSpec(call.name, distinct=call.distinct,
                                       count_star=star))
        map_fn = self._aggregate_map(relation, group_by, agg_calls, specs)

        def reduce_fn(key, acc_lists, ctx):
            merged = None
            for accs in acc_lists:
                if merged is None:
                    merged = list(accs)
                else:
                    merged = [spec.merge(m, a)
                              for spec, m, a in zip(specs, merged, accs)]
            finals = [spec.finalize(m) for spec, m in zip(specs, merged)]
            yield tuple(key) + tuple(finals)

        job = Job(name="groupby", splits=self._splits(relation),
                  map_fn=map_fn, reduce_fn=reduce_fn,
                  num_reducers=self.cluster.profile.total_reduce_slots,
                  properties={"shard_fanout": self._fanout(relation)})
        result = self.runner.run(job)
        self.jobs.append(result)
        if not group_by and not result.outputs:
            # SQL: a global aggregate over zero rows yields one row
            # (COUNT = 0, SUM/MIN/MAX/AVG = NULL).
            result.outputs = [tuple(spec.finalize(spec.init())
                                    for spec in specs)]

        post_env = Env()
        post_env.width = len(group_by) + len(specs)
        compiled = [compile_expr(e, post_env) for e in rewritten_items]
        having_fn = (compile_expr(having_rewritten, post_env)
                     if having_rewritten is not None else None)
        rows = []
        for raw in result.outputs:
            if having_fn is not None and not is_true(having_fn(raw)):
                continue
            rows.append(tuple(fn(raw) for fn in compiled))
        self.cluster.charge_cpu_rows(len(result.outputs))
        return rows

    def _aggregate_map(self, relation, group_by, agg_calls, specs):
        """Map-side hash aggregation (Hive map-side aggregation) over
        ColumnBatches.

        Keys and aggregate arguments are evaluated column-at-a-time.  Per
        batch, one pass groups row indices by key (first-seen order: it
        decides the emitted record order, hence the shuffle-size sample)
        and each group's argument slice is folded into its accumulator
        by ``AggregateSpec.fold``; a global aggregate folds whole columns.
        """
        input_env = relation.env
        key_bexprs = [compile_batch(e, input_env) for e in group_by]
        arg_bexprs = [None if spec.count_star
                      else compile_batch(call.args[0], input_env)
                      for call, spec in zip(agg_calls, specs)]
        reader = relation.make_batch_reader(self.batch_rows)

        def map_fn(split, ctx):
            table = {}
            for batch in reader(split, ctx):
                cols, n = batch.columns, batch.length
                if n == 0:
                    continue        # no row: no group, not even ()
                arg_cols = [None if fn is None else fn(cols, n)
                            for fn in arg_bexprs]
                groups = (group_indices([fn(cols, n) for fn in key_bexprs])
                          if key_bexprs else {(): range(n)})
                for key, indices in groups.items():
                    accs = table.get(key)
                    if accs is None:
                        accs = table[key] = [spec.init() for spec in specs]
                    for j, spec in enumerate(specs):
                        col = arg_cols[j]
                        if col is not None and len(indices) < n:
                            col = gather(col, indices)
                        accs[j] = spec.fold(accs[j], col, len(indices))
            return list(table.items())
        return map_fn

    def _order_and_limit(self, stmt, sort_keys, rows):
        """Sort ``rows`` by ``sort_keys`` (see ``_sort_keys``) and apply
        LIMIT; ties keep input order.

        Keys are evaluated column-wise per chunk of ``batch_rows``.  With
        a LIMIT k each chunk keeps only its k smallest rows — so a top-k
        never holds a key for every row — and the survivors' raw keys
        are ranked once more together, which gives each key column one
        representation (``_sort_column``) for the final comparison.
        Simulated cost is charged on the input rows however it is done.
        """
        limit = stmt.limit
        if sort_keys:
            self.cluster.charge_cpu_rows(len(rows))
            descs = [desc for _, desc in sort_keys]
            key_cols = [[] for _ in sort_keys]
            picked = []
            for base in range(0, len(rows), self.batch_rows):
                batch = batch_from_rows(rows[base:base + self.batch_rows],
                                        len(rows[0]))
                cols = [fn(batch.columns, batch.length)
                        for fn, _ in sort_keys]
                index = range(base, base + batch.length)
                if limit is not None and limit < batch.length:
                    local = _ranked(cols, descs, range(batch.length), limit)
                    cols = [gather(col, local) for col in cols]
                    index = [base + i for i in local]
                for key_col, col in zip(key_cols, cols):
                    key_col.extend(col)
                picked.extend(index)
            if limit is not None and limit >= len(picked):
                limit = None
            rows = gather(rows, _ranked(key_cols, descs, picked, limit))
        if limit is not None:
            rows = rows[:limit]
        return rows

    def _constant_select(self, stmt):
        env = Env()
        compiled = [compile_expr(item.expr, env) for item in stmt.items]
        names = [_output_name(item, i) for i, item in enumerate(stmt.items)]
        row = tuple(fn(()) for fn in compiled)
        return QueryResultRows(names, [row])


# ----------------------------------------------------------------------
# Helpers.
# ----------------------------------------------------------------------
def _project(batches, bexprs):
    """``bexprs`` evaluated over each batch in turn, as row tuples."""
    out = []
    for batch in batches:
        out.extend(zip(*[fn(batch.columns, batch.length) for fn in bexprs]))
    return out


def _sort_column(col, desc):
    """One ORDER BY key column in its cheapest correctly-ordered form.

    All exact ``int``, or all exact ``float`` without NaN: the plain
    value, negated for DESC.  All exact ``str`` ascending: the plain
    string.  Anything else (NULLs, bool, mixed types, NaN, DESC strings)
    is wrapped in ``_NullsLast``.  Both forms order the values they
    admit identically, so the choice is per column, never per query.
    """
    kinds = set(map(type, col))
    if kinds == {int} or (kinds == {float} and not any(map(isnan, col))):
        return list(map(neg, col)) if desc else col
    if kinds == {str} and not desc:
        return col
    return list(map(_NullsLast, col, repeat(desc)))


def _ranked(key_cols, descs, indices, limit):
    """``indices`` ordered by their rows' keys (the first ``limit`` when
    given).  Rows are decorated ``(key..., index)``, so ties resolve by
    ascending index and no key column is compared past a difference."""
    decorated = zip(*map(_sort_column, key_cols, descs), indices)
    if limit is None:
        ranked = sorted(decorated)
    else:
        ranked = heapq.nsmallest(limit, decorated)
    return list(map(itemgetter(-1), ranked))


class _NullsLast:
    """Sort wrapper: NULLs last, optional descending."""

    __slots__ = ("value", "desc")

    def __init__(self, value, desc):
        self.value = value
        self.desc = desc

    def __lt__(self, other):
        a, b = self.value, other.value
        if a is None:
            return False
        if b is None:
            return True
        try:
            if self.desc:
                return b < a
            return a < b
        except TypeError:
            if self.desc:
                return repr(b) < repr(a)
            return repr(a) < repr(b)

    def __eq__(self, other):
        return self.value == other.value


def _output_name(item, index):
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.name
    if isinstance(item.expr, ast.FuncCall):
        return "%s_%d" % (item.expr.name, index)
    return "_c%d" % index


def _resolvable(column_ref, env):
    try:
        env.resolve(column_ref)
        return True
    except AnalysisError:
        return False


def _and(conjuncts):
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return ast.LogicalOp(op="and", operands=list(conjuncts))


def _iter_conjuncts(expr):
    if isinstance(expr, ast.LogicalOp) and expr.op == "and":
        for operand in expr.operands:
            yield from _iter_conjuncts(operand)
    else:
        yield expr
