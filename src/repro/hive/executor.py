"""SELECT execution: scans, reduce-side joins, hash aggregation, sorting.

The executor compiles a :class:`~repro.hive.ast_nodes.SelectStmt` into one
or more MapReduce jobs, mirroring how Hive lowers HiveQL:

* leaf scans are map tasks with projection + predicate pushdown,
* each join is one reduce-side-join job (left-deep chaining, single-side
  conjuncts pushed below the join),
* GROUP BY is a hash-aggregation map phase plus a merging reduce,
* ORDER BY / LIMIT run as a final (charged) pass.

Planning and running are two halves: :meth:`SelectExecutor.plan` builds
a SELECT's leaf reads without side effects, and :func:`route_read`
picks each read's access path — LOOKUP, a *fetch* of the map tasks in
the client (Hive's fetch task conversion) when
:func:`~repro.mapreduce.stage_choice` prices that below the job, or the
job.  A join or GROUP BY stage runs as a *local job* in the client when
``stage_choice`` prices it below the job (Hive's auto local mode).
``run`` executes those leaves and EXPLAIN prints the same ones.

Intermediate results between chained jobs are "materialized": their
estimated serialized size is charged as HDFS write+read, like Hive's
inter-job temp files.
"""

import heapq
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from math import isnan
from operator import itemgetter, neg

from repro.common.errors import AnalysisError, FaultInjectedError
from repro.mapreduce import (InputSplit, Job, estimate_record_bytes,
                             stage_choice)
from repro.hive import ast_nodes as ast
from repro.hive.aggregates import (AggregateSpec, rewrite_aggregates,
                                   validate_no_nested_aggregates)
from repro.hive.expressions import (Env, SlotRef, compile_expr,
                                    contains_aggregate, find_subqueries,
                                    is_true, map_children,
                                    referenced_columns, walk)
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
    shuffle: str = None         # the join or aggregation it feeds, if any

    def splits(self):
        return self.handler.scan_splits(self.projection, self.ranges)

    def route(self, mode, live=True):
        """This read's access path (:func:`route_read`): a live one fails
        the statement when a forced LOOKUP cannot run, EXPLAIN's plans its
        splits without counting a scan."""
        splits = (self.splits if live else partial(
            self.handler.plan_splits, self.projection, self.ranges))
        chosen = route_read(self.handler, self.projection, self.ranges, mode,
                            self.shuffle, splits, live)
        if live and chosen.refused is not None:
            raise AnalysisError(chosen.refused)
        return chosen

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
    handler = None              # no table: nothing to merge, no shards

    def splits(self, chunk_rows=20000):
        if not self.rows:
            return [InputSplit(payload=[], size_bytes=0, label="mem[empty]")]
        per_row = max(1, self.bytes_estimate // max(1, len(self.rows)))
        chunks = [self.rows[i:i + chunk_rows]
                  for i in range(0, len(self.rows), chunk_rows)]
        return [InputSplit(payload=chunk, size_bytes=per_row * len(chunk),
                           label="mem[%d]" % (i * chunk_rows),
                           read_bytes=per_row * len(chunk), rows=len(chunk))
                for i, chunk in enumerate(chunks)]

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


@dataclass
class SelectPlan:
    """What :meth:`SelectExecutor.plan` returns: ``run`` executes it and
    EXPLAIN prints it."""

    items: list                 # the select list, stars expanded
    leaves: list                # per FROM binding: a ScanSource, or the
                                # TableRef of a derived table or view
    side_filters: dict          # binding (lowercase) -> its WHERE conjuncts
    residual: object            # WHERE conjuncts over several bindings
    aggregate: bool


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
        #: the verdict and audit of each stage that ran in the client
        #: (``plan`` 'fetch', or 'local' for a local job).
        self.local_details = []

    @property
    def cluster(self):
        return self.session.env.cluster

    @property
    def runner(self):
        return self.session.env.runner

    @property
    def batch_rows(self):
        return self.session.batch_rows

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
        plan = self.plan(stmt)
        tracer = self.cluster.tracer
        with tracer.span("phase", "select:from"):
            relation = self._execute_from(stmt, plan)
        with tracer.span("phase", "select:finalize"):
            return self._finalize(stmt, plan, relation)

    def plan(self, stmt):
        """The leaf reads of a SELECT with a FROM clause, with no side
        effects: no transaction touched, scan counted, fault hit, byte
        charged or subquery run.  A derived table's (or view's) leaf is
        its TableRef, whose SELECT is planned in turn."""
        items = self._expand_stars_early(stmt)
        refs = [stmt.source] + [j.table for j in stmt.joins]
        columns = {ref.binding.lower():
                   {n.lower() for n in self._source_column_list(ref)}
                   for ref in refs}
        aggregate = bool(stmt.group_by) or any(
            contains_aggregate(item.expr) for item in items)
        side_filters, residual = self._split_where(stmt, columns)
        needed = self._needed_columns(stmt, items, residual, columns)
        shuffle = ("a join" if stmt.joins
                   else "an aggregation" if aggregate else None)
        leaves = [ref if ref.subquery is not None else self._make_scan(
                      self.session.metastore.table(ref.name), ref.binding,
                      side_filters.get(ref.binding.lower()),
                      needed[ref.binding.lower()], shuffle)
                  for ref in refs]
        return SelectPlan(items, leaves, side_filters, residual, aggregate)

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
        return map_children(expr, self._rewrite_expr_subqueries)

    def _run_subquery(self, query):
        sub = SelectExecutor(self.session)
        result = sub.run(query)
        self.jobs.extend(sub.jobs)
        self.lookup_seconds += sub.lookup_seconds
        self.lookup_details.extend(sub.lookup_details)
        self.local_details.extend(sub.local_details)
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
    def _execute_from(self, stmt, plan):
        leaves = iter(plan.leaves)
        left = self._leaf_relation(next(leaves), plan)
        for join, leaf in zip(stmt.joins, leaves):
            left = self._join(left, self._leaf_relation(leaf, plan), join)
        if plan.residual is None:
            return left
        rows = self._filter_rows(plan.residual, left.env, left.rows)
        self.cluster.charge_cpu_rows(len(left.rows))
        return MaterializedSource(rows, left.env, estimate_record_bytes(rows))

    def _filter_rows(self, expr, env, rows):
        """The rows of an in-memory relation that pass ``expr``."""
        predicate = compile_batch_predicate(expr, env)
        kept = []
        for batch in batches_from_rows(rows, env.width, self.batch_rows):
            kept.extend(predicate(batch).rows())
        return kept

    def _split_where(self, stmt, columns):
        """Partition WHERE conjuncts by the one FROM binding they touch;
        ``columns`` maps each binding (lowercase) to its column names."""
        if stmt.where is None:
            return {}, None
        bindings = [ref.binding.lower()
                    for ref in [stmt.source] + [j.table for j in stmt.joins]]
        side_filters = {}
        residual = []
        for conjunct in _iter_conjuncts(stmt.where):
            owner = self._owning_binding(conjunct, columns, bindings)
            if owner is None and not stmt.joins:
                owner = bindings[0]
            if owner is None:
                residual.append(conjunct)
            else:
                side_filters.setdefault(owner, []).append(conjunct)
        merged = {b: _and(conj) for b, conj in side_filters.items()}
        return merged, _and(residual)

    def _owning_binding(self, expr, columns, bindings):
        touched = set()
        for node in walk(expr):
            if not isinstance(node, ast.ColumnRef):
                continue
            if node.qualifier:
                touched.add(node.qualifier.lower())
            else:
                owners = [b for b in bindings
                          if node.name.lower() in columns[b]]
                if len(owners) != 1:
                    return None
                touched.add(owners[0])
        owner = touched.pop() if len(touched) == 1 else None
        return owner if owner in columns else None

    def _needed_columns(self, stmt, items, residual, columns):
        """Column names each binding must produce (lowercased sets)."""
        needed = {b: set() for b in columns}
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
                    for binding, cols in columns.items():
                        if name in cols:
                            needed[binding].add(name)
        return needed

    def _leaf_relation(self, leaf, plan):
        """Run one planned leaf: a scan to read, or a derived table."""
        if isinstance(leaf, ScanSource):
            # Repeatable reads: the server transaction records the
            # table before its scan runs, so the commit-log snapshot
            # taken at dispatch covers every table the statement reads.
            txn = self.session.current_txn
            if txn is not None:
                txn.touch(leaf.handler.table.name)
            return leaf
        result = self._run_subquery(leaf.subquery)
        env = Env()
        env.add_schema(result.names, alias=leaf.binding)
        rows = result.rows
        side_filter = plan.side_filters.get(leaf.binding.lower())
        if side_filter is not None:
            rows = self._filter_rows(side_filter, env, rows)
        return MaterializedSource(rows, env, estimate_record_bytes(rows))

    def _make_scan(self, info, alias, side_filter, needed, shuffle):
        schema = info.schema
        want = set(needed)
        if side_filter is not None:
            want |= referenced_columns(side_filter)
        projection = ([c.name for c in schema if c.name.lower() in want]
                      or [schema.columns[0].name])
        env = Env()
        env.add_schema(projection, alias=alias)
        ranges = extract_ranges(side_filter) if side_filter is not None else {}
        return ScanSource(handler=info.handler, alias=alias,
                          projection=projection, env=env,
                          filter_expr=side_filter, ranges=ranges,
                          shuffle=shuffle)

    # ------------------------------------------------------------------
    # Join (reduce-side).
    # ------------------------------------------------------------------
    def _join(self, left, right, join):
        for side in (left, right):
            if isinstance(side, ScanSource):
                side.route(self.session.plan_mode)
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

        inputs = [(left, self._splits(left)), (right, self._splits(right))]
        splits = [InputSplit(payload=(tag, s), size_bytes=s.size_bytes,
                             label="%s:%s" % (tag, s.label))
                  for tag, (_, side) in zip("LR", inputs) for s in side]
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
        rows = self._run(job, "a join", inputs).outputs
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
    def _finalize(self, stmt, plan, relation):
        items = plan.items
        if stmt.having is not None and not plan.aggregate:
            raise AnalysisError("HAVING requires GROUP BY or aggregates")
        names = [_output_name(item, i) for i, item in enumerate(items)]
        sort_keys, hidden = self._sort_keys(stmt, names)
        if plan.aggregate:
            if stmt.distinct:
                raise AnalysisError(
                    "SELECT DISTINCT cannot be combined with aggregates")
            if isinstance(relation, ScanSource):
                relation.route(self.session.plan_mode)
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
        chosen = relation.route(self.session.plan_mode)
        if chosen.plan == "lookup":
            source_rows = self._lookup(relation, chosen.lookup)
            if source_rows is not None:
                rows = [tuple(fn(r) for fn in compiled) for r in source_rows]
                self.cluster.charge_cpu_rows(len(source_rows))
                return rows
            chosen = _fetch_or_job(relation.handler, relation.splits,
                                   self.session.plan_mode)
        bexprs = [compile_batch(expr, relation.env) for expr in exprs]
        reader = relation.make_batch_reader(self.batch_rows)

        def map_fn(split, ctx):
            return _project(reader(split, ctx), bexprs)

        job = Job(name="select-scan", splits=chosen.splits, map_fn=map_fn,
                  reduce_fn=None,
                  properties={"shard_fanout": self._fanout(relation)})
        return self._run(job, None, [(relation, None)], chosen.fetch).outputs

    def _run(self, job, shuffle, sides, choice=None):
        """Run ``job``, a stage over ``sides`` (``(relation, splits)``
        pairs), in the client when :func:`stage_choice` (or the route's
        ``choice``: a fetch) prices that cheaper; audit each that did."""
        if shuffle is not None:
            choice = stage_choice(
                self.cluster.profile, self.session.plan_mode,
                [(getattr(rel.handler, "union_read", False), splits)
                 for rel, splits in sides],
                job.properties["shard_fanout"], shuffle)
        if choice is not None:
            job.properties["local"] = choice.plan == "local"
        result = self.runner.run(job)
        self.jobs.append(result)
        if result.local:
            from repro.core.cost_model import record_audit
            plan, table = "local", None
            if shuffle is None:     # a map-only stage: a fetch
                plan, table = "fetch", sides[0][0].handler.table.name
                self.cluster.metrics.incr("hive.fetches")
            self.local_details.append({
                "plan": plan, "local_seconds": choice.local_seconds,
                "job_seconds": choice.job_seconds,
                "audit": record_audit(self.cluster, table, plan,
                                      choice.local_seconds,
                                      result.sim_seconds)})
        return result

    # ------------------------------------------------------------------
    # Routing: LOOKUP (the plan that skips MapReduce), fetch or job.
    # ------------------------------------------------------------------
    @staticmethod
    def _fanout(relation):
        """Scatter-gather width for this relation's jobs (makespan only)."""
        return 1 if relation.handler is None else relation.handler.shard_fanout

    def _lookup(self, scan, plan):
        """The rows LOOKUP ``plan`` merges for ``scan`` (in ``scan.env``
        order, filtered), or None when a non-fatal fault falls back to
        the scan: it fires before the first charged byte."""
        where = ((scan.filter_expr, scan.env)
                 if scan.filter_expr is not None else None)
        try:
            rows, examined, seconds, detail = scan.handler.execute_lookup(
                plan, batch_rows=self.batch_rows, where=where)
        except FaultInjectedError as exc:
            if exc.fatal:
                raise
            scan.handler.note_lookup_scan("fallback")
            return None
        self.lookup_seconds += seconds
        self.lookup_details.append(detail)
        if where is not None:
            # The filter's CPU charge goes by the rows it examined.
            self.cluster.charge_cpu_rows(examined)
        return rows

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

        splits = self._splits(relation)
        job = Job(name="groupby", splits=splits,
                  map_fn=map_fn, reduce_fn=reduce_fn,
                  num_reducers=self.cluster.profile.total_reduce_slots,
                  properties={"shard_fanout": self._fanout(relation)})
        result = self._run(job, "an aggregation", [(relation, splits)])
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
@dataclass
class Route:
    """The access path of one read (:func:`route_read`)."""

    plan: str                   # 'lookup' | 'fetch' | 'job'
    lookup: object = None       # the LookupPlan weighed, or None
    fetch: object = None        # the LocalChoice of its scan, or None
    splits: list = None         # the splits of a fetch or job, if planned
    forced: bool = False        # SET dualtable.plan decided it
    refused: str = None         # why a forced LOOKUP cannot run, or None


def route_read(handler, projection, ranges, mode, shuffle=None, splits=None,
               live=True):
    """LOOKUP, fetch or job for one read of ``handler``: the one routing
    rule (INTERNALS §12.1).  ``mode`` is ``SET dualtable.plan``;
    ``shuffle`` names the join or aggregation the read feeds; ``splits``
    returns the read's splits, to price a fetch (a write passes None: its
    scan is the EDIT job).  A ``live`` read hits the keyed planner's fault
    point and counts ``dualtable.plan.lookup_*``; EXPLAIN routes with
    ``live=False`` and sees the verdict the run takes.
    """
    keyed = handler.primary_key is not None
    if shuffle is not None:
        if mode == "lookup" and keyed:
            return Route("job", refused=(
                "SET dualtable.plan = lookup cannot serve %s over DualTable "
                "%r — SET dualtable.plan = cost (or scan) first"
                % (shuffle, handler.table.name)))
        return Route("job")
    if not keyed:
        if mode == "lookup":
            return Route("job", refused=(
                "SET dualtable.plan = lookup: table %r has no PRIMARY KEY "
                "lookup path" % handler.table.name))
        return _fetch_or_job(handler, splits, mode)
    from repro.core.lookup import bounded_pk_range
    try:
        plan = handler.plan_lookup(ranges, projection,
                                   hit_faults=live and mode != "scan")
    except FaultInjectedError as exc:
        if exc.fatal:
            raise
        handler.note_lookup_scan("fallback")
        return _fetch_or_job(handler, splits, mode)
    if plan is not None and (mode == "lookup" or mode == "cost"
                             and plan.choice.plan == "lookup"):
        return Route("lookup", lookup=plan, forced=mode == "lookup")
    if live and bounded_pk_range(handler, ranges) is not None:
        handler.note_lookup_scan("eligible_scan")
    if mode == "lookup":
        return Route("job", refused=(
            "SET dualtable.plan = lookup: predicate does not bound PRIMARY "
            "KEY %r (or the range exceeds dualtable.lookup.max_rows)"
            % handler.primary_key))
    return _fetch_or_job(handler, splits, mode, plan)


def _fetch_or_job(handler, splits, mode, lookup=None):
    """The scan of a read LOOKUP does not serve: a fetch when
    :func:`stage_choice` prices it below the job, else the job; ``scan``
    mode always runs the job."""
    if splits is None:
        return Route("job", lookup=lookup, forced=mode == "scan")
    splits = splits()
    choice = stage_choice(handler.env.cluster.profile, mode,
                          [(handler.union_read, splits)],
                          handler.shard_fanout)
    return Route("fetch" if choice.plan == "local" else "job", lookup=lookup,
                 fetch=None if choice.forced else choice, splits=splits,
                 forced=choice.forced)


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
