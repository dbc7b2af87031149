"""MERGE INTO execution (the proprietary upsert of the paper's Table I).

Semantics implemented (classic Oracle-style MERGE, which is what the grid
stored procedures used):

* the ON condition must contain at least one target=source equi-conjunct;
* each target row joining a source row on those keys is updated with the
  ``WHEN MATCHED`` assignments (expressions may reference both sides);
* source rows that matched no target row are inserted via the
  ``WHEN NOT MATCHED`` value list (expressions over the source row);
* when several source rows share a key, the first one wins.

Per storage backend the *update* arm follows the same plans as UPDATE:

* plain ORC       → full INSERT OVERWRITE rewrite,
* HBase           → in-place puts,
* DualTable       → EDIT (attached-table cells) or OVERWRITE, chosen by
                    the Section-IV cost model with α = |source| / |target|,
* ACID            → a new delta with the full updated rows.

The insert arm appends through the handler's normal insert path.
"""

from repro.common.errors import AnalysisError
from repro.mapreduce import Job
from repro.hive import ast_nodes as ast
from repro.hive.executor import SelectExecutor, merge_envs
from repro.hive.expressions import Env, compile_expr, referenced_columns, walk
from repro.hive.vexpr import compile_batch
from repro.vector import spliced


def execute_merge(session, stmt):
    from repro.hive.session import QueryResult

    info = session.metastore.table(stmt.target)
    handler = info.handler
    target_alias = stmt.alias or stmt.target

    source_rows, source_env = _load_source(session, stmt)
    target_env = Env()
    target_env.add_schema(info.schema.names, alias=target_alias)
    target_keys, source_keys = _split_merge_condition(
        stmt.condition, target_env, source_env)

    source_key_fns = [compile_expr(e, source_env) for e in source_keys]
    source_index = {}
    for row in source_rows:
        key = tuple(fn(row) for fn in source_key_fns)
        source_index.setdefault(key, row)       # first source row wins
    matched_keys = set()

    # Columns of the *target* the update expressions and keys touch —
    # determines the EDIT plan's projection.
    needed = set()
    for expr in target_keys:
        needed |= referenced_columns(expr)
    for _, expr in stmt.matched_assignments:
        for node in walk(expr):
            if isinstance(node, ast.ColumnRef) \
                    and info.schema.has_column(node.name) \
                    and (node.qualifier is None
                         or node.qualifier.lower() == target_alias.lower()):
                needed.add(node.name.lower())

    if stmt.matched_assignments:
        update_result = _apply_matched(session, info, stmt, target_alias,
                                       target_keys, source_index,
                                       matched_keys, source_env, needed)
    else:
        # Insert-only merge still needs to know which keys already exist.
        _mark_existing_keys(session, info, target_alias, target_keys,
                            source_index, matched_keys)
        jobs = list(session._dml_subquery_jobs)
        update_result = QueryResult(
            plan="merge-insert-only", affected=0, jobs=jobs,
            sim_seconds=sum(j.sim_seconds for j in jobs))

    inserted = 0
    insert_seconds = 0.0
    if stmt.insert_values is not None:
        insert_fns = [compile_expr(e, source_env)
                      for e in stmt.insert_values]
        new_rows = []
        for key, row in source_index.items():
            if key not in matched_keys:
                new_rows.append(info.schema.coerce_row(
                    tuple(fn(row) for fn in insert_fns)))
        if new_rows:
            insert_seconds = session._charged_parallel(
                lambda: handler.insert_rows(new_rows, overwrite=False))
        inserted = len(new_rows)

    detail = dict(update_result.detail)
    detail.update({"matched": update_result.affected or 0,
                   "inserted": inserted,
                   "source_rows": len(source_rows)})
    return QueryResult(
        sim_seconds=update_result.sim_seconds + insert_seconds,
        jobs=update_result.jobs,
        affected=(update_result.affected or 0) + inserted,
        plan="merge(update=%s)" % (detail.get("plan") or update_result.plan),
        detail=detail)


# ----------------------------------------------------------------------
def _mark_existing_keys(session, info, target_alias, target_keys,
                        source_index, matched_keys):
    """Scan only the key columns to find which source keys already exist."""
    handler = info.handler
    needed = set()
    for expr in target_keys:
        needed |= referenced_columns(expr)
    projection = [c.name for c in info.schema
                  if c.name.lower() in needed] or [info.schema.columns[0].name]
    env = Env()
    env.add_schema(projection, alias=target_alias)
    key_fns = [compile_batch(e, env) for e in target_keys]
    splits = handler.scan_splits(projection)
    batch_rows = session.batch_rows

    def map_fn(split, ctx):
        for batch in handler.read_split_batches(split, ctx,
                                                batch_rows=batch_rows):
            _matched_rows(batch, key_fns, (), source_index, matched_keys)
        return ()

    result = session.runner.run(Job(name="merge-probe", splits=splits,
                                    map_fn=map_fn, reduce_fn=None))
    session._dml_subquery_jobs = session._dml_subquery_jobs + [result]


def _matched_rows(batch, key_fns, setters, source_index, matched_keys):
    """The rows of one target batch whose key is in ``source_index``.

    Returns their positions in the batch (ascending) and, per setter,
    the column of new values: each assignment evaluated once over the
    matched rows' columns followed by the columns of the source rows
    they matched.  Notes the keys in ``matched_keys``.
    """
    keys = list(zip(*[fn(batch.columns, batch.length) for fn in key_fns]))
    hits = [i for i, key in enumerate(keys) if key in source_index]
    if not hits:
        return hits, []
    hit_keys = [keys[i] for i in hits]
    matched_keys.update(hit_keys)
    if not setters:
        return hits, []
    source_columns = zip(*[source_index[key] for key in hit_keys])
    combined = batch.take(hits).columns + list(map(list, source_columns))
    return hits, [fn(combined, len(hits)) for fn in setters]


def _load_source(session, stmt):
    """Materialize the USING source; returns (rows, env bound to alias)."""
    select = ast.SelectStmt(items=[ast.SelectItem(expr=ast.Star())],
                            source=stmt.source)
    executor = SelectExecutor(session)
    result = executor.run(select)
    session._dml_subquery_jobs = executor.jobs
    env = Env()
    env.add_schema(result.names, alias=stmt.source.binding)
    return result.rows, env


def _split_merge_condition(condition, target_env, source_env):
    """Equi key expression lists (target side, source side)."""
    target_keys, source_keys = [], []
    for conjunct in _conjuncts(condition):
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            raise AnalysisError(
                "MERGE ON supports only equi-conjuncts, got %r" % conjunct)
        left_t = _resolvable(conjunct.left, target_env)
        left_s = _resolvable(conjunct.left, source_env)
        right_t = _resolvable(conjunct.right, target_env)
        right_s = _resolvable(conjunct.right, source_env)
        if left_t and right_s and not left_s:
            target_keys.append(conjunct.left)
            source_keys.append(conjunct.right)
        elif right_t and left_s and not right_s:
            target_keys.append(conjunct.right)
            source_keys.append(conjunct.left)
        else:
            raise AnalysisError(
                "MERGE ON conjunct must compare a target column with a "
                "source expression: %r" % conjunct)
    if not target_keys:
        raise AnalysisError("MERGE ON needs at least one equi-conjunct")
    return target_keys, source_keys


def _conjuncts(expr):
    if isinstance(expr, ast.LogicalOp) and expr.op == "and":
        for operand in expr.operands:
            yield from _conjuncts(operand)
    else:
        yield expr


def _resolvable(expr, env):
    cols = [n for n in walk(expr) if isinstance(n, ast.ColumnRef)]
    if not cols:
        return False
    for col in cols:
        try:
            env.resolve(col)
        except AnalysisError:
            return False
    return True


# ----------------------------------------------------------------------
def _apply_matched(session, info, stmt, target_alias, target_keys,
                   source_index, matched_keys, source_env, needed):
    """Run the update arm; dispatch mirrors UPDATE's storage dispatch."""
    from repro.hive.session import QueryResult

    handler = info.handler
    kind = handler.kind
    if kind == "dualtable":
        return _merge_dualtable(session, info, stmt, target_alias,
                                target_keys, source_index, matched_keys,
                                source_env, needed)
    if kind == "hbase":
        return _merge_hbase(session, info, stmt, target_alias, target_keys,
                            source_index, matched_keys, source_env)
    if kind == "acid":
        return _merge_acid(session, info, stmt, target_alias, target_keys,
                           source_index, matched_keys, source_env)
    return _merge_overwrite(session, info, stmt, target_alias, target_keys,
                            source_index, matched_keys, source_env)


def _compiled_parts(compile_fn, info, stmt, target_alias, target_keys,
                    source_env, projection=None):
    """``(key_fns, targets, setters)`` under ``compile_fn`` (row closures
    or batch kernels): key expressions over the target tuple, assigned
    column indices, assignment expressions over (target + source)."""
    schema = info.schema
    target_env = Env()
    target_env.add_schema(projection or schema.names, alias=target_alias)
    key_fns = [compile_fn(e, target_env) for e in target_keys]
    combined = merge_envs(target_env, source_env)
    targets = [schema.index_of(name) for name, _ in stmt.matched_assignments]
    setters = [compile_fn(expr, combined)
               for _, expr in stmt.matched_assignments]
    return key_fns, targets, setters


def _merge_overwrite(session, info, stmt, target_alias, target_keys,
                     source_index, matched_keys, source_env):
    from repro.hive.session import QueryResult

    handler = info.handler
    key_fns, targets, setters = _compiled_parts(
        compile_batch, info, stmt, target_alias, target_keys, source_env)
    splits = handler.scan_splits(projection=None, ranges=None)
    batch_rows = session.batch_rows

    def map_fn(split, ctx):
        out = []
        for batch in handler.read_split_batches(split, ctx,
                                                batch_rows=batch_rows):
            hits, new_columns = _matched_rows(batch, key_fns, setters,
                                              source_index, matched_keys)
            columns = batch.columns
            if hits:
                ctx.incr("updated", len(hits))
                columns = list(columns)
                for target, column in zip(targets, new_columns):
                    columns[target] = spliced(columns[target], hits, column)
            out.extend(zip(*columns))
        return out

    job = Job(name="merge-overwrite", splits=splits, map_fn=map_fn,
              reduce_fn=None)
    result = session.runner.run(job)
    rows = [info.schema.coerce_row(r) for r in result.outputs]
    write_seconds = session._charged_parallel(
        lambda: handler.insert_rows(rows, overwrite=True))
    jobs = session._dml_subquery_jobs + [result]
    sub = sum(j.sim_seconds for j in session._dml_subquery_jobs)
    return QueryResult(sim_seconds=sub + result.sim_seconds + write_seconds,
                       jobs=jobs,
                       affected=result.counters.get("updated", 0),
                       plan="merge-overwrite",
                       detail={"plan": "overwrite"})


def _merge_hbase(session, info, stmt, target_alias, target_keys,
                 source_index, matched_keys, source_env):
    from repro.hive.session import QueryResult, _hbase_rows_with_keys

    handler = info.handler
    key_fns, targets, setters = _compiled_parts(
        compile_expr, info, stmt, target_alias, target_keys, source_env)
    assigns = list(zip(targets, setters))
    splits = handler.scan_splits(projection=None)

    def map_fn(split, ctx):
        pending = []
        for rowkey, values in _hbase_rows_with_keys(handler,
                                                    dict(split.payload),
                                                    ctx):
            key = tuple(fn(values) for fn in key_fns)
            source_row = source_index.get(key)
            if source_row is None:
                continue
            matched_keys.add(key)
            combined = values + source_row
            pending.append((rowkey,
                            {idx: fn(combined) for idx, fn in assigns}))
        for rowkey, new_values in pending:
            ctx.incr("updated")
            handler.update_row(rowkey, new_values)
        return ()

    # In-place writes during the map phase: keep off the worker pool so
    # HBase timestamp allocation follows split order.
    job = Job(name="merge-hbase", splits=splits, map_fn=map_fn,
              reduce_fn=None, properties={"parallel": False})
    result = session.runner.run(job)
    jobs = session._dml_subquery_jobs + [result]
    sub = sum(j.sim_seconds for j in session._dml_subquery_jobs)
    return QueryResult(sim_seconds=sub + result.sim_seconds, jobs=jobs,
                       affected=result.counters.get("updated", 0),
                       plan="merge-hbase", detail={"plan": "hbase"})


def _merge_dualtable(session, info, stmt, target_alias, target_keys,
                     source_index, matched_keys, source_env, needed):
    from repro.core.record_id import encode_record_id
    from repro.core.udtf import update_udtf
    from repro.hive.session import QueryResult

    handler = info.handler
    total_rows = handler.master.row_count()
    ratio = min(1.0, len(source_index) / total_rows) if total_rows else 0.0
    d_bytes = handler.master.data_bytes()
    update_cell_bytes = 12 + 18 * len(stmt.matched_assignments)
    projection = [c.name for c in info.schema
                  if c.name.lower() in needed] or [info.schema.columns[0].name]
    scan_bytes = sum(r.projected_bytes(projection)
                     for r in handler.master.readers())
    choice = handler.cost_model().choose_update_plan(
        d_bytes, total_rows, ratio, update_cell_bytes,
        edit_scan_bytes=scan_bytes)
    plan = handler._forced_or(choice.plan)
    detail = handler._detail(choice, plan)
    if plan == "overwrite":
        result = _merge_overwrite(session, info, stmt, target_alias,
                                  target_keys, source_index, matched_keys,
                                  source_env)
        result.detail.update(detail)
        result.detail["plan"] = "overwrite"
        return result

    key_fns, targets, setters = _compiled_parts(
        compile_batch, info, stmt, target_alias, target_keys, source_env,
        projection=projection)
    splits = handler.scan_splits(projection, ranges=None)
    batch_rows = session.batch_rows

    def map_fn(split, ctx):
        # Sharded tables resolve the split's deltas to the owning
        # child's Attached Table; single tables hand back their own.
        attached = handler.attached_for_split(split)
        file_id = split.payload["file_id"]
        for batch in handler.read_split_batches(split, ctx,
                                                batch_rows=batch_rows):
            hits, new_columns = _matched_rows(batch, key_fns, setters,
                                              source_index, matched_keys)
            for ordinal, new_values in zip(batch.ordinals(hits),
                                           zip(*new_columns)):
                update_udtf(attached, encode_record_id(file_id, ordinal),
                            dict(zip(targets, new_values)), ctx)
        return ()

    # update_udtf writes straight into the Attached Table from the map
    # phase (no staging buffer), so put order must follow split order.
    job = Job(name="merge-edit", splits=splits, map_fn=map_fn,
              reduce_fn=None, properties={"parallel": False})
    result = session.runner.run(job)
    jobs = session._dml_subquery_jobs + [result]
    sub = sum(j.sim_seconds for j in session._dml_subquery_jobs)
    return QueryResult(sim_seconds=sub + result.sim_seconds, jobs=jobs,
                       affected=result.counters.get("updated", 0),
                       plan="merge-edit", detail=detail)


def _merge_acid(session, info, stmt, target_alias, target_keys,
                source_index, matched_keys, source_env):
    from repro.hive.session import QueryResult

    handler = info.handler
    key_fns, targets, setters = _compiled_parts(
        compile_expr, info, stmt, target_alias, target_keys, source_env)
    assigns = list(zip(targets, setters))
    splits = handler.scan_splits(projection=None)

    def map_fn(split, ctx):
        for rid, values in handler.read_split_with_rids(split, ctx):
            key = tuple(fn(values) for fn in key_fns)
            source_row = source_index.get(key)
            if source_row is None:
                continue
            matched_keys.add(key)
            ctx.incr("updated")
            combined = values + source_row
            row = list(values)
            for idx, fn in assigns:
                row[idx] = fn(combined)
            yield (rid, "U", tuple(row))

    job = Job(name="merge-acid", splits=splits, map_fn=map_fn,
              reduce_fn=None)
    result = session.runner.run(job)
    write_seconds = session._charged_parallel(
        lambda: handler._write_delta(result.outputs))
    jobs = session._dml_subquery_jobs + [result]
    sub = sum(j.sim_seconds for j in session._dml_subquery_jobs)
    return QueryResult(sim_seconds=sub + result.sim_seconds + write_seconds,
                       jobs=jobs,
                       affected=result.counters.get("updated", 0),
                       plan="merge-acid-delta", detail={"plan": "delta"})
