"""MERGE INTO execution (the proprietary upsert of the paper's Table I).

Semantics implemented (classic Oracle-style MERGE, which is what the grid
stored procedures used):

* the ON condition must contain at least one target=source equi-conjunct;
* each target row joining a source row on those keys is updated with the
  ``WHEN MATCHED`` assignments (expressions may reference both sides);
* source rows that matched no target row are inserted via the
  ``WHEN NOT MATCHED`` value list (expressions over the source row);
* when several source rows share a key, the first one wins.

The matched arm is an UPDATE whose rows and new values come from the
ON-key join instead of WHERE + SET: a :class:`KeyJoinEdit` (a row edit,
:mod:`repro.hive.rowedit`) run through the storage's own update path.
On DualTable that is the Section-IV choice between EDIT (redo-logged
Attached-Table cells) and OVERWRITE, with α = |source keys| / |target|.
The insert arm appends through the handler's normal insert path.
"""

from repro.common.errors import AnalysisError
from repro.mapreduce import Job
from repro.hive import ast_nodes as ast
from repro.hive.executor import SelectExecutor, merge_envs
from repro.hive.expressions import Env, compile_expr, referenced_columns, walk
from repro.hive.rowedit import RowEdit
from repro.hive.vexpr import compile_batch


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
    edit = KeyJoinEdit(info.schema, stmt, target_alias, target_keys,
                       source_env, source_index)

    if stmt.matched_assignments:
        update_result = handler.execute_update(session, edit)
    else:
        # Insert-only merge still needs to know which keys already exist.
        _mark_existing_keys(session, info, edit)
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
            if key not in edit.matched_keys:
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


class KeyJoinEdit(RowEdit):
    """MERGE's matched arm as a row edit: a target row matches when its
    ON keys are in the source index; its new values are the assignments
    over the target row followed by the source row it matched.  Matching
    notes the key in ``matched_keys`` (the insert arm skips those).
    No WHERE bounds the rows, so nothing is pruned by range."""

    def __init__(self, schema, stmt, alias, target_keys, source_env,
                 source_index):
        # Target columns the keys and assignments read: the projection.
        needed = set()
        for expr in target_keys:
            needed |= referenced_columns(expr)
        for _, expr in stmt.matched_assignments:
            for node in walk(expr):
                if isinstance(node, ast.ColumnRef) \
                        and schema.has_column(node.name) \
                        and (node.qualifier is None
                             or node.qualifier.lower() == alias.lower()):
                    needed.add(node.name.lower())
        super().__init__(
            "update",
            [schema.index_of(name) for name, _ in stmt.matched_assignments],
            needed, {})
        self.assignments = stmt.matched_assignments
        self.alias = alias
        self.target_keys = target_keys
        self.source_env = source_env
        self.source_index = source_index
        self.matched_keys = set()

    def batch_matcher(self, names):
        """Keys over the target columns ``names``, assignments over those
        columns followed by the source row's."""
        target_env = Env()
        target_env.add_schema(names, alias=self.alias)
        combined = merge_envs(target_env, self.source_env)
        key_fns = [compile_batch(e, target_env) for e in self.target_keys]
        setters = [compile_batch(e, combined) for _, e in self.assignments]
        return lambda batch: _matched_rows(
            batch, key_fns, setters, self.source_index, self.matched_keys)

    def estimate_ratio(self, handler):
        """|source keys| / rows: known exactly, so MERGE never samples."""
        rows = handler.row_count()
        return (min(1.0, len(self.source_index) / rows) if rows else 0.0,
                rows)


# ----------------------------------------------------------------------
def _mark_existing_keys(session, info, edit):
    """Scan only the key columns to find which source keys already exist."""
    handler = info.handler
    projection = edit.projection(info.schema)
    match = edit.batch_matcher(projection)
    splits = handler.scan_splits(projection)

    def map_fn(split, ctx):
        for batch in handler.read_split_batches(
                split, ctx, batch_rows=session.batch_rows):
            match(batch)
        return ()

    session._dml_subquery_jobs = session._dml_subquery_jobs + [
        session.runner.run(Job(name="merge-probe", splits=splits,
                               map_fn=map_fn, reduce_fn=None))]


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
