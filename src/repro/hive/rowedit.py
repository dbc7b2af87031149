"""Row edits: the one description of a write every storage executes.

In the paper every grid write of Table I lowers to one of two plans,
EDIT or OVERWRITE.  An UPDATE, a DELETE and MERGE's WHEN MATCHED arm
differ only in how they find the rows they change and the new values:
WHERE + SET for the first two, the ON-key join with the source for MERGE
(``repro.hive.merge``).  A *row edit* is that difference as one value,
and each storage's single update path takes one —
``HiveSession._rewrite_via_overwrite``, ``HiveSession._edit_hbase``,
``AcidHandler.execute_update`` and ``DualTableHandler.execute_update`` —
so a MERGE runs on the writers an UPDATE runs on.

A row edit carries

* ``verb`` ("update" | "delete") and ``targets``, the assigned column
  indices, in SET order;
* ``needed``, the (lowercase) target columns its matchers read, and
  ``ranges``, column ranges every matched row satisfies (stripe and
  partition pruning; ``{}`` prunes nothing);

and builds, over the column names a scan reads,

* ``batch_matcher(names)``: ``fn(batch) -> (positions, new_columns)``,
  the ascending positions of the matched rows and one column of new
  values per target, each evaluated once over the matched rows;
* ``row_matcher(names)``: ``fn(values) -> None | new_values`` for the
  row stores (HBase, ACID); None means "not matched";
* ``estimate_ratio(handler)``: ``(ratio, total_rows)``, the touched-row
  estimate the Section IV cost model weighs.
"""

from repro.hive import ast_nodes as ast
from repro.hive.expressions import Env, compile_expr, is_true, referenced_columns
from repro.hive.pushdown import extract_ranges
from repro.hive.vexpr import compile_batch, compile_batch_select


class RowEdit:
    """What one write changes; subclasses say how rows are matched."""

    def __init__(self, verb, targets, needed, ranges):
        self.verb = verb
        self.targets = targets
        self.needed = needed
        self.ranges = ranges

    def projection(self, schema):
        """The columns the matchers read, in table order (the first
        column when they read none: a scan needs one to count rows)."""
        names = [c.name for c in schema if c.name.lower() in self.needed]
        return names or [schema.columns[0].name]


class WhereEdit(RowEdit):
    """The row edit of one UPDATE or DELETE: WHERE matches, SET assigns."""

    def __init__(self, stmt, schema):
        update = isinstance(stmt, ast.UpdateStmt)
        self.stmt = stmt
        self.assignments = stmt.assignments if update else ()
        needed = set()
        if stmt.where is not None:
            needed |= referenced_columns(stmt.where)
        for _, expr in self.assignments:
            needed |= referenced_columns(expr)
        super().__init__(
            "update" if update else "delete",
            [schema.index_of(name) for name, _ in self.assignments],
            needed,
            extract_ranges(stmt.where) if stmt.where is not None else {})

    def _env(self, names):
        env = Env()
        env.add_schema(names, alias=self.stmt.alias)
        return env

    def batch_matcher(self, names):
        """The WHERE runs once over a batch's columns; only the matched
        rows are taken and assigned, so the work follows the rows
        touched.  The batch compilers raise what the row compiler would,
        on the row it would; within a batch the whole WHERE runs before
        any SET expression."""
        env = self._env(names)
        where = self.stmt.where
        select = (compile_batch_select(where, env)
                  if where is not None else None)
        setters = [compile_batch(expr, env) for _, expr in self.assignments]

        def match(batch):
            n = batch.length
            keep = range(n) if select is None else select(batch.columns, n)
            if not keep or not setters:
                return keep, []
            matched = batch if len(keep) == n else batch.take(keep)
            return keep, [fn(matched.columns, matched.length)
                          for fn in setters]
        return match

    def row_matcher(self, names):
        env = self._env(names)
        where = self.stmt.where
        predicate = compile_expr(where, env) if where is not None else None
        setters = [compile_expr(expr, env) for _, expr in self.assignments]

        def match(values):
            if predicate is not None and not is_true(predicate(values)):
                return None
            return [fn(values) for fn in setters]
        return match

    def estimate_ratio(self, handler):
        """Stripe statistics, else a plan-time row sample."""
        return handler._estimate_ratio(self.stmt.where)
