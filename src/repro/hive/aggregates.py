"""Aggregate function machinery for GROUP BY execution.

Each aggregate is a (init, fold, merge, finalize) quadruple so the MR
engine can run map-side combiners: mappers fold argument columns into
partial accumulators, reducers merge them, finalize runs once per group.
"""

import operator
from functools import reduce
from itertools import chain

from repro.common.errors import AnalysisError
from repro.hive import ast_nodes as ast
from repro.hive.expressions import AGGREGATE_FUNCTIONS, SlotRef, walk


class AggregateSpec:
    """One aggregate call's accumulator protocol."""

    def __init__(self, name, distinct=False, count_star=False):
        self.name = name
        self.distinct = distinct
        self.count_star = count_star

    # -- accumulator protocol -------------------------------------------------
    def init(self):
        if self.distinct:
            return set()
        if self.name == "count":
            return 0
        if self.name == "avg":
            return (0.0, 0)
        return None     # sum/min/max start empty (NULL when no rows)

    def add_value(self, acc, arg):
        """Fold one argument value into the accumulator: the per-value
        definition :meth:`fold` is held to (``count(*)`` passes 1)."""
        if arg is None and not self.count_star:
            return acc
        if self.distinct:
            acc.add(arg)
            return acc
        if self.name == "count":
            return acc + 1
        if self.name == "sum":
            return arg if acc is None else acc + arg
        if self.name == "avg":
            total, count = acc
            return (total + arg, count + 1)
        if self.name == "min":
            return arg if acc is None else min(acc, arg)
        if self.name == "max":
            return arg if acc is None else max(acc, arg)
        raise AnalysisError("unknown aggregate %s" % self.name)

    def fold(self, acc, values, count):
        """Fold a whole argument slice: ``add_value`` over ``values`` in
        order, same accumulator value and type.  ``count(*)`` passes
        ``values=None`` and the number of rows in ``count``.

        Sums go through ``reduce(add)`` in row order — never builtin
        ``sum()``, which is compensated for floats from Python 3.12 and
        would move SUM/AVG bits against the per-row fold.
        """
        if self.count_star:
            if not self.distinct:
                return acc + count
            values = (1,) * count
        elif None in values:
            values = [v for v in values if v is not None]
        if not values:
            # The very object, not an equal one: the shuffle-size sample
            # pickles records, and pickle memoises a tuple that occurs
            # twice — as the shared ``init()`` constant of two AVGs does.
            return acc
        if self.distinct:
            acc.update(values)
            return acc
        if self.name == "count":
            return acc + len(values)
        if self.name == "avg":
            return (reduce(operator.add, values, acc[0]),
                    acc[1] + len(values))
        if acc is not None:
            values = chain((acc,), values)
        if self.name == "sum":
            return reduce(operator.add, values)
        # builtin min/max keep the earlier of two equal (or unordered)
        # items, exactly like the pairwise min(acc, arg) / max(acc, arg).
        if self.name == "min":
            return min(values)
        if self.name == "max":
            return max(values)
        raise AnalysisError("unknown aggregate %s" % self.name)

    def merge(self, a, b):
        if self.distinct:
            a.update(b)
            return a
        if self.name in ("count",):
            return a + b
        if self.name == "avg":
            return (a[0] + b[0], a[1] + b[1])
        if a is None:
            return b
        if b is None:
            return a
        if self.name == "sum":
            return a + b
        if self.name == "min":
            return min(a, b)
        if self.name == "max":
            return max(a, b)
        raise AnalysisError("unknown aggregate %s" % self.name)

    def finalize(self, acc):
        if self.distinct:
            if self.name == "count":
                return len(acc)
            if not acc:
                return None
            if self.name == "sum":
                return sum(acc)
            if self.name == "avg":
                return sum(acc) / len(acc)
            if self.name == "min":
                return min(acc)
            if self.name == "max":
                return max(acc)
        if self.name == "avg":
            total, count = acc
            return None if count == 0 else total / count
        return acc


def rewrite_aggregates(expr, group_by, agg_registry):
    """Rewrite ``expr`` for post-aggregation evaluation.

    Group-by expressions become slots ``0..len(group_by)-1``; aggregate
    calls become slots after those, registering their spec-building info in
    ``agg_registry`` (a list of FuncCall nodes, deduplicated structurally).
    Returns the rewritten expression.
    """
    for i, key_expr in enumerate(group_by):
        if expr == key_expr:
            return SlotRef(index=i)
    if isinstance(expr, ast.FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
        for j, existing in enumerate(agg_registry):
            if existing == expr:
                return SlotRef(index=len(group_by) + j)
        agg_registry.append(expr)
        return SlotRef(index=len(group_by) + len(agg_registry) - 1)
    # Recurse structurally.
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(op=expr.op,
                            left=rewrite_aggregates(expr.left, group_by,
                                                    agg_registry),
                            right=rewrite_aggregates(expr.right, group_by,
                                                     agg_registry))
    if isinstance(expr, ast.LogicalOp):
        return ast.LogicalOp(op=expr.op,
                             operands=[rewrite_aggregates(o, group_by,
                                                          agg_registry)
                                       for o in expr.operands])
    if isinstance(expr, ast.NotOp):
        return ast.NotOp(operand=rewrite_aggregates(expr.operand, group_by,
                                                    agg_registry))
    if isinstance(expr, ast.UnaryMinus):
        return ast.UnaryMinus(operand=rewrite_aggregates(expr.operand,
                                                         group_by,
                                                         agg_registry))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(operand=rewrite_aggregates(expr.operand, group_by,
                                                     agg_registry),
                          negated=expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(operand=rewrite_aggregates(expr.operand, group_by,
                                                     agg_registry),
                          items=[rewrite_aggregates(i, group_by, agg_registry)
                                 for i in expr.items],
                          negated=expr.negated)
    if isinstance(expr, ast.LikeOp):
        return ast.LikeOp(operand=rewrite_aggregates(expr.operand, group_by,
                                                     agg_registry),
                          pattern=rewrite_aggregates(expr.pattern, group_by,
                                                     agg_registry),
                          negated=expr.negated)
    if isinstance(expr, ast.CaseWhen):
        return ast.CaseWhen(
            whens=[(rewrite_aggregates(c, group_by, agg_registry),
                    rewrite_aggregates(r, group_by, agg_registry))
                   for c, r in expr.whens],
            default=(rewrite_aggregates(expr.default, group_by, agg_registry)
                     if expr.default is not None else None))
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(name=expr.name,
                            args=[rewrite_aggregates(a, group_by,
                                                     agg_registry)
                                  for a in expr.args],
                            distinct=expr.distinct)
    if isinstance(expr, ast.ColumnRef):
        raise AnalysisError(
            "column %s must appear in GROUP BY or inside an aggregate"
            % expr.display)
    return expr


def validate_no_nested_aggregates(agg_calls):
    for call in agg_calls:
        for arg in call.args:
            for node in walk(arg):
                if isinstance(node, ast.FuncCall) \
                        and node.name in AGGREGATE_FUNCTIONS:
                    raise AnalysisError("nested aggregate in %s()" % call.name)
