"""Expression compilation and evaluation.

Expressions compile once per scan into Python closures over a *row
environment* (name → tuple index), then run per row with no name lookups —
the moral equivalent of Hive's SerDe + ObjectInspector fast path.

NULL follows SQL three-valued logic: arithmetic and comparisons with NULL
yield NULL, AND/OR propagate unknowns, and WHERE treats non-TRUE as
filtered out.
"""

import re
from dataclasses import dataclass

from repro.common.errors import AnalysisError
from repro.hive import ast_nodes as ast

_AMBIGUOUS = object()

AGGREGATE_FUNCTIONS = {"sum", "count", "avg", "min", "max"}


@dataclass
class SlotRef(ast.Expr):
    """Internal node: direct reference to a tuple slot (post-aggregation)."""

    index: int


class Env:
    """Maps column names (qualified and bare) to tuple indices."""

    def __init__(self):
        self._slots = {}
        self.width = 0

    @classmethod
    def from_schema(cls, schema, alias=None):
        env = cls()
        env.add_schema(schema, alias=alias)
        return env

    def add_schema(self, schema, alias=None):
        base = self.width
        for i, column in enumerate(schema):
            name = column.name if hasattr(column, "name") else column
            self.bind(name, base + i)
            if alias:
                self.bind("%s.%s" % (alias, name), base + i)
        self.width = base + len(list(schema))
        return self

    def bind(self, name, index):
        key = name.lower()
        if key in self._slots and self._slots[key] != index:
            self._slots[key] = _AMBIGUOUS
        else:
            self._slots[key] = index

    def resolve(self, ref):
        key = (ref.display if isinstance(ref, ast.ColumnRef) else ref).lower()
        slot = self._slots.get(key)
        if slot is None and "." not in key:
            # bare name: nothing bound
            raise AnalysisError("unknown column: %s" % key)
        if slot is None:
            raise AnalysisError("unknown column: %s" % key)
        if slot is _AMBIGUOUS:
            raise AnalysisError("ambiguous column reference: %s" % key)
        return slot

    def try_resolve(self, name):
        slot = self._slots.get(name.lower())
        return None if slot in (None, _AMBIGUOUS) else slot

    def names(self):
        return sorted(self._slots)


# ----------------------------------------------------------------------
# NULL-aware primitives.
# ----------------------------------------------------------------------
def _arith(op):
    def apply(a, b):
        if a is None or b is None:
            return None
        return op(a, b)
    return apply


def _add(a, b):
    return a + b


def _sub(a, b):
    return a - b


def _mul(a, b):
    return a * b


def _div(a, b):
    if b == 0:
        return None
    return a / b


def _mod(a, b):
    if b == 0:
        return None
    return a % b


def _concat_op(a, b):
    return str(a) + str(b)


def _cmp(op):
    def apply(a, b):
        if a is None or b is None:
            return None
        if isinstance(a, str) != isinstance(b, str):
            # numeric vs string: coerce string to float when possible
            try:
                if isinstance(a, str):
                    a = float(a)
                else:
                    b = float(b)
            except ValueError:
                return False
        return op(a, b)
    return apply


_BINARY = {
    "+": _arith(_add),
    "-": _arith(_sub),
    "*": _arith(_mul),
    "/": _arith(_div),
    "%": _arith(_mod),
    "||": _arith(_concat_op),
    "=": _cmp(lambda a, b: a == b),
    "!=": _cmp(lambda a, b: a != b),
    "<": _cmp(lambda a, b: a < b),
    "<=": _cmp(lambda a, b: a <= b),
    ">": _cmp(lambda a, b: a > b),
    ">=": _cmp(lambda a, b: a >= b),
}


def is_true(value):
    """SQL WHERE semantics: only TRUE passes (NULL/False filtered)."""
    return value is not None and value is not False and value != 0


def like_to_regex(pattern):
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


# ----------------------------------------------------------------------
# Scalar functions.
# ----------------------------------------------------------------------
def _fn_if(cond, then, otherwise):
    return then if is_true(cond) else otherwise


def _fn_coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


def _null_guard(fn):
    def apply(*args):
        if any(a is None for a in args):
            return None
        return fn(*args)
    return apply


def _fn_substr(s, start, length=None):
    start = int(start)
    begin = start - 1 if start > 0 else len(s) + start
    if length is None:
        return s[begin:]
    return s[begin:begin + int(length)]


def _parse_date(text):
    import datetime

    return datetime.date(int(str(text)[0:4]), int(str(text)[5:7]),
                         int(str(text)[8:10]))


def _fn_date_add(date_text, days):
    import datetime

    return (_parse_date(date_text)
            + datetime.timedelta(days=int(days))).isoformat()


def _fn_date_sub(date_text, days):
    return _fn_date_add(date_text, -int(days))


def _fn_datediff(end_text, start_text):
    return (_parse_date(end_text) - _parse_date(start_text)).days


def _fn_instr(haystack, needle):
    return str(haystack).find(str(needle)) + 1


def _fn_concat_ws(sep, *parts):
    return str(sep).join(str(p) for p in parts if p is not None)


def _fn_greatest(*args):
    present = [a for a in args if a is not None]
    return max(present) if present else None


def _fn_least(*args):
    present = [a for a in args if a is not None]
    return min(present) if present else None


SCALAR_FUNCTIONS = {
    "if": _fn_if,
    "coalesce": _fn_coalesce,
    "nvl": _fn_coalesce,
    "abs": _null_guard(abs),
    "round": _null_guard(lambda x, nd=0: round(x, int(nd))),
    "floor": _null_guard(lambda x: int(x // 1)),
    "ceil": _null_guard(lambda x: int(-(-x // 1))),
    "lower": _null_guard(lambda s: s.lower()),
    "upper": _null_guard(lambda s: s.upper()),
    "length": _null_guard(len),
    "concat": _null_guard(lambda *a: "".join(str(x) for x in a)),
    "substr": _null_guard(_fn_substr),
    "substring": _null_guard(_fn_substr),
    "year": _null_guard(lambda d: int(str(d)[0:4])),
    "month": _null_guard(lambda d: int(str(d)[5:7])),
    "day": _null_guard(lambda d: int(str(d)[8:10])),
    "cast_int": _null_guard(int),
    "cast_double": _null_guard(float),
    "cast_string": _null_guard(str),
    "trim": _null_guard(lambda s: s.strip()),
    "ltrim": _null_guard(lambda s: s.lstrip()),
    "rtrim": _null_guard(lambda s: s.rstrip()),
    "reverse": _null_guard(lambda s: s[::-1]),
    "instr": _null_guard(_fn_instr),
    "lpad": _null_guard(lambda s, n, p=" ": s.rjust(int(n), str(p)[:1])),
    "rpad": _null_guard(lambda s, n, p=" ": s.ljust(int(n), str(p)[:1])),
    "concat_ws": lambda sep, *parts: (None if sep is None
                                      else _fn_concat_ws(sep, *parts)),
    "date_add": _null_guard(_fn_date_add),
    "date_sub": _null_guard(_fn_date_sub),
    "datediff": _null_guard(_fn_datediff),
    "greatest": _fn_greatest,
    "least": _fn_least,
    "pow": _null_guard(lambda x, y: x ** y),
    "power": _null_guard(lambda x, y: x ** y),
    "sqrt": _null_guard(lambda x: x ** 0.5 if x >= 0 else None),
    "mod": _null_guard(lambda a, b: None if b == 0 else a % b),
    "sign": _null_guard(lambda x: (x > 0) - (x < 0)),
}


# ----------------------------------------------------------------------
# Compiler.
# ----------------------------------------------------------------------
def fold_in_list(items):
    """The candidates of an all-literal IN list as a frozenset, else None.

    Folded once per compile instead of rebuilding a candidate list per
    row.  ``frozenset`` and ``list`` membership agree (identity, then
    ``==``) for every scalar the parser can put in a literal — int,
    float, str, bool, NULL — because equal numbers hash equal
    (``1 == 1.0 == True``), so ``1 IN (1.0)`` and ``'1' IN (1)`` answer
    as before.  A list holding anything else — a column reference, a
    materialized subquery set — stays on the general per-row path.
    """
    values = []
    for item in items:
        if isinstance(item, ast.Literal) \
                and not isinstance(item.value, (set, frozenset)):
            values.append(item.value)
        elif isinstance(item, ast.UnaryMinus) \
                and isinstance(item.operand, ast.Literal) \
                and isinstance(item.operand.value, (int, float)):
            values.append(-item.operand.value)   # how "-3" parses
        else:
            return None
    return frozenset(values)


def compile_expr(expr, env):
    """Compile an AST expression into ``fn(values_tuple) -> value``.

    Aggregate calls must have been rewritten to :class:`SlotRef` by the
    planner before compilation; encountering one here is an error.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda values: value
    if isinstance(expr, SlotRef):
        index = expr.index
        return lambda values: values[index]
    if isinstance(expr, ast.ColumnRef):
        index = env.resolve(expr)
        return lambda values: values[index]
    if isinstance(expr, ast.BinaryOp):
        fn = _BINARY.get(expr.op)
        if fn is None:
            raise AnalysisError("unknown operator %r" % expr.op)
        left = compile_expr(expr.left, env)
        right = compile_expr(expr.right, env)
        return lambda values: fn(left(values), right(values))
    if isinstance(expr, ast.LogicalOp):
        operands = [compile_expr(op, env) for op in expr.operands]
        if expr.op == "and":
            def apply_and(values):
                saw_null = False
                for operand in operands:
                    val = operand(values)
                    if val is None:
                        saw_null = True
                    elif not is_true(val):
                        return False
                return None if saw_null else True
            return apply_and
        def apply_or(values):
            saw_null = False
            for operand in operands:
                val = operand(values)
                if val is None:
                    saw_null = True
                elif is_true(val):
                    return True
            return None if saw_null else False
        return apply_or
    if isinstance(expr, ast.NotOp):
        inner = compile_expr(expr.operand, env)
        def apply_not(values):
            val = inner(values)
            if val is None:
                return None
            return not is_true(val)
        return apply_not
    if isinstance(expr, ast.UnaryMinus):
        inner = compile_expr(expr.operand, env)
        def apply_minus(values):
            val = inner(values)
            return None if val is None else -val
        return apply_minus
    if isinstance(expr, ast.IsNull):
        inner = compile_expr(expr.operand, env)
        if expr.negated:
            return lambda values: inner(values) is not None
        return lambda values: inner(values) is None
    if isinstance(expr, ast.InList):
        inner = compile_expr(expr.operand, env)
        negated = expr.negated
        folded = fold_in_list(expr.items)
        if folded is not None:
            def apply_in_folded(values):
                needle = inner(values)
                if needle is None:
                    return None
                hit = needle in folded
                return (not hit) if negated else hit
            return apply_in_folded
        items = [compile_expr(item, env) for item in expr.items]
        def apply_in(values):
            needle = inner(values)
            if needle is None:
                return None
            candidates = []
            for item in items:
                val = item(values)
                if isinstance(val, (frozenset, set)):
                    candidates.extend(val)
                else:
                    candidates.append(val)
            hit = needle in candidates
            return (not hit) if negated else hit
        return apply_in
    if isinstance(expr, ast.LikeOp):
        inner = compile_expr(expr.operand, env)
        pattern = compile_expr(expr.pattern, env)
        negated = expr.negated
        cache = {}
        def apply_like(values):
            subject = inner(values)
            pat = pattern(values)
            if subject is None or pat is None:
                return None
            regex = cache.get(pat)
            if regex is None:
                regex = cache[pat] = like_to_regex(pat)
            hit = regex.match(str(subject)) is not None
            return (not hit) if negated else hit
        return apply_like
    if isinstance(expr, ast.CaseWhen):
        whens = [(compile_expr(c, env), compile_expr(r, env))
                 for c, r in expr.whens]
        default = (compile_expr(expr.default, env)
                   if expr.default is not None else (lambda values: None))
        def apply_case(values):
            for cond, result in whens:
                if is_true(cond(values)):
                    return result(values)
            return default(values)
        return apply_case
    if isinstance(expr, ast.FuncCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            raise AnalysisError(
                "aggregate %s() in a non-aggregate context" % expr.name)
        fn = SCALAR_FUNCTIONS.get(expr.name)
        if fn is None:
            raise AnalysisError("unknown function: %s()" % expr.name)
        args = [compile_expr(arg, env) for arg in expr.args]
        return lambda values: fn(*(arg(values) for arg in args))
    if isinstance(expr, ast.SubQueryExpr):
        raise AnalysisError(
            "subquery was not materialized before compilation")
    if isinstance(expr, ast.Star):
        raise AnalysisError("* is only valid in SELECT lists and COUNT(*)")
    raise AnalysisError("cannot compile %r" % (expr,))


# ----------------------------------------------------------------------
# AST utilities used by the planner and pushdown machinery.
# ----------------------------------------------------------------------
def walk(expr):
    """Yield every node of an expression tree (pre-order)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        yield node
        if isinstance(node, ast.BinaryOp):
            stack.extend((node.left, node.right))
        elif isinstance(node, ast.LogicalOp):
            stack.extend(node.operands)
        elif isinstance(node, (ast.NotOp, ast.UnaryMinus, ast.IsNull)):
            stack.append(node.operand)
        elif isinstance(node, ast.InList):
            stack.append(node.operand)
            stack.extend(node.items)
        elif isinstance(node, ast.LikeOp):
            stack.extend((node.operand, node.pattern))
        elif isinstance(node, ast.CaseWhen):
            for cond, result in node.whens:
                stack.extend((cond, result))
            stack.append(node.default)
        elif isinstance(node, ast.FuncCall):
            stack.extend(node.args)


def referenced_columns(expr):
    """All column names referenced (bare names, lowercased)."""
    return {node.name.lower() for node in walk(expr)
            if isinstance(node, ast.ColumnRef)}


def contains_aggregate(expr):
    return any(isinstance(node, ast.FuncCall)
               and node.name in AGGREGATE_FUNCTIONS
               for node in walk(expr))


def find_subqueries(expr):
    return [node for node in walk(expr)
            if isinstance(node, ast.SubQueryExpr)]
