"""Batch expression compilation.

:func:`compile_batch` turns an AST expression into a closure
``fn(columns, n) -> list`` evaluating all ``n`` rows at once, built from
the same NULL-aware primitives the row compiler uses
(:mod:`repro.hive.expressions`), so both paths share one semantics.

Two escape hatches keep the batch path exactly row-equivalent:

* **uncompilable nodes** — an expression containing a node the
  vectorizer has no handler for falls back to the interpreted row
  closure applied row-by-row over the batch;
* **exception divergence** — the batch form evaluates sub-expressions
  eagerly over whole columns, where the row form short-circuits (AND/OR
  stop at the first False/True, CASE evaluates only the matched branch).
  An expression like ``flag AND ('a' + 1 > 0)`` raises eagerly but not
  under short-circuiting, so any exception from a vectorized closure is
  caught and the batch re-evaluated with the row closure — expressions
  are pure, so this reproduces row-path behavior bit-for-bit, including
  *where* an error surfaces.
"""

import operator
from itertools import compress, repeat

from repro.hive import ast_nodes as ast
from repro.hive.expressions import (SCALAR_FUNCTIONS, SlotRef, _BINARY,
                                    compile_expr, fold_in_list, is_true,
                                    like_to_regex, walk)
from repro.vector import gather

#: C-level forms of the NULL-stripped binary ops, used by the
#: ``col <op> literal`` fast path once the NULL/type checks are hoisted
#: out of the inner comprehension.  ``/ % ||`` stay on the generic
#: wrappers (extra semantics: div-by-zero -> NULL, str coercion).
_RAW_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_RAW_CMP = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
#: ``k <op> col`` as ``col <mirrored op> k``.
_MIRRORED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
#: exact literal type -> exact element types it compares with directly.
_PLAIN_CMP_TYPES = {str: frozenset((str,)),
                    int: frozenset((int, float)),
                    float: frozenset((int, float))}


class Unvectorizable(Exception):
    """Internal: no batch form for this node; use the row fallback."""


def compile_batch(expr, env):
    """Compile ``expr`` into ``fn(columns, n) -> list`` of n values.

    Semantically identical to mapping ``compile_expr(expr, env)`` over
    the batch's rows (see module docstring); analysis errors (unknown
    columns, aggregates in scalar context...) are raised at compile
    time, exactly as the row compiler raises them.
    """
    row_fn = compile_expr(expr, env)    # validates; the fallback path

    def interpret(cols, n):
        if cols:
            return [row_fn(values) for values in zip(*cols)]
        return [row_fn(()) for _ in range(n)]

    try:
        vec = _vectorize(expr, env)
    except Unvectorizable:
        return interpret

    def apply(cols, n):
        try:
            return vec(cols, n)
        except Exception:
            # Eager whole-column evaluation raised where the row path
            # may short-circuit past the failing operand; re-run this
            # batch row-at-a-time so results *and* errors match.
            return interpret(cols, n)
    return apply


def compile_batch_select(expr, env):
    """Compile a WHERE filter into ``fn(columns, n) -> positions``.

    The one place a predicate becomes row positions: the result holds,
    ascending, the indices of the rows on which ``expr`` is TRUE (a list,
    or ``range(n)`` when no row was rejected) — exactly the rows the row
    closure ``is_true`` on, and raising exactly what it raises.

    A top-level conjunction runs one selection kernel per conjunct, each
    over the rows its predecessors left *live* (neither FALSE nor
    rejected), which is the set the row closure's short-circuiting AND
    evaluates it on.  A NULL flag keeps its row live for the later
    conjuncts — the row AND only stops at FALSE, so they may still raise
    on it — but the row can no longer pass.
    """
    row_fn = compile_expr(expr, env)    # validates; the fallback path

    def row_select(cols, n):
        rows = zip(*cols) if cols else repeat((), n)
        return [i for i, values in enumerate(rows)
                if is_true(row_fn(values))]

    try:
        kernels = [(_select_kernel(c, env), _slots(c, env))
                   for c in _conjuncts(expr)]
    except Unvectorizable:
        return row_select
    last = kernels[-1][0]

    def select(cols, n):
        live = None     # rows no conjunct rejected so far (None: all n)
        nulls = set()   # the live rows some conjunct was NULL on
        try:
            for kernel, slots in kernels:
                if live is None:
                    sub, m = cols, n
                else:
                    sub, m = list(cols), len(live)
                    for slot in slots:
                        sub[slot] = gather(cols[slot], live)
                true, flags = kernel(sub, m)
                if len(true) == m:
                    continue        # nobody rejected: ``live`` stands
                null = []
                if flags is not None and kernel is not last \
                        and None in flags:
                    null = [i for i, v in enumerate(flags) if v is None]
                if live is not None:
                    true, null = gather(live, true), gather(live, null)
                nulls.update(null)
                live = sorted(true + null) if null else true
        except Exception:
            # Same shield as compile_batch: eager evaluation can raise
            # where the row path short-circuits past the operand.
            return row_select(cols, n)
        if live is None:
            return range(n)
        if nulls:
            return [i for i in live if i not in nulls]
        return live
    return select


def compile_batch_predicate(expr, env):
    """Compile a WHERE filter into ``fn(batch) -> batch``: select, then
    take.  Returns the input batch unchanged when every row passes."""
    select = compile_batch_select(expr, env)

    def apply(batch):
        keep = select(batch.columns, batch.length)
        if len(keep) == batch.length:
            return batch
        return batch.take(keep)
    return apply


def _select_kernel(expr, env):
    """One conjunct as ``fn(columns, n) -> (true positions, flags)``.

    ``flags`` is None when no flag can be NULL, else the evaluated flag
    list.  Kernel by input property (INTERNALS §8, selection vectors):

    * ``col <cmp> literal`` over a column whose exact element types
      compare with the literal directly (no NULL, no bool, no str/number
      coercion) yields exact bools: ``=`` is a ``list.index`` scan, the
      other comparisons feed ``itertools.compress`` straight from the
      C-level operator, and no flag list is built;
    * anything else evaluates the flag column and keeps the three-valued
      test — ``compress`` goes by truthiness, and ``''`` is TRUE in a
      WHERE.
    """
    flags_of = _vectorize(expr, env)

    def by_flags(cols, n):
        flags = flags_of(cols, n)
        return [i for i, v in enumerate(flags)
                if v is not None and v is not False and v != 0], flags

    if not (isinstance(expr, ast.BinaryOp) and expr.op in _RAW_CMP):
        return by_flags
    if isinstance(expr.right, ast.Literal):
        operand, k, raw = expr.left, expr.right.value, _RAW_CMP[expr.op]
    elif isinstance(expr.left, ast.Literal):
        operand, k = expr.right, expr.left.value
        raw = _RAW_CMP[_MIRRORED[expr.op]]
    else:
        return by_flags
    plain = _PLAIN_CMP_TYPES.get(type(k))
    if plain is None or k != k:
        # ``list.index`` tests identity before ``==`` and would find a
        # NaN that ``=`` never matches.
        return by_flags
    inner = _vectorize(operand, env)
    by_index = expr.op == "="

    def by_literal(cols, n):
        col = inner(cols, n)
        if not plain.issuperset(map(type, col)):
            return by_flags(cols, n)
        if not by_index:
            return list(compress(range(n), map(raw, col, repeat(k)))), None
        hits, find, start = [], col.index, 0
        try:
            while True:
                start = find(k, start) + 1
                hits.append(start - 1)
        except ValueError:
            return hits, None
    return by_literal


def _slots(expr, env):
    """The column positions ``expr`` reads (what a narrowed evaluation
    has to gather)."""
    return sorted({node.index if isinstance(node, SlotRef)
                   else env.resolve(node) for node in walk(expr)
                   if isinstance(node, (SlotRef, ast.ColumnRef))})


def _conjuncts(expr):
    """Flatten nested top-level ANDs into a conjunct list."""
    if isinstance(expr, ast.LogicalOp) and expr.op == "and":
        out = []
        for operand in expr.operands:
            out.extend(_conjuncts(operand))
        return out
    return [expr]


# ----------------------------------------------------------------------
# Vectorizers (one per AST node type; dispatch by exact type so a test
# can exercise the interpreted fallback by removing an entry).
# ----------------------------------------------------------------------
def _vectorize(expr, env):
    handler = VECTORIZERS.get(type(expr))
    if handler is None:
        raise Unvectorizable(type(expr).__name__)
    return handler(expr, env)


def _vec_literal(expr, env):
    value = expr.value
    return lambda cols, n: [value] * n


def _vec_slotref(expr, env):
    index = expr.index
    return lambda cols, n: cols[index]


def _vec_columnref(expr, env):
    index = env.resolve(expr)
    return lambda cols, n: cols[index]


def _vec_binary(expr, env):
    fn = _BINARY.get(expr.op)
    if fn is None:
        raise Unvectorizable(expr.op)
    # Constant operands skip the [value]*n materialization — the common
    # ``col <op> literal`` predicate runs as one tight comprehension.
    if isinstance(expr.right, ast.Literal):
        inner = _vectorize(expr.left, env)
        return _vec_binary_literal(expr.op, fn, inner, expr.right.value,
                                   literal_on_left=False)
    if isinstance(expr.left, ast.Literal):
        inner = _vectorize(expr.right, env)
        return _vec_binary_literal(expr.op, fn, inner, expr.left.value,
                                   literal_on_left=True)
    left = _vectorize(expr.left, env)
    right = _vectorize(expr.right, env)
    return lambda cols, n: [fn(a, b)
                            for a, b in zip(left(cols, n), right(cols, n))]


def _vec_binary_literal(op, fn, inner, k, literal_on_left):
    """Fast forms of ``col <op> k`` / ``k <op> col``.

    Every ``_BINARY`` op is NULL-absorbing, so a NULL literal yields a
    NULL column (the value operand is still evaluated: the row path
    evaluates both operands before the NULL check, so an error raised
    by the value side must still surface).  A non-NULL literal hoists
    the per-element NULL check into the comprehension and, for ``+ - *``
    and comparisons over same-typed operands, runs the C-level operator
    directly instead of the null-aware wrapper pair.
    """
    if k is None:
        def apply_null(cols, n):
            inner(cols, n)
            return [None] * n
        return apply_null
    raw = _RAW_ARITH.get(op)
    if raw is not None:
        if literal_on_left:
            return lambda cols, n: [None if b is None else raw(k, b)
                                    for b in inner(cols, n)]
        return lambda cols, n: [None if a is None else raw(a, k)
                                for a in inner(cols, n)]
    raw = _RAW_CMP.get(op)
    if raw is not None:
        # _cmp coerces when exactly one side is a string; same-typed
        # pairs take the raw comparison, mixed pairs fall back to fn.
        # A column whose exact element types all pair with k that way
        # (so no NULL, no bool) needs no per-element test at all.
        k_is_str = isinstance(k, str)
        plain = _PLAIN_CMP_TYPES.get(type(k), frozenset())

        def apply_cmp(cols, n):
            col = inner(cols, n)
            if plain.issuperset(map(type, col)):
                if literal_on_left:
                    return list(map(raw, repeat(k), col))
                return list(map(raw, col, repeat(k)))
            if literal_on_left:
                return [None if b is None
                        else (raw(k, b) if isinstance(b, str) == k_is_str
                              else fn(k, b))
                        for b in col]
            return [None if a is None
                    else (raw(a, k) if isinstance(a, str) == k_is_str
                          else fn(a, k))
                    for a in col]
        return apply_cmp
    if literal_on_left:
        return lambda cols, n: [fn(k, b) for b in inner(cols, n)]
    return lambda cols, n: [fn(a, k) for a in inner(cols, n)]


def _vec_logical(expr, env):
    operands = [_vectorize(op, env) for op in expr.operands]
    if expr.op == "and":
        def apply_and(cols, n):
            # Three-valued AND: False dominates, then NULL, then True.
            out = [True] * n
            for operand in operands:
                for i, val in enumerate(operand(cols, n)):
                    cur = out[i]
                    if cur is False:
                        continue
                    if val is None:
                        out[i] = None
                    elif not is_true(val):
                        out[i] = False
            return out
        return apply_and

    def apply_or(cols, n):
        # Three-valued OR: True dominates, then NULL, then False.
        out = [False] * n
        for operand in operands:
            for i, val in enumerate(operand(cols, n)):
                if out[i] is True:
                    continue
                if val is None:
                    out[i] = None
                elif is_true(val):
                    out[i] = True
        return out
    return apply_or


def _vec_not(expr, env):
    inner = _vectorize(expr.operand, env)
    return lambda cols, n: [None if v is None else not is_true(v)
                            for v in inner(cols, n)]


def _vec_unary_minus(expr, env):
    inner = _vectorize(expr.operand, env)
    return lambda cols, n: [None if v is None else -v
                            for v in inner(cols, n)]


def _vec_isnull(expr, env):
    inner = _vectorize(expr.operand, env)
    if expr.negated:
        return lambda cols, n: [v is not None for v in inner(cols, n)]
    return lambda cols, n: [v is None for v in inner(cols, n)]


def _vec_inlist(expr, env):
    inner = _vectorize(expr.operand, env)
    negated = expr.negated
    folded = fold_in_list(expr.items)
    if folded is not None:
        if negated:
            return lambda cols, n: [None if v is None else v not in folded
                                    for v in inner(cols, n)]
        return lambda cols, n: [None if v is None else v in folded
                                for v in inner(cols, n)]
    items = [_vectorize(item, env) for item in expr.items]

    def apply_in(cols, n):
        out = []
        item_cols = [item(cols, n) for item in items]
        for i, needle in enumerate(inner(cols, n)):
            if needle is None:
                out.append(None)
                continue
            candidates = []
            for col in item_cols:
                val = col[i]
                if isinstance(val, (frozenset, set)):
                    candidates.extend(val)
                else:
                    candidates.append(val)
            hit = needle in candidates
            out.append((not hit) if negated else hit)
        return out
    return apply_in


def _vec_like(expr, env):
    inner = _vectorize(expr.operand, env)
    pattern = _vectorize(expr.pattern, env)
    negated = expr.negated
    cache = {}

    def apply_like(cols, n):
        out = []
        for subject, pat in zip(inner(cols, n), pattern(cols, n)):
            if subject is None or pat is None:
                out.append(None)
                continue
            regex = cache.get(pat)
            if regex is None:
                regex = cache[pat] = like_to_regex(pat)
            hit = regex.match(str(subject)) is not None
            out.append((not hit) if negated else hit)
        return out
    return apply_like


def _vec_case(expr, env):
    conds = [_vectorize(c, env) for c, _ in expr.whens]
    results = [_vectorize(r, env) for _, r in expr.whens]
    default = (_vectorize(expr.default, env)
               if expr.default is not None else None)

    def apply_case(cols, n):
        cond_cols = [c(cols, n) for c in conds]
        result_cols = [r(cols, n) for r in results]
        default_col = default(cols, n) if default is not None else None
        out = []
        for i in range(n):
            value = default_col[i] if default_col is not None else None
            for ccol, rcol in zip(cond_cols, result_cols):
                if is_true(ccol[i]):
                    value = rcol[i]
                    break
            out.append(value)
        return out
    return apply_case


def _vec_funccall(expr, env):
    # compile_expr already rejected aggregates and unknown functions.
    fn = SCALAR_FUNCTIONS.get(expr.name)
    if fn is None:
        raise Unvectorizable(expr.name)
    args = [_vectorize(arg, env) for arg in expr.args]
    if not args:
        return lambda cols, n: [fn() for _ in range(n)]

    def apply_fn(cols, n):
        return [fn(*vals) for vals in zip(*(arg(cols, n) for arg in args))]
    return apply_fn


VECTORIZERS = {
    ast.Literal: _vec_literal,
    SlotRef: _vec_slotref,
    ast.ColumnRef: _vec_columnref,
    ast.BinaryOp: _vec_binary,
    ast.LogicalOp: _vec_logical,
    ast.NotOp: _vec_not,
    ast.UnaryMinus: _vec_unary_minus,
    ast.IsNull: _vec_isnull,
    ast.InList: _vec_inlist,
    ast.LikeOp: _vec_like,
    ast.CaseWhen: _vec_case,
    ast.FuncCall: _vec_funccall,
}
