"""Differential test: batch-compiled expressions vs the row interpreter.

Generates ~500 seeded random expressions (arithmetic, comparisons,
three-valued logic, LIKE, IN, CASE, scalar functions) and evaluates
each over a NULL-rich row set twice — once with the row compiler
(:func:`compile_expr`, the semantic oracle) and once with the batch
compiler (:func:`compile_batch`).  Results must match value-for-value;
an expression that raises must raise the same exception type either
way (the batch compiler's fallback shield re-runs the row path, so
even error *sites* agree).
"""

import random

from repro.hive import ast_nodes as ast
from repro.hive.expressions import Env, compile_expr, fold_in_list
from repro.hive.parser import parse
from repro.hive.vexpr import compile_batch

SEED = 20140831
N_EXPRESSIONS = 500
COLUMNS = ["i", "j", "s", "f"]

STRINGS = ["g1", "g2", "abc", "", "2013-07-05", "xy"]


def make_rows(rng, n=48):
    rows = []
    for _ in range(n):
        rows.append((
            None if rng.random() < 0.2 else rng.randint(-5, 20),
            None if rng.random() < 0.2 else rng.randint(0, 7),
            None if rng.random() < 0.2 else rng.choice(STRINGS),
            None if rng.random() < 0.2 else round(rng.uniform(-3, 9), 3),
        ))
    return rows


# ----------------------------------------------------------------------
# Random expression grammar (emits HiveQL text).
# ----------------------------------------------------------------------
def num_expr(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(["i", "j", "f", "null", "2.5",
                           str(rng.randint(-3, 9))])
    kind = rng.choice(["binop", "binop", "unary", "func", "case", "if"])
    if kind == "binop":
        op = rng.choice(["+", "-", "*", "/", "%"])
        return "(%s %s %s)" % (num_expr(rng, depth - 1), op,
                               num_expr(rng, depth - 1))
    if kind == "unary":
        return "(- %s)" % num_expr(rng, depth - 1)
    if kind == "func":
        name = rng.choice(["abs", "floor", "ceil", "sqrt", "sign"])
        return "%s(%s)" % (name, num_expr(rng, depth - 1))
    if kind == "if":
        return "if(%s, %s, %s)" % (bool_expr(rng, depth - 1),
                                   num_expr(rng, depth - 1),
                                   num_expr(rng, depth - 1))
    return ("CASE WHEN %s THEN %s WHEN %s THEN %s ELSE %s END"
            % (bool_expr(rng, depth - 1), num_expr(rng, depth - 1),
               bool_expr(rng, depth - 1), num_expr(rng, depth - 1),
               num_expr(rng, depth - 1)))


def str_expr(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(["s", "'g1'", "'abc'", "''", "null"])
    kind = rng.choice(["func1", "concat", "substr"])
    if kind == "func1":
        name = rng.choice(["lower", "upper", "trim", "reverse"])
        return "%s(%s)" % (name, str_expr(rng, depth - 1))
    if kind == "concat":
        return "(%s || %s)" % (str_expr(rng, depth - 1),
                               str_expr(rng, depth - 1))
    return "substr(%s, 1, 2)" % str_expr(rng, depth - 1)


def bool_expr(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.choice(["numcmp", "numcmp", "strcmp", "isnull",
                           "inlist", "like", "lit"])
        if kind == "numcmp":
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            return "(%s %s %s)" % (num_expr(rng, 0), op, num_expr(rng, 0))
        if kind == "strcmp":
            return "(%s = %s)" % (str_expr(rng, 0), str_expr(rng, 0))
        if kind == "isnull":
            column = rng.choice(COLUMNS)
            negated = rng.choice(["", " NOT"])
            return "(%s IS%s NULL)" % (column, negated)
        if kind == "inlist":
            negated = rng.choice(["", " NOT"])
            return "(j%s IN (1, 2, 3))" % negated
        if kind == "like":
            pattern = rng.choice(["g%", "%1", "a_c", "%"])
            return "(s LIKE '%s')" % pattern
        return rng.choice(["true", "false", "null"])
    kind = rng.choice(["and", "or", "not", "cmp"])
    if kind == "and":
        return "(%s AND %s)" % (bool_expr(rng, depth - 1),
                                bool_expr(rng, depth - 1))
    if kind == "or":
        return "(%s OR %s)" % (bool_expr(rng, depth - 1),
                               bool_expr(rng, depth - 1))
    if kind == "not":
        return "(NOT %s)" % bool_expr(rng, depth - 1)
    op = rng.choice(["=", "<", ">="])
    return "(%s %s %s)" % (num_expr(rng, depth - 1), op,
                           num_expr(rng, depth - 1))


def gen_expr(rng):
    roll = rng.random()
    depth = rng.randint(1, 3)
    if roll < 0.45:
        return num_expr(rng, depth)
    if roll < 0.85:
        return bool_expr(rng, depth)
    return str_expr(rng, depth)


# ----------------------------------------------------------------------
# The differential harness.
# ----------------------------------------------------------------------
def evaluate_both(text, env, rows, cols):
    expr = parse("SELECT %s" % text).items[0].expr
    row_fn = compile_expr(expr, env)
    batch_fn = compile_batch(expr, env)
    try:
        expected = ("ok", [row_fn(values) for values in rows])
    except Exception as exc:                          # noqa: BLE001
        expected = ("err", type(exc).__name__)
    try:
        got = ("ok", batch_fn(cols, len(rows)))
    except Exception as exc:                          # noqa: BLE001
        got = ("err", type(exc).__name__)
    return expected, got


def test_differential_row_vs_batch():
    rng = random.Random(SEED)
    rows = make_rows(rng)
    cols = [list(column) for column in zip(*rows)]
    env = Env().add_schema(COLUMNS)
    mismatches = []
    interesting = 0
    for _ in range(N_EXPRESSIONS):
        text = gen_expr(rng)
        expected, got = evaluate_both(text, env, rows, cols)
        if expected != got:
            mismatches.append((text, expected, got))
        if expected[0] == "ok" \
                and any(v is not None for v in expected[1]):
            interesting += 1
    assert not mismatches, mismatches[:5]
    # Generator sanity: most expressions evaluate and produce values
    # (the suite must not pass vacuously on an all-error corpus).
    assert interesting > N_EXPRESSIONS // 2


def test_differential_split_batches_match_single_batch():
    """Evaluating in several small batches equals one big batch."""
    rng = random.Random(SEED + 1)
    rows = make_rows(rng, n=30)
    env = Env().add_schema(COLUMNS)
    for _ in range(60):
        text = gen_expr(rng)
        expr = parse("SELECT %s" % text).items[0].expr
        batch_fn = compile_batch(expr, env)
        try:
            whole = batch_fn([list(c) for c in zip(*rows)], len(rows))
        except Exception:                             # noqa: BLE001
            continue
        pieces = []
        for lo in range(0, len(rows), 7):
            chunk = rows[lo:lo + 7]
            pieces.extend(batch_fn([list(c) for c in zip(*chunk)],
                                   len(chunk)))
        assert pieces == whole, text


# ----------------------------------------------------------------------
# IN-list folding: literal lists compile to one frozenset per statement;
# the row closure, the batch closure and the pre-folding semantics (a
# candidate list rebuilt per row, linear ``in``) must all agree.
# ----------------------------------------------------------------------
def legacy_in(expr, env, values):
    """``apply_in`` as it was before literal lists were folded."""
    needle = compile_expr(expr.operand, env)(values)
    if needle is None:
        return None
    candidates = []
    for item in expr.items:
        val = compile_expr(item, env)(values)
        if isinstance(val, (frozenset, set)):
            candidates.extend(val)
        else:
            candidates.append(val)
    hit = needle in candidates
    return (not hit) if expr.negated else hit


def in_expr(text):
    return parse("SELECT %s" % text).items[0].expr


def subquery_in(negated=False):
    """``j IN (<materialized subquery>, 5)`` as the executor rewrites it."""
    return ast.InList(operand=ast.ColumnRef(name="j"),
                      items=[ast.Literal(value=frozenset({1, 2.0, None})),
                             ast.Literal(value=5)],
                      negated=negated)


FOLDED_IN_LISTS = [
    "j IN (1, 2, 3)",
    "j NOT IN (1, 2, 3)",
    "j IN (1, 1, 2, 2, 1)",               # duplicates
    "j IN (1, null)",                     # NULL inside the list
    "j NOT IN (null, 3)",
    "null IN (1, 2)",                     # NULL needle
    "null NOT IN (1, null)",
    "1 IN (1.0)",                         # 1 == 1.0 and hash alike
    "f IN (2, 2.5, 3)",
    "i IN (2.0, 5.0, -1.0, -3)",          # "-3" parses as UnaryMinus(3)
    "'1' IN (1)",                         # no str/int coercion in IN
    "s IN ('g1', 2, '')",
    "j IN ('1', '2')",
    "TRUE IN (1)",                        # bool is an int
    "(j = 1) IN (0, 2)",
    "(j = 1) NOT IN (1)",
]

GENERAL_IN_LISTS = [
    "j IN (1, i)",                        # one column-ref item
    "j NOT IN (i, 3, null)",
    "f IN (i, j, 2.5)",
    "s IN ('g1', s)",
    "i IN (1, -j)",
    "i IN (1, -null)",                    # only negated numbers fold
]


def check_in_list(expr, env, rows, cols):
    expected = [legacy_in(expr, env, values) for values in rows]
    assert [compile_expr(expr, env)(values) for values in rows] == expected
    assert compile_batch(expr, env)(cols, len(rows)) == expected
    return expected


def test_in_list_folding_keeps_list_semantics():
    rng = random.Random(SEED + 2)
    rows = make_rows(rng, n=64)
    cols = [list(column) for column in zip(*rows)]
    env = Env().add_schema(COLUMNS)
    for text in FOLDED_IN_LISTS:
        expr = in_expr(text)
        assert isinstance(fold_in_list(expr.items), frozenset), text
        check_in_list(expr, env, rows, cols)
    for text in GENERAL_IN_LISTS:
        expr = in_expr(text)
        assert fold_in_list(expr.items) is None, text
        check_in_list(expr, env, rows, cols)
    for negated in (False, True):
        expr = subquery_in(negated)
        assert fold_in_list(expr.items) is None
        results = check_in_list(expr, env, rows, cols)
        assert {True, False, None} == set(results)
    # Spot-check the headline literals against their SQL-visible values.
    one_row, one_col = [(None, 1, "g1", 2.5)], [[None], [1], ["g1"], [2.5]]
    for text, value in [("1 IN (1.0)", True), ("'1' IN (1)", False),
                        ("TRUE IN (1)", True), ("null IN (1, 2)", None),
                        ("j IN (2, null)", False), ("j NOT IN (2, null)", True),
                        ("i IN (1, 2)", None)]:
        assert check_in_list(in_expr(text), env, one_row, one_col) \
            == [value], text
