"""The selection kernel vs the row closure.

``compile_batch_select(expr, env)(cols, n)`` must return exactly the
positions where ``is_true(compile_expr(expr, env)(row))`` — and raise
exactly what the row closure raises, on the row it raises on — whatever
the columns hold.  The fast kernels each have a trap of their own:
``list.index`` tests identity before ``==`` (a NaN finds itself),
``itertools.compress`` goes by truthiness (``''`` is TRUE in a WHERE,
``0.0`` is not), and ``=`` coerces a string operand to a number where
Python's ``==`` does not.  Narrowing has a third: the row AND stops at
FALSE but not at NULL, so a later conjunct still runs — and may raise —
on a row an earlier conjunct was NULL on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hive import ast_nodes as ast
from repro.hive import vexpr
from repro.hive.expressions import Env, compile_expr, is_true
from repro.hive.vexpr import compile_batch_predicate, compile_batch_select
from repro.vector import ColumnBatch

NAN = float("nan")
COLUMNS = ["a", "b", "c"]
ENV = Env().add_schema(COLUMNS)

# Cell values by column flavour: plain-typed, NULL-holding, bools in an
# int column, int/float mixes, NaN (one shared object, so a literal can
# be *identical* to a cell), '' / 0.0 truthiness, str-vs-number.
INTS = st.integers(-3, 6)
FLOATS = st.sampled_from([0.0, -0.0, 1.0, 2.5, 5.0, NAN, -1.5])
STRINGS = st.sampled_from(["", "5", "5.0", "abc", "g1", "0", " 1", "1e0"])
FLAVOURS = [
    INTS,
    st.one_of(st.none(), INTS),
    st.one_of(INTS, st.booleans()),
    st.one_of(INTS, FLOATS),
    st.one_of(st.none(), FLOATS),
    STRINGS,
    st.one_of(st.none(), STRINGS),
    st.one_of(INTS, STRINGS, st.none(), FLOATS, st.booleans()),
]
LITERALS = st.one_of(st.none(), INTS, FLOATS, STRINGS, st.booleans())


@st.composite
def batches(draw):
    n = draw(st.integers(0, 24))
    return [draw(st.lists(draw(st.sampled_from(FLAVOURS)),
                          min_size=n, max_size=n)) for _ in COLUMNS], n


def column():
    return st.builds(ast.ColumnRef, name=st.sampled_from(COLUMNS))


def literal():
    return st.builds(ast.Literal, value=LITERALS)


def operand():
    # ``a + 1`` raises on a string cell: the error-parity operand.
    return st.one_of(column(), column(), literal(), st.builds(
        ast.BinaryOp, op=st.sampled_from(["+", "*", "%"]), left=column(),
        right=st.builds(ast.Literal, value=INTS)))


def comparison():
    return st.builds(ast.BinaryOp,
                     op=st.sampled_from(["=", "=", "!=", "<", "<=", ">",
                                         ">="]),
                     left=operand(), right=operand())


def atom():
    return st.one_of(
        comparison(), comparison(), column(),
        st.builds(ast.InList, operand=column(),
                  items=st.lists(literal(), min_size=1, max_size=4),
                  negated=st.booleans()),
        st.builds(ast.IsNull, operand=column(), negated=st.booleans()),
        st.builds(ast.LikeOp, operand=column(),
                  pattern=st.builds(ast.Literal,
                                    value=st.sampled_from(["%5%", "g_", ""])),
                  negated=st.booleans()))


def conjunct():
    return st.one_of(
        atom(), atom(), st.builds(ast.NotOp, operand=atom()),
        st.builds(ast.LogicalOp, op=st.just("or"),
                  operands=st.lists(atom(), min_size=2, max_size=2)))


def predicate():
    return st.one_of(conjunct(), st.builds(
        ast.LogicalOp, op=st.just("and"),
        operands=st.lists(conjunct(), min_size=2, max_size=4)))


def row_positions(expr, cols, n):
    row_fn = compile_expr(expr, ENV)
    return [i for i, values in enumerate(zip(*cols))
            if is_true(row_fn(values))]


def outcome(fn):
    try:
        return "ok", list(fn())
    except Exception as exc:                          # noqa: BLE001
        return "err", type(exc).__name__, str(exc)


def check(expr, cols, n):
    want = outcome(lambda: row_positions(expr, cols, n))
    got = outcome(lambda: compile_batch_select(expr, ENV)(cols, n))
    assert got == want
    if want[0] == "ok":
        batch = ColumnBatch(cols, n)
        kept = compile_batch_predicate(expr, ENV)(batch)
        assert [list(c) for c in kept.columns] \
            == [[c[i] for i in want[1]] for c in cols]
        if len(want[1]) == n:
            assert kept is batch


@settings(max_examples=400, deadline=None)
@given(batches(), predicate())
def test_select_equals_row_closure(batch, expr):
    cols, n = batch
    check(expr, cols, n)


@settings(max_examples=150, deadline=None)
@given(batches(), predicate())
def test_select_equals_row_closure_without_vectorizers(batch, expr):
    """The interpreted fallback (a node with no vectorizer) agrees too."""
    cols, n = batch
    saved = vexpr.VECTORIZERS.pop(ast.BinaryOp)
    try:
        check(expr, cols, n)
    finally:
        vexpr.VECTORIZERS[ast.BinaryOp] = saved


def col(name):
    return ast.ColumnRef(name=name)


def lit(value):
    return ast.Literal(value=value)


def eq(left, right):
    return ast.BinaryOp(op="=", left=left, right=right)


def both(*operands):
    return ast.LogicalOp(op="and", operands=list(operands))


def select(expr, *cols):
    cols = [list(c) for c in cols]
    cols += [[None] * len(cols[0])] * (len(COLUMNS) - len(cols))
    want = row_positions(expr, cols, len(cols[0]))
    assert list(compile_batch_select(expr, ENV)(cols, len(cols[0]))) == want
    return want


class TestTraps:
    def test_index_scan_does_not_find_nan_by_identity(self):
        assert select(eq(col("a"), lit(NAN)), [1.0, NAN, 2.0]) == []
        assert select(eq(lit(NAN), col("a")), [NAN, NAN]) == []

    def test_index_scan_finds_every_hit_across_int_and_float(self):
        assert select(eq(col("a"), lit(5)), [5, 1, 5.0, 5, 2]) == [0, 2, 3]
        assert select(eq(lit(5.0), col("a")), [5, 5.0, 4]) == [0, 1]

    def test_string_cells_coerce_against_a_number(self):
        # '5' = 5 and '5.0' = 5 are TRUE; list.index would miss both.
        assert select(eq(col("a"), lit(5)),
                      ["5", 5, "5.0", "abc", None]) == [0, 1, 2]
        assert select(eq(col("a"), lit("5")), [5, "5", 5.0]) == [0, 1, 2]

    def test_bools_in_an_int_column(self):
        assert select(eq(col("a"), lit(1)), [True, 1, False, 0]) == [0, 1]
        assert select(ast.BinaryOp(op="<", left=col("a"), right=lit(1)),
                      [True, 1, False, 0]) == [2, 3]

    def test_empty_string_is_true_and_zero_is_not(self):
        assert select(col("a"), ["", "x", 0, 0.0, -0.0, 1, None, False,
                                 True, NAN]) == [0, 1, 5, 8, 9]

    def test_mirrored_comparison(self):
        less = ast.BinaryOp(op="<", left=lit(2), right=col("a"))
        assert select(less, [1, 2, 3, 2.5]) == [2, 3]

    def test_all_rows_pass_returns_a_range(self):
        keep = compile_batch_select(
            ast.BinaryOp(op=">=", left=col("a"), right=lit(0)),
            ENV)([[1, 2, 3], [0] * 3, [0] * 3], 3)
        assert keep == range(3)

    def test_zero_width_batch(self):
        assert list(compile_batch_select(eq(lit(1), lit(1)), Env())([], 4)) \
            == [0, 1, 2, 3]
        assert list(compile_batch_select(eq(lit(1), lit(2)), Env())([], 4)) \
            == []


class TestNarrowing:
    RAISES = ast.BinaryOp(
        op=">", right=lit(0),
        left=ast.BinaryOp(op="+", left=col("b"), right=lit(1)))

    def test_later_conjunct_skips_rows_an_earlier_one_rejected(self):
        # b + 1 raises on 'x', but only where a = 1 is FALSE: the row
        # AND never evaluates it there, and neither does the kernel.
        expr = both(eq(col("a"), lit(1)), self.RAISES)
        assert select(expr, [1, 2, 1], [5, "x", -3]) == [0]

    def test_later_conjunct_still_runs_on_a_null_row(self):
        # a = 1 is NULL on row 1: the row AND goes on to b + 1 there,
        # and raises.  Narrowing to the TRUE rows would not.
        expr = both(eq(col("a"), lit(1)), self.RAISES)
        cols = [[1, None, 1], [5, "x", -3], [None] * 3]
        with pytest.raises(TypeError) as want:
            row_positions(expr, cols, 3)
        with pytest.raises(TypeError) as got:
            compile_batch_select(expr, ENV)(cols, 3)
        assert str(got.value) == str(want.value)

    def test_shield_reruns_rows_where_the_row_or_short_circuits(self):
        # Eager evaluation raises on b = 'x'; the row OR never gets there.
        expr = ast.LogicalOp(op="or",
                             operands=[eq(col("a"), lit(1)), self.RAISES])
        assert select(expr, [1, 2, 1], ["x", 3, -9]) == [0, 1, 2]

    def test_null_rows_stay_live_but_never_pass(self):
        expr = both(ast.BinaryOp(op=">", left=col("a"), right=lit(0)),
                    ast.BinaryOp(op=">", left=col("b"), right=lit(0)),
                    eq(col("c"), lit("y")))
        assert select(expr, [1, None, 2, 0, 3], [1, 1, None, 1, 1],
                      ["y", "y", "y", "y", "n"]) == [0]

    def test_narrowed_conjunct_gathers_only_what_it_reads(self):
        expr = both(ast.BinaryOp(op=">", left=col("a"), right=lit(1)),
                    ast.BinaryOp(op="<", left=col("c"), right=col("a")))
        assert select(expr, [0, 2, 3, 4], ["never", "read", "at", "all"],
                      [9, 1, 3, 0]) == [1, 3]
