"""Tests for expression compilation/evaluation with SQL NULL semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AnalysisError
from repro.hive import ast_nodes as ast
from repro.hive.expressions import (SCALAR_FUNCTIONS, Env, compile_expr,
                                    contains_aggregate, is_true,
                                    like_to_regex, referenced_columns, walk)
from repro.hive.parser import parse


def evaluate(text, row=None, columns=None):
    """Helper: compile 'SELECT <expr>' against a one-row env."""
    expr = parse("SELECT %s" % text).items[0].expr
    env = Env()
    if columns:
        env.add_schema(columns)
    fn = compile_expr(expr, env)
    return fn(tuple(row or ()))


class TestLiteralsAndArithmetic:
    def test_literals(self):
        assert evaluate("42") == 42
        assert evaluate("'hi'") == "hi"
        assert evaluate("true") is True
        assert evaluate("null") is None

    def test_arithmetic(self):
        assert evaluate("2 + 3 * 4") == 14
        assert evaluate("10 / 4") == 2.5
        assert evaluate("10 % 3") == 1
        assert evaluate("-(2 + 3)") == -5

    def test_division_by_zero_is_null(self):
        assert evaluate("1 / 0") is None
        assert evaluate("1 % 0") is None

    def test_null_propagates_through_arithmetic(self):
        assert evaluate("1 + null") is None
        assert evaluate("null * 3") is None

    def test_concat_operator(self):
        assert evaluate("'a' || 'b'") == "ab"


class TestUnaryMinus:
    def test_operand_is_evaluated_once(self, monkeypatch):
        seen = []
        monkeypatch.setitem(SCALAR_FUNCTIONS, "abs",
                            lambda x: seen.append(x) or x)
        assert evaluate("-abs(3)") == -3
        assert evaluate("-abs(null)") is None
        assert seen == [3, None]


class TestComparisons:
    def test_basic(self):
        assert evaluate("1 < 2") is True
        assert evaluate("2 <= 2") is True
        assert evaluate("3 != 4") is True
        assert evaluate("'abc' = 'abc'") is True

    def test_null_comparisons_are_null(self):
        assert evaluate("null = null") is None
        assert evaluate("1 < null") is None

    def test_string_date_ordering(self):
        assert evaluate("'2013-07-02' > '2013-07-01'") is True

    def test_numeric_string_coercion(self):
        assert evaluate("'5' = 5") is True
        assert evaluate("'abc' = 5") is False


class TestThreeValuedLogic:
    def test_and(self):
        assert evaluate("true AND true") is True
        assert evaluate("true AND false") is False
        assert evaluate("false AND null") is False   # short-circuit false
        assert evaluate("true AND null") is None

    def test_or(self):
        assert evaluate("false OR true") is True
        assert evaluate("false OR false") is False
        assert evaluate("true OR null") is True
        assert evaluate("false OR null") is None

    def test_not(self):
        assert evaluate("NOT true") is False
        assert evaluate("NOT null") is None

    def test_is_true_filter_semantics(self):
        assert is_true(True)
        assert not is_true(False)
        assert not is_true(None)
        assert not is_true(0)
        assert is_true(1)


class TestPredicates:
    def test_between(self):
        assert evaluate("5 BETWEEN 1 AND 10") is True
        assert evaluate("15 BETWEEN 1 AND 10") is False

    def test_in_list(self):
        assert evaluate("2 IN (1, 2, 3)") is True
        assert evaluate("9 IN (1, 2, 3)") is False
        assert evaluate("9 NOT IN (1, 2)") is True
        assert evaluate("null IN (1, 2)") is None

    def test_in_list_of_literals_compares_like_a_list(self):
        # Literal lists are folded to a frozenset at compile time; the
        # answers are those of the per-row list they replaced.
        assert evaluate("1 IN (1.0)") is True
        assert evaluate("'1' IN (1)") is False
        assert evaluate("TRUE IN (1)") is True
        assert evaluate("2 IN (1, null)") is False
        assert evaluate("2 NOT IN (1, null, 1)") is True
        assert evaluate("k IN (3, k)", row=(7,), columns=["k"]) is True

    def test_like(self):
        assert evaluate("'hello' LIKE 'he%'") is True
        assert evaluate("'hello' LIKE 'h_llo'") is True
        assert evaluate("'hello' LIKE 'x%'") is False
        assert evaluate("'hello' NOT LIKE 'x%'") is True
        assert evaluate("null LIKE 'x%'") is None

    def test_like_escapes_regex_chars(self):
        assert evaluate("'a.b' LIKE 'a.b'") is True
        assert evaluate("'axb' LIKE 'a.b'") is False

    def test_is_null(self):
        assert evaluate("null IS NULL") is True
        assert evaluate("1 IS NULL") is False
        assert evaluate("1 IS NOT NULL") is True

    def test_case_when(self):
        assert evaluate("CASE WHEN 1 = 1 THEN 'a' ELSE 'b' END") == "a"
        assert evaluate("CASE WHEN 1 = 2 THEN 'a' ELSE 'b' END") == "b"
        assert evaluate("CASE WHEN 1 = 2 THEN 'a' END") is None


class TestFunctions:
    def test_if(self):
        assert evaluate("IF(1 < 2, 'yes', 'no')") == "yes"
        assert evaluate("IF(null, 'yes', 'no')") == "no"

    def test_coalesce_and_nvl(self):
        assert evaluate("coalesce(null, null, 7)") == 7
        assert evaluate("nvl(null, 3)") == 3

    def test_math(self):
        assert evaluate("abs(-4)") == 4
        assert evaluate("round(3.456, 1)") == 3.5
        assert evaluate("floor(3.9)") == 3
        assert evaluate("ceil(3.1)") == 4

    def test_strings(self):
        assert evaluate("upper('ab')") == "AB"
        assert evaluate("lower('AB')") == "ab"
        assert evaluate("length('abc')") == 3
        assert evaluate("concat('a', 1, 'b')") == "a1b"
        assert evaluate("substr('hello', 2, 3)") == "ell"

    def test_date_parts(self):
        assert evaluate("year('2013-07-02')") == 2013
        assert evaluate("month('2013-07-02')") == 7
        assert evaluate("day('2013-07-02')") == 2

    def test_null_guard(self):
        assert evaluate("abs(null)") is None
        assert evaluate("upper(null)") is None

    def test_unknown_function(self):
        with pytest.raises(AnalysisError):
            evaluate("frobnicate(1)")


class TestColumnResolution:
    def test_bare_and_qualified(self):
        env = Env()
        env.add_schema(["a", "b"], alias="t")
        row = (10, 20)
        assert compile_expr(ast.ColumnRef("a"), env)(row) == 10
        assert compile_expr(ast.ColumnRef("b", "t"), env)(row) == 20

    def test_case_insensitive(self):
        env = Env()
        env.add_schema(["Amount"])
        assert compile_expr(ast.ColumnRef("AMOUNT"), env)((5,)) == 5

    def test_unknown_column(self):
        env = Env()
        env.add_schema(["a"])
        with pytest.raises(AnalysisError, match="unknown column"):
            compile_expr(ast.ColumnRef("z"), env)

    def test_ambiguous_column(self):
        env = Env()
        env.add_schema(["k"], alias="t1")
        env.add_schema(["k"], alias="t2")
        with pytest.raises(AnalysisError, match="ambiguous"):
            compile_expr(ast.ColumnRef("k"), env)
        # qualified stays fine
        assert compile_expr(ast.ColumnRef("k", "t2"), env)((1, 2)) == 2

    def test_aggregate_in_scalar_context_rejected(self):
        env = Env()
        env.add_schema(["a"])
        expr = parse("SELECT sum(a)").items[0].expr
        with pytest.raises(AnalysisError):
            compile_expr(expr, env)


class TestAstUtilities:
    def test_referenced_columns(self):
        expr = parse("SELECT a + t.b * IF(c = 1, d, 2)").items[0].expr
        assert referenced_columns(expr) == {"a", "b", "c", "d"}

    def test_contains_aggregate(self):
        assert contains_aggregate(parse("SELECT sum(a) + 1").items[0].expr)
        assert not contains_aggregate(parse("SELECT a + 1").items[0].expr)

    def test_walk_covers_case(self):
        expr = parse("SELECT CASE WHEN a THEN b ELSE c END").items[0].expr
        names = {n.name for n in walk(expr)
                 if isinstance(n, ast.ColumnRef)}
        assert names == {"a", "b", "c"}

    def test_like_to_regex(self):
        assert like_to_regex("a%b_").match("aXYZbQ")
        assert not like_to_regex("a%b_").match("aXYZb")


@given(st.one_of(st.none(), st.integers(-100, 100)),
       st.one_of(st.none(), st.integers(-100, 100)))
@settings(max_examples=60)
def test_arithmetic_null_safety_property(a, b):
    """a + b is NULL iff either side is NULL; otherwise exact."""
    env = Env()
    env.add_schema(["a", "b"])
    expr = parse("SELECT a + b").items[0].expr
    result = compile_expr(expr, env)((a, b))
    if a is None or b is None:
        assert result is None
    else:
        assert result == a + b


@given(st.one_of(st.none(), st.booleans()),
       st.one_of(st.none(), st.booleans()))
@settings(max_examples=40)
def test_three_valued_and_or_property(p, q):
    """AND/OR match Kleene logic truth tables."""
    env = Env()
    env.add_schema(["p", "q"])
    and_fn = compile_expr(parse("SELECT p AND q").items[0].expr, env)
    or_fn = compile_expr(parse("SELECT p OR q").items[0].expr, env)
    row = (p, q)

    def kleene_and(x, y):
        if x is False or y is False:
            return False
        if x is None or y is None:
            return None
        return True

    def kleene_or(x, y):
        if x is True or y is True:
            return True
        if x is None or y is None:
            return None
        return False

    assert and_fn(row) == kleene_and(p, q)
    assert or_fn(row) == kleene_or(p, q)


class TestExtendedFunctions:
    def test_trim_family(self):
        assert evaluate("trim('  x  ')") == "x"
        assert evaluate("ltrim('  x  ')") == "x  "
        assert evaluate("rtrim('  x  ')") == "  x"

    def test_reverse_and_instr(self):
        assert evaluate("reverse('abc')") == "cba"
        assert evaluate("instr('hello', 'll')") == 3
        assert evaluate("instr('hello', 'zz')") == 0

    def test_pad(self):
        assert evaluate("lpad('7', 3, '0')") == "007"
        assert evaluate("rpad('7', 3, '0')") == "700"

    def test_concat_ws_skips_nulls(self):
        assert evaluate("concat_ws('-', 'a', null, 'b')") == "a-b"
        assert evaluate("concat_ws(null, 'a', 'b')") is None

    def test_date_arithmetic(self):
        assert evaluate("date_add('2013-07-30', 3)") == "2013-08-02"
        assert evaluate("date_sub('2013-01-01', 1)") == "2012-12-31"
        assert evaluate("datediff('2013-07-05', '2013-07-01')") == 4
        assert evaluate("datediff('2013-07-01', '2013-07-05')") == -4

    def test_greatest_least_ignore_nulls(self):
        assert evaluate("greatest(1, 9, 4)") == 9
        assert evaluate("least(3, null, 2)") == 2
        assert evaluate("greatest(null, null)") is None

    def test_math(self):
        assert evaluate("pow(2, 10)") == 1024
        assert evaluate("sqrt(16)") == 4.0
        assert evaluate("sqrt(-1)") is None
        assert evaluate("mod(10, 3)") == 1
        assert evaluate("mod(10, 0)") is None
        assert evaluate("sign(-5)") == -1
        assert evaluate("sign(0)") == 0

    def test_null_guards(self):
        assert evaluate("date_add(null, 1)") is None
        assert evaluate("datediff('2013-01-01', null)") is None
