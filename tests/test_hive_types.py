"""Tests for the Hive type system and schema validation."""

import pytest

from repro.common.errors import AnalysisError
from repro.hive.types import Column, HiveType, TableSchema
from repro.hive.valuecodec import decode_value, encode_value


class TestHiveType:
    def test_parse_canonical(self):
        assert HiveType.parse("int") is HiveType.INT
        assert HiveType.parse("STRING") is HiveType.STRING

    def test_parse_aliases(self):
        assert HiveType.parse("integer") is HiveType.INT
        assert HiveType.parse("varchar") is HiveType.STRING
        assert HiveType.parse("float") is HiveType.DOUBLE
        assert HiveType.parse("bool") is HiveType.BOOLEAN
        assert HiveType.parse("long") is HiveType.BIGINT

    def test_parse_unknown(self):
        with pytest.raises(AnalysisError):
            HiveType.parse("blob")

    def test_physical_kinds(self):
        assert Column("a", HiveType.BIGINT).physical_kind == "int"
        assert Column("a", HiveType.DATE).physical_kind == "string"
        assert Column("a", HiveType.DECIMAL).physical_kind == "double"


class TestTableSchema:
    def test_from_tuples(self):
        schema = TableSchema([("a", "int"), ("b", "string")])
        assert schema.names == ["a", "b"]
        assert len(schema) == 2

    def test_index_lookup_case_insensitive(self):
        schema = TableSchema([("Amount", "double")])
        assert schema.index_of("amount") == 0
        assert schema.column("AMOUNT").name == "Amount"

    def test_unknown_column(self):
        schema = TableSchema([("a", "int")])
        with pytest.raises(AnalysisError):
            schema.index_of("b")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(AnalysisError):
            TableSchema([("a", "int"), ("A", "string")])

    def test_empty_schema_rejected(self):
        with pytest.raises(AnalysisError):
            TableSchema([])

    def test_orc_schema(self):
        schema = TableSchema([("a", "bigint"), ("d", "date")])
        assert schema.orc_schema() == [("a", "int"), ("d", "string")]

    def test_coerce_row(self):
        schema = TableSchema([("a", "int"), ("b", "double"),
                              ("c", "string")])
        assert schema.coerce_row(("5", 2, 3)) == (5, 2.0, "3")

    def test_coerce_preserves_none(self):
        schema = TableSchema([("a", "int")])
        assert schema.coerce_row((None,)) == (None,)

    def test_coerce_arity_mismatch(self):
        schema = TableSchema([("a", "int")])
        with pytest.raises(AnalysisError):
            schema.coerce_row((1, 2))

    def test_coerce_bad_value(self):
        schema = TableSchema([("a", "int")])
        with pytest.raises(AnalysisError):
            schema.coerce_row(("not a number",))


def _typed(row):
    return [(type(v), v) for v in row]


class TestCoerceRowParity:
    """``coerce_row`` keeps values of the exact declared type and
    coerces the rest; what comes out is what ``int``/``float``/``str``/
    ``bool`` of each non-NULL cell gives."""

    ALL = TableSchema([("i", "int"), ("b", "bigint"), ("d", "double"),
                       ("m", "decimal"), ("s", "string"), ("t", "date"),
                       ("f", "boolean")])

    def test_bool_into_int_becomes_int(self):
        schema = TableSchema([("a", "int"), ("b", "bigint")])
        assert _typed(schema.coerce_row((True, False))) == [(int, 1),
                                                            (int, 0)]

    def test_int_into_double_becomes_float(self):
        schema = TableSchema([("a", "double"), ("b", "decimal")])
        assert _typed(schema.coerce_row((3, True))) == [(float, 3.0),
                                                        (float, 1.0)]

    def test_numeric_strings_parse(self):
        schema = TableSchema([("a", "int"), ("b", "double")])
        assert _typed(schema.coerce_row(("12", "1.5"))) == [(int, 12),
                                                            (float, 1.5)]

    def test_anything_into_string_and_boolean(self):
        schema = TableSchema([("s", "string"), ("d", "date"),
                              ("f", "boolean"), ("g", "boolean")])
        assert _typed(schema.coerce_row((12, 1.5, 0, "x"))) == [
            (str, "12"), (str, "1.5"), (bool, False), (bool, True)]

    def test_subclasses_become_the_exact_base_type(self):
        class Text(str):
            pass

        class Count(int):
            pass

        class Ratio(float):
            pass

        schema = TableSchema([("s", "string"), ("i", "int"),
                              ("d", "double")])
        out = schema.coerce_row((Text("x"), Count(4), Ratio(0.5)))
        assert _typed(out) == [(str, "x"), (int, 4), (float, 0.5)]

    def test_null_passes_through_every_kind(self):
        assert self.ALL.coerce_row((None,) * 7) == (None,) * 7
        mixed = (None, 2, None, 1.5, None, "2014-01-01", None)
        assert self.ALL.coerce_row(mixed) == mixed

    def test_exact_rows_come_back_equal(self):
        row = (1, 2 ** 40, 1.5, -0.0, "x", "2014-01-01", True)
        out = self.ALL.coerce_row(row)
        assert type(out) is tuple
        assert _typed(out) == _typed(row)
        assert all(a is b for a, b in zip(out, row))
        assert self.ALL.coerce_row(list(row)) == row

    @pytest.mark.parametrize("decl, value", [
        ("int", "not a number"), ("bigint", "1.5"), ("double", "x"),
        ("decimal", [1]), ("int", [1])])
    def test_bad_value_message_names_value_type_and_column(self, decl,
                                                           value):
        schema = TableSchema([("ok", "string"), ("Amount", decl),
                              ("later", "int")])
        with pytest.raises(AnalysisError) as err:
            # the cell after the bad one is bad too: the first is named
            schema.coerce_row(("fine", value, "also bad"))
        coercer = int if decl in ("int", "bigint") else float
        with pytest.raises((TypeError, ValueError)) as cause:
            coercer(value)
        assert str(err.value) == (
            "cannot coerce %r to %s for column Amount: %s"
            % (value, decl, cause.value))
        assert type(err.value.__cause__) is type(cause.value)

    def test_arity_mismatch_message(self):
        with pytest.raises(AnalysisError,
                           match="row arity 2 != schema arity 7"):
            self.ALL.coerce_row((1, 2))


class TestCoerceRows:
    """``coerce_rows`` is ``coerce_row`` over a list, worked column by
    column: same tuples (values *and* types), same first error."""

    SCHEMA = TableSchema([("i", "int"), ("d", "double"), ("s", "string"),
                          ("f", "boolean")])

    def _same(self, rows):
        try:
            want = [self.SCHEMA.coerce_row(row) for row in rows]
        except Exception as exc:                      # noqa: BLE001
            with pytest.raises(type(exc)) as err:
                self.SCHEMA.coerce_rows(rows)
            assert str(err.value) == str(exc)
            assert type(err.value.__cause__) is type(exc.__cause__)
            return None
        got = self.SCHEMA.coerce_rows(rows)
        assert [_typed(row) for row in got] == [_typed(row) for row in want]
        assert all(type(row) is tuple for row in got)
        return got

    def test_exact_rows_come_back_as_they_are(self):
        rows = [(1, 1.5, "x", True), (None, None, None, None),
                (2 ** 40, -0.0, "", False)]
        assert self._same(rows) is rows
        assert self._same([]) == []

    def test_mixed_null_bool_in_int_and_str_in_int(self):
        got = self._same([(True, 3, 12, 0), (None, None, None, None),
                          ("12", "1.5", 1.5, "x"), (7, True, "s", True)])
        assert got[0] == (1, 3.0, "12", False)

    def test_a_bool_is_foreign_to_an_int_column(self):
        got = self._same([(True, 1.0, "a", True), (2, 2.0, "b", False)])
        assert _typed(got[0])[0] == (int, 1)

    def test_list_rows_and_iterables(self):
        assert self._same([[1, 1.5, "x", True], (2, 2.5, "y", False)]) \
            == [(1, 1.5, "x", True), (2, 2.5, "y", False)]
        rows = ((k, k / 2.0, "s", True) for k in range(3))
        assert self.SCHEMA.coerce_rows(rows) == [
            (0, 0.0, "s", True), (1, 0.5, "s", True), (2, 1.0, "s", True)]

    def test_first_bad_cell_in_row_order_is_named(self):
        # Column-wise, d's 'x' (row 2) would be met before i's 'later'
        # (row 1); the error names row 1's, as coerce_row would.
        self._same([(1, 1.0, "a", True), ("later", 1.0, "a", True),
                    (3, "x", "a", True)])
        self._same([(1, [1], "a", True)])
        self._same([(float("inf"), 1.0, "a", True)])

    def test_wrong_arity_raises_for_the_first_short_row(self):
        self._same([(1, 1.0, "a", True), (2, 2.0), ("bad", 1.0, "a", True)])
        self._same([("bad", 1.0, "a", True), (2, 2.0)])


class TestValueCodec:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -17, 2**40, 3.5, -0.0, "", "héllo",
    ])
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_bool_not_confused_with_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1

    def test_unencodable(self):
        from repro.common.errors import HBaseError
        with pytest.raises(HBaseError):
            encode_value([1, 2])

    def test_undecodable(self):
        from repro.common.errors import HBaseError
        with pytest.raises(HBaseError):
            decode_value(b"")
        with pytest.raises(HBaseError):
            decode_value(b"\x99junk")
