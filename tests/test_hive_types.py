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
