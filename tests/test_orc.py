"""Tests for the ORC-like columnar format: encodings, writer, reader."""

import json
import random
import struct
import sys
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterProfile
from repro.common.errors import CorruptOrcFileError, OrcError
from repro.common.units import MB
from repro.hdfs import HdfsFileSystem
from repro.hive.pushdown import admit_stripes
from repro.orc import OrcReader, OrcWriter, write_orc
from repro.orc.encodings import (DECODERS, ENCODERS, decode_boolean_column,
                                 decode_double_column, decode_int_column,
                                 decode_string_column, encode_boolean_column,
                                 encode_double_column, encode_int_column,
                                 encode_string_column)
from repro.orc.reader import decoded_bytes
from repro.orc.writer import MAGIC


# ----------------------------------------------------------------------
# Encodings: round-trip properties.
# ----------------------------------------------------------------------
# The full int64 range plus a few values beyond it: a narrower range
# (+-2**50) once hid a zigzag overflow on deltas >= 2**63.
int_values = st.lists(
    st.one_of(st.none(), st.integers(-2**63, 2**63 - 1),
              st.sampled_from([2**63, -2**63 - 1, 2**64, -2**70, 2**100])),
    max_size=300)
double_values = st.lists(
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    max_size=200)
string_values = st.lists(st.one_of(st.none(), st.text(max_size=20)),
                         max_size=200)
bool_values = st.lists(st.one_of(st.none(), st.booleans()), max_size=200)


class TestEncodings:
    @given(int_values)
    @settings(max_examples=60)
    def test_int_roundtrip(self, values):
        assert decode_int_column(encode_int_column(values)) == values

    @given(double_values)
    @settings(max_examples=40)
    def test_double_roundtrip(self, values):
        assert decode_double_column(encode_double_column(values)) == values

    @given(string_values)
    @settings(max_examples=40)
    def test_string_roundtrip(self, values):
        assert decode_string_column(encode_string_column(values)) == values

    @given(bool_values)
    @settings(max_examples=40)
    def test_boolean_roundtrip(self, values):
        assert decode_boolean_column(encode_boolean_column(values)) == values

    def test_int_rle_compresses_runs(self):
        run = list(range(10000))                 # perfect delta run
        random_ish = [((i * 2654435761) % 99991) - 50000
                      for i in range(10000)]
        assert len(encode_int_column(run)) < len(
            encode_int_column(random_ish)) / 5

    def test_string_dictionary_compresses_repeats(self):
        repeats = ["alpha", "beta", "gamma"] * 1000
        unique = ["s%d" % i for i in range(3000)]
        assert len(encode_string_column(repeats)) < len(
            encode_string_column(unique)) / 3

    def test_all_null_columns(self):
        nulls = [None] * 50
        assert decode_int_column(encode_int_column(nulls)) == nulls
        assert decode_string_column(encode_string_column(nulls)) == nulls

    def test_empty_columns(self):
        assert decode_int_column(encode_int_column([])) == []
        assert decode_double_column(encode_double_column([])) == []

    @pytest.mark.parametrize("values", [[-(2**62), 2**62], [2**63]])
    def test_zigzag_does_not_overflow_at_2_to_63(self, values):
        # (n << 1) ^ (n >> 63) silently decoded these to other numbers.
        assert decode_int_column(encode_int_column(values)) == values


# ----------------------------------------------------------------------
# Writer/reader.
# ----------------------------------------------------------------------
SCHEMA = [("id", "int"), ("name", "string"), ("score", "double"),
          ("flag", "boolean")]


def _rows(n):
    return [(i, "name%d" % (i % 7), i * 1.5, i % 2 == 0) for i in range(n)]


class TestWriter:
    def test_roundtrip_bytes(self):
        rows = _rows(100)
        data = write_orc(SCHEMA, rows, stripe_rows=30)
        reader = OrcReader(data)
        assert [v for _, v in reader.rows()] == rows

    def test_row_numbers_sequential(self):
        data = write_orc(SCHEMA, _rows(75), stripe_rows=20)
        reader = OrcReader(data)
        assert [rn for rn, _ in reader.rows()] == list(range(75))

    def test_stripe_count(self):
        data = write_orc(SCHEMA, _rows(100), stripe_rows=30)
        reader = OrcReader(data)
        assert len(reader.stripes) == 4       # 30+30+30+10
        assert [s.num_rows for s in reader.stripes] == [30, 30, 30, 10]

    def test_metadata_carried(self):
        data = write_orc(SCHEMA, _rows(5), metadata={"file_id": 42})
        assert OrcReader(data).metadata["file_id"] == 42

    def test_empty_file(self):
        data = write_orc(SCHEMA, [])
        reader = OrcReader(data)
        assert reader.num_rows == 0
        assert reader.read_all() == []

    def test_arity_mismatch_rejected(self):
        writer = OrcWriter(SCHEMA)
        with pytest.raises(OrcError):
            writer.write_row((1, "x"))

    def test_bad_schema_rejected(self):
        with pytest.raises(OrcError):
            OrcWriter([("a", "blob")])
        with pytest.raises(OrcError):
            OrcWriter([])

    def test_finish_twice_rejected(self):
        writer = OrcWriter(SCHEMA)
        writer.finish()
        with pytest.raises(OrcError):
            writer.finish()

    def test_write_after_finish_rejected(self):
        writer = OrcWriter(SCHEMA)
        writer.finish()
        with pytest.raises(OrcError):
            writer.write_row((1, "a", 1.0, True))


class TestStatistics:
    def test_stripe_stats_min_max(self):
        data = write_orc(SCHEMA, _rows(60), stripe_rows=20)
        reader = OrcReader(data)
        first = reader.stripes[0]
        assert first.stats(0)["min"] == 0
        assert first.stats(0)["max"] == 19
        assert reader.stripes[2].stats(0)["min"] == 40

    def test_stats_include_nulls_and_ndv(self):
        rows = [(None, "a", 1.0, True), (3, "a", None, None),
                (5, "b", 2.0, False)]
        data = write_orc(SCHEMA, rows)
        stats = OrcReader(data).stripes[0].stats(0)
        assert stats["nulls"] == 1
        assert stats["min"] == 3 and stats["max"] == 5
        assert stats["ndv"] == 2
        assert OrcReader(data).stripes[0].stats(1)["ndv"] == 2

    def test_numeric_sum(self):
        data = write_orc(SCHEMA, _rows(10))
        stats = OrcReader(data).stripes[0].stats(0)
        assert stats["sum"] == sum(range(10))

    def test_file_level_stats_merged(self):
        data = write_orc(SCHEMA, _rows(60), stripe_rows=20)
        reader = OrcReader(data)
        file_stats = reader.column_stats[0]
        assert file_stats["min"] == 0
        assert file_stats["max"] == 59
        assert file_stats["count"] == 60


class TestProjectionAndPruning:
    def test_projection_returns_requested_columns(self):
        data = write_orc(SCHEMA, _rows(10))
        rows = OrcReader(data).read_all(projection=["score", "id"])
        assert rows[2][1] == (3.0, 2)

    def test_unknown_projection_column_fails(self):
        data = write_orc(SCHEMA, _rows(3))
        with pytest.raises(CorruptOrcFileError):
            OrcReader(data).read_all(projection=["nope"])

    def test_stripe_filter_skips(self):
        data = write_orc(SCHEMA, _rows(100), stripe_rows=25)
        reader = OrcReader(data)
        got = reader.read_all(
            projection=["id"],
            row_spans={s.index: [(s.first_row, s.first_row + s.num_rows)]
                       for s in reader.stripes if s.stats(0)["min"] >= 50})
        assert [rn for rn, _ in got] == list(range(50, 100))

    def test_projected_bytes_less_than_full(self):
        data = write_orc(SCHEMA, _rows(1000), stripe_rows=100)
        reader = OrcReader(data)
        _, one, _ = admit_stripes(reader, ["id"], {})
        _, full, _ = admit_stripes(reader, None, {})
        assert 0 < one < full

    def test_projection_charging(self):
        cluster = Cluster(ClusterProfile.laptop())
        fs = HdfsFileSystem(cluster)
        fs.write_file("/t/f.orc", write_orc(SCHEMA, _rows(2000),
                                            stripe_rows=200))
        reader = OrcReader(fs, "/t/f.orc")
        base = cluster.ledger.bytes_for("hdfs", "read")
        reader.read_all(projection=["id"])
        narrow = cluster.ledger.bytes_for("hdfs", "read") - base
        reader2 = OrcReader(fs, "/t/f.orc")
        base = cluster.ledger.bytes_for("hdfs", "read")
        reader2.read_all()
        wide = cluster.ledger.bytes_for("hdfs", "read") - base
        assert narrow < wide


class TestCacheWeight:
    """The ORC cache's budget bounds memory: a decoded column weighs
    what it holds, not its compressed stream."""

    COLUMNS = {
        "run int": ("int", lambda n, rng: list(range(n))),
        "random int": ("int", lambda n, rng: [
            rng.randrange(-2**40, 2**40) for _ in range(n)]),
        "double": ("double", lambda n, rng: [rng.random() for _ in range(n)]),
        "dictionary string": ("string", lambda n, rng: [
            rng.choice(("alpha", "beta", "gamma")) for _ in range(n)]),
        "direct string": ("string", lambda n, rng: [
            "s%09d" % rng.randrange(10**9) for _ in range(n)]),
    }

    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_estimate_within_2x_of_tracemalloc(self, name):
        kind, make = self.COLUMNS[name]
        stream = ENCODERS[kind](make(5000, random.Random(7)))
        tracemalloc.start()
        try:
            column = DECODERS[kind](stream)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / 2 <= decoded_bytes(kind, column) <= held * 2

    @pytest.mark.parametrize("column", [
        [], ["", "a", "bc"], ["s%05d" % i for i in range(300)],
        ["alpha", "beta"] * 200, ["ascii", "ünï", "日本"] * 40,
        ["a", None, "b"] * 50, [type("Sub", (str,), {})("x"), "y"] * 80,
    ], ids=["empty", "short", "direct", "shared", "non-ascii", "null",
            "subclass"])
    def test_string_weight_is_the_getsizeof_sum(self, column):
        """The ASCII fast path weighs what ``sys.getsizeof`` does, to
        the byte: cache budgets and evictions cannot tell them apart."""
        n = len(column)
        sample = column[::max(1, n // 64)]
        distinct = dict(zip(map(id, sample), sample)).values()
        expect = (sys.getsizeof([]) + 8 * n + sum(
            map(sys.getsizeof, distinct)) * n // max(1, len(sample)))
        assert decoded_bytes("string", column) == expect

    def test_column_over_the_budget_is_not_cached(self):
        """100 000 run-encoded ints: a 48-byte stream, ~4 MB decoded."""
        cluster = Cluster(ClusterProfile.laptop(orc_cache_bytes=1 * MB))
        fs = HdfsFileSystem(cluster)
        fs.write_file("/t/run.orc", write_orc(
            [("id", "int")], [(i,) for i in range(100_000)],
            stripe_rows=100_000))
        reader = OrcReader(fs, "/t/run.orc")
        assert reader.stripes[0].columns[0]["length"] < 100
        assert len(reader.read_all()) == 100_000
        assert len(cluster.orc_cache) == 1          # the footer alone
        assert cluster.orc_cache.used_bytes < 1 * MB


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(CorruptOrcFileError):
            OrcReader(b"this is not an orc file at all..........")

    def test_truncated_file(self):
        data = write_orc(SCHEMA, _rows(10))
        with pytest.raises(CorruptOrcFileError):
            OrcReader(data[:len(data) // 2])

    def test_garbage_footer(self):
        data = bytearray(write_orc(SCHEMA, _rows(10)))
        data[-30] ^= 0xFF
        with pytest.raises(CorruptOrcFileError):
            OrcReader(bytes(data))


def _with_footer(data, mutate):
    """``data`` with its footer replaced by ``mutate(footer)`` (JSON)."""
    tail = len(MAGIC) + 8
    (footer_len,) = struct.unpack("<Q", data[-tail:-len(MAGIC)])
    footer_start = len(data) - tail - footer_len
    footer = mutate(json.loads(data[footer_start:footer_start + footer_len]))
    footer_bytes = json.dumps(footer, separators=(",", ":")).encode("utf-8")
    return (data[:footer_start] + footer_bytes
            + struct.pack("<Q", len(footer_bytes)) + MAGIC)


def _set(footer, path, value):
    """``footer`` with the item at key/index ``path`` set to ``value``."""
    target = footer
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return footer


class TestMalformedFooter:
    """A footer that is valid JSON but not the shape the writer writes
    is a typed error when the file is opened, never a TypeError,
    KeyError or IndexError at the first decode."""

    @staticmethod
    def _open(mutate):
        data = _with_footer(write_orc(SCHEMA, _rows(10), stripe_rows=4),
                            mutate)
        with pytest.raises(CorruptOrcFileError, match="malformed footer"):
            OrcReader(data).read_all()

    def test_list_footer(self):
        self._open(lambda footer: [footer])

    def test_footer_without_stripes(self):
        self._open(lambda footer: {key: value for key, value in
                                   footer.items() if key != "stripes"})

    def test_unknown_column_kind(self):
        self._open(lambda footer: _set(footer, ["schema", 1, 1], "blob"))

    def test_stripe_short_of_columns(self):
        self._open(lambda footer: _set(
            footer, ["stripes", 1, "columns"],
            footer["stripes"][1]["columns"][:-1]))

    @pytest.mark.parametrize("field,value", [("offset", 10 ** 6),
                                             ("length", -1),
                                             ("offset", "0")])
    def test_stream_outside_the_body(self, field, value):
        self._open(lambda footer: _set(
            footer, ["stripes", 0, "columns", 0, field], value))

    def test_row_counts_do_not_add_up(self):
        self._open(lambda footer: _set(footer, ["num_rows"], 11))


def _replace_last_stream(data, mutate):
    """``data`` with its last stripe's last column stream replaced by
    ``mutate(stream)`` and the footer's lengths patched to match."""
    tail = len(MAGIC) + 8
    (footer_len,) = struct.unpack("<Q", data[-tail:-len(MAGIC)])
    footer_start = len(data) - tail - footer_len
    footer = json.loads(data[footer_start:footer_start + footer_len])
    stripe = footer["stripes"][-1]
    column = stripe["columns"][-1]
    start = column["offset"]
    stream = mutate(data[start:start + column["length"]])
    stripe["length"] += len(stream) - column["length"]
    column["length"] = len(stream)
    footer_bytes = json.dumps(footer, separators=(",", ":")).encode("utf-8")
    return (data[:start] + stream + footer_bytes
            + struct.pack("<Q", len(footer_bytes)) + MAGIC)


class TestCorruptStreams:
    """A damaged column stream is a typed error naming where it is,
    never a raw zlib/IndexError and never silently wrong rows."""

    #: name -> (kind, values, stripe_rows).  "long int" is 2-byte
    #: varints in stripes long enough for the lane kernel of
    #: ``decode_int_column``; the 40-value columns take the byte loop.
    COLUMNS = {
        "int": ("int", [(i * 2654435761) % 99991 for i in range(40)], 25),
        "long int": ("int", [(i * i * 7919) % 997 for i in range(400)],
                     250),
        "double": ("double", [i * 1.5 for i in range(40)], 25),
        "string": ("string", ["unique-value-%d" % i for i in range(40)], 25),
        "boolean": ("boolean", [i % 3 == 0 for i in range(40)], 25),
    }

    def _file(self, name, values=None):
        kind, column, stripe_rows = self.COLUMNS[name]
        if values is None:
            values = column
        return write_orc([("pad", "int"), ("c", kind)],
                         [(i, v) for i, v in enumerate(values)],
                         stripe_rows=stripe_rows)

    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_flipped_byte(self, name):
        data = self._file(name)
        for at in (0, 2, -1):
            def flip(stream):
                damaged = bytearray(stream)
                damaged[at] ^= 0x55
                return bytes(damaged)
            reader = OrcReader(_replace_last_stream(data, flip))
            with pytest.raises(CorruptOrcFileError) as err:
                reader.read_all()
            assert "stripe 1" in str(err.value)
            assert "'c'" in str(err.value)

    @pytest.mark.parametrize("with_nulls", [False, True])
    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_truncated_payload_recompressed(self, name, with_nulls,
                                            lane_calls):
        values = list(self.COLUMNS[name][1])
        if with_nulls:
            values[3] = values[30] = None
        data = self._file(name, values)
        for cut in (1, 3, 9):
            reader = OrcReader(_replace_last_stream(
                data, lambda s: zlib.compress(zlib.decompress(s)[:-cut])))
            del lane_calls[:]
            with pytest.raises(CorruptOrcFileError) as err:
                reader.read_all()
            assert "stripe 1" in str(err.value)
            assert "'c'" in str(err.value)
            # stripe 0's column and the damaged one
            assert len(lane_calls) == (2 if name == "long int" else 0)
        # the undamaged column of the same stripe still reads
        assert len(reader.read_all(projection=["pad"])) == len(values)

    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_count_differs_from_stripe_rows(self, name, lane_calls):
        kind, values, stripe_rows = self.COLUMNS[name]
        data = self._file(name)
        rows = len(values) % stripe_rows       # the last stripe's
        for n in (0, rows - 1, rows + 1):
            reader = OrcReader(_replace_last_stream(
                data, lambda s: ENCODERS[kind](values[:n])))
            del lane_calls[:]
            with pytest.raises(CorruptOrcFileError) as err:
                reader.read_all()
            assert "stripe 1" in str(err.value)
            assert "'c'" in str(err.value)
            assert "%d values" % n in str(err.value)
            assert "%d rows" % rows in str(err.value)
            assert len(lane_calls) == (1 + (n > 0) if name == "long int"
                                       else 0)

    def test_error_names_the_path(self):
        cluster = Cluster(ClusterProfile.laptop())
        fs = HdfsFileSystem(cluster)
        data = self._file("int")
        fs.write_file("/t/bad.orc", _replace_last_stream(
            data, lambda s: s[:-4] + b"\x00\x00\x00\x00"))
        with pytest.raises(CorruptOrcFileError, match="/t/bad.orc"):
            OrcReader(fs, "/t/bad.orc").read_all()

    def test_unknown_string_mode_stays_typed(self):
        data = self._file("string")

        def bad_mode(stream):
            raw = bytearray(zlib.decompress(stream))
            raw[1 + 1 + 2] = 9            # count, bitmap length, 2 bitmap bytes
            return zlib.compress(bytes(raw))
        with pytest.raises(OrcError):
            OrcReader(_replace_last_stream(data, bad_mode)).read_all()


@given(st.lists(st.tuples(
    st.one_of(st.none(), st.integers(-10**9, 10**9)),
    st.one_of(st.none(), st.text(max_size=12)),
    st.one_of(st.none(),
              st.floats(allow_nan=False, allow_infinity=False,
                        width=32)),
    st.one_of(st.none(), st.booleans())), max_size=120))
@settings(max_examples=30)
def test_orc_file_roundtrip_property(rows):
    """Whole-file invariant: write → read == identity (arbitrary rows)."""
    data = write_orc(SCHEMA, rows, stripe_rows=17)
    got = [v for _, v in OrcReader(data).rows()]
    assert got == rows
