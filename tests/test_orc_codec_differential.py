"""Byte identity of the bulk ORC codec kernels against the per-value oracle.

``tests/orc_reference.py`` is the codec as it stood before the kernels
(per-value varints, bit-by-bit bitmaps, ``write_row`` per row).  The
kernels may only be faster: every encoded stream and every file must be
the same *bytes*, and every decoded column the same values of the same
element types.  The ledger, the ``(path, len, crc32)`` cache keys, the
simulated clock and the paper figures all hang off those bytes.

The only inputs whose bytes are allowed to differ are the two
``_zigzag`` overflow cases (a value or a delta >= 2**63): the oracle
corrupts them silently, the kernels round-trip them.  The generators
below therefore stay inside +-2**62 and ``TestZigzagOverflow`` says so.
"""

import random
import zlib
from itertools import accumulate

import pytest

from repro.common.errors import OrcError
from repro.orc import OrcReader, OrcWriter, write_orc
from repro.orc import encodings as kernels
from tests import orc_reference as oracle
from tests.orc_reference import ReferenceOrcWriter, reference_write_orc

KINDS = ("int", "double", "string", "boolean")
LENGTHS = (0, 1, 7, 8, 9, 15, 16, 17)


# ----------------------------------------------------------------------
# Adversarial columns.
# ----------------------------------------------------------------------
def _int_columns(rng):
    big = 2 ** 62                     # deltas stay below the oracle's bug
    alternating = []
    for _ in range(12):               # run - literal - run - ...
        first, delta = rng.randrange(-999, 999), rng.randrange(-4, 5)
        alternating += [first + delta * k for k in range(rng.randrange(3, 7))]
        alternating += [rng.randrange(-10 ** 6, 10 ** 6)
                        for _ in range(rng.randrange(0, 4))]
    return {
        "sequential": list(range(1000, 1300)),
        "constant": [7] * 200,
        "negative-delta": list(range(500, -500, -3)),
        "runs-of-2": [v for k in range(60) for v in (k * 10, k * 10)],
        "runs-of-3": [v for k in range(60) for v in (k * 7,) * 3],
        "run-literal-run": alternating,
        "small": [rng.randrange(-60, 60) for _ in range(300)],
        "7-bit-edge": [rng.choice((-64, 63, -65, 64, 0)) for _ in range(200)],
        "3-byte-varints": [rng.randrange(2 ** 14, 2 ** 20)
                           for _ in range(300)],
        "9-byte-varints": [rng.randrange(-big, big) for _ in range(300)],
        "int64-edges": [rng.choice((0, 1, -1, 2 ** 61, -2 ** 61, big - 1,
                                    -big)) // 2 for _ in range(200)],
        "bools-as-ints": [rng.choice((True, False, 3)) for _ in range(50)],
        # Shapes for the lane kernel of ``decode_int_column`` and for
        # both sides of its selection (see TestLaneKernelSelection).
        "2-byte-literals": [rng.randrange(1000) for _ in range(700)],
        "2-byte-edge": _two_byte_edge(),
        "wide-over-1-in-16": [rng.randrange(1000) + (k % 5 == 0) * 2 ** 16
                              for k in range(600)],
        "lane-95-bytes": _alternating(46, first=100),
        "lane-96-bytes": _alternating(47, first=5),
        "lane-with-nulls": [None if k % 7 == 3 else rng.randrange(1000)
                            for k in range(800)],
        **{"%d-byte-varint-at-%s" % (width, where):
           _one_wide(rng, width, at)
           for width in (3, 4, 10)
           for where, at in (("first", 0), ("middle", 300), ("last", 599))},
    }


def _alternating(n, first):
    """``n`` values, deltas +100 and -99 by turns: one literal block of
    2-byte varints after a ``first`` value encoded against 0."""
    return list(accumulate([first] + [100, -99] * (n // 2)))[:n]


def _two_byte_edge():
    """One literal block of deltas -8192 and 8191 (the widest 2-byte
    varints) by turns, every tenth -8193 or 8192 (the narrowest 3-byte
    ones)."""
    deltas = [(-8192, 8191)[k % 2] for k in range(400)]
    deltas[::20] = [-8193] * 20
    deltas[10::20] = [8192] * 20
    return list(accumulate(deltas))


#: a shift that makes one delta a varint of the given width in bytes.
_WIDE_SHIFT = {3: 2 ** 15, 4: 2 ** 20 + 1000, 10: -(2 ** 62)}


def _one_wide(rng, width, at):
    """600 values of 2-byte varints but for one ``width``-byte delta at
    index ``at`` (the values from ``at`` on are shifted, so no other
    delta is wide; a rare run's first value may be).  Inside +-2**62 a
    10-byte zigzag needs a delta below -2**62, so that one is never the
    block's first value, which is encoded against 0: index 0 means 1."""
    column = [rng.randrange(1000) for _ in range(600)]
    if width == 10:
        at = max(at, 1)
        column[at - 1], column[at] = 999, rng.randrange(999)
    return column[:at] + [v + _WIDE_SHIFT[width] for v in column[at:]]


def _double_columns(rng):
    special = (0.0, -0.0, float("inf"), float("-inf"), float("nan"),
               5e-324, 1.7976931348623157e308)
    return {
        "random": [rng.uniform(-1e9, 1e9) for _ in range(300)],
        "special": [rng.choice(special) for _ in range(200)],
        "ints-and-bools": [rng.choice((3, True, -7, 2.5))
                           for _ in range(100)],
        "eighths": [k / 8.0 for k in range(300)],
        "numeric-strings": [rng.choice(("1.5", "-2", 3.25))
                            for _ in range(50)],
    }


def _string_columns(rng):
    def words(n_distinct, n, alphabet="abcdefgh", max_len=6):
        pool = ["".join(rng.choice(alphabet)
                        for _ in range(rng.randrange(0, max_len))) + str(i)
                for i in range(n_distinct)]
        return pool + [rng.choice(pool) for _ in range(n - n_distinct)]

    return {
        "dict-1": words(1, 100),
        "dict-16": words(16, 40),
        "dict-17-of-33": words(17, 33),      # just over max(16, n // 2)
        "dict-128": words(128, 600),
        "dict-129": words(129, 600),
        "dict-300": words(300, 900),
        "direct-unique": ["user-%d-%d" % (i, rng.randrange(10 ** 6))
                          for i in range(300)],
        "empty-strings": [rng.choice(("", "a")) for _ in range(100)],
        "non-ascii-dict": words(20, 200, alphabet="aé中\U0001F600"),
        "non-ascii-direct": ["é中%d" % i for i in range(100)],
        "127-128-bytes": ["x" * rng.choice((126, 127, 128, 129)) + str(i)
                          for i in range(60)],
        "long-dict": words(5, 100, alphabet="xy", max_len=400),
        "nul-and-del": [rng.choice(("\x00", "\x7f", "\x00\x7f")) + str(i % 9)
                        for i in range(100)],
    }


def _boolean_columns(rng):
    return {
        "bools": [rng.random() < 0.5 for _ in range(300)],
        "all-true": [True] * 100,
        "all-false": [False] * 100,
        "truthy": [rng.choice((True, False, 1, 0, 2, "x", "", 0.0, 1.5))
                   for _ in range(200)],
    }


GENERATORS = {"int": _int_columns, "double": _double_columns,
              "string": _string_columns, "boolean": _boolean_columns}


def _with_nulls(rng, values):
    """The column as is, all NULL, and with NULLs at two densities."""
    yield "no-null", values
    yield "all-null", [None] * len(values)
    for density in (0.02, 0.5):
        yield ("null-%g" % density,
               [None if rng.random() < density else v for v in values])


def adversarial_columns(kind, seed):
    rng = random.Random(seed)
    for label, values in GENERATORS[kind](rng).items():
        for null_label, column in _with_nulls(rng, values):
            yield "%s/%s" % (label, null_label), column
        for n in LENGTHS:
            yield "%s/len-%d" % (label, n), values[:n]
            if n:
                holed = list(values[:n])
                holed[rng.randrange(n)] = None
                yield "%s/len-%d-one-null" % (label, n), holed


def _typed(column):
    # repr tells -0.0 from 0.0 and lets NaN equal itself; the type tells
    # True from 1.
    return [(type(v), repr(v)) for v in column]


def assert_same_codec(kind, label, column):
    stream = kernels.ENCODERS[kind](column)
    expected = oracle.ENCODERS[kind](column)
    assert stream == expected, "%s %s: stream bytes differ" % (kind, label)
    # what the writer passes: the non-NULL pass and set it already made
    non_null = kernels.non_null_values(column)
    assert kernels.ENCODERS[kind](column, non_null,
                                  set(non_null)) == expected, label
    decoded = kernels.DECODERS[kind](expected)
    assert _typed(decoded) == _typed(oracle.DECODERS[kind](expected)), (
        "%s %s: decoded column differs" % (kind, label))
    return decoded


# ----------------------------------------------------------------------
# Streams.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
def test_streams_and_decoded_columns_identical(kind):
    checked = 0
    for label, column in adversarial_columns(kind, seed=20150413):
        decoded = assert_same_codec(kind, label, column)
        if kind in ("int", "string"):
            assert decoded == column, label
        checked += 1
    assert checked > 50


def test_bitmap_of_100000_flags():
    # int(text, 2) must not hit the interpreter's int-digit limit.
    rng = random.Random(3)
    column = [None if rng.random() < 0.3 else True for _ in range(100000)]
    assert_same_codec("boolean", "100k", column)


def test_tuple_columns_encode_like_lists():
    for kind, column in (("int", (5, 1, 2, 3, 9)), ("double", (1.5, 2.5)),
                         ("string", ("a", "b", "a")),
                         ("boolean", (True, False))):
        assert (kernels.ENCODERS[kind](column)
                == oracle.ENCODERS[kind](list(column)))


class TestZigzagOverflow:
    """The one place the kernels are *allowed* to differ from the oracle:
    ``(n << 1) ^ (n >> 63)`` is wrong for n >= 2**63, and a delta between
    two valid BIGINTs can be that large."""

    CASES = ([-(2 ** 62), 2 ** 62], [2 ** 63])

    @pytest.mark.parametrize("column", CASES)
    def test_kernels_round_trip(self, column):
        stream = kernels.encode_int_column(column)
        assert kernels.decode_int_column(stream) == column

    @pytest.mark.parametrize("column", CASES)
    def test_oracle_corrupts_them(self, column):
        # Documented defect of the reference; if this ever fails the
        # exclusion above can go.
        stream = oracle.encode_int_column(column)
        assert oracle.decode_int_column(stream) != column
        assert stream != kernels.encode_int_column(column)

    def test_just_below_the_overflow_bytes_still_agree(self):
        for column in ([2 ** 63 - 1], [-(2 ** 63)],
                       [-(2 ** 62), 2 ** 62 - 1]):      # delta 2**63 - 1
            assert assert_same_codec("int", "edge", column) == column


# ----------------------------------------------------------------------
# The lane kernel of decode_int_column.
# ----------------------------------------------------------------------
def _body(column):
    """The varint body of ``column``'s int stream (after the bitmap)."""
    raw = zlib.decompress(kernels.encode_int_column(column))
    return raw[kernels._read_header(raw)[2]:]


def _oracle_zigzags(data):
    """Per value: the oracle's ``read_varint`` and ``_unzigzag``; a
    truncated last varint is dropped."""
    out, pos = [], 0
    while pos < len(data):
        try:
            z, pos = oracle.read_varint(data, pos)
        except IndexError:
            break
        out.append(oracle._unzigzag(z))
    return out


LANE = ["runs-of-3", "small", "7-bit-edge", "2-byte-literals", "2-byte-edge",
        "lane-96-bytes", "lane-with-nulls"] + [
    "%d-byte-varint-at-%s" % (width, where)
    for width in (3, 4, 10) for where in ("first", "middle", "last")]
LOOP = ["sequential", "constant", "runs-of-2", "run-literal-run",
        "3-byte-varints", "9-byte-varints", "wide-over-1-in-16",
        "lane-95-bytes"]


class TestLaneKernelSelection:
    """A body of >= 96 bytes, not all ASCII, with at most one varint of
    3+ bytes per 16 bytes takes the lane kernel; any other the byte
    loop.  The shapes of ``_int_columns`` sit on both sides."""

    COLUMNS = _int_columns(random.Random(20150413))

    @pytest.mark.parametrize("label", LANE + LOOP)
    def test_path_and_values(self, label, lane_calls):
        column = self.COLUMNS[label]
        assert assert_same_codec("int", label, column) == column
        assert bool(lane_calls) == (label in LANE)

    def test_shapes_are_what_their_labels_say(self):
        assert len(_body(self.COLUMNS["lane-95-bytes"])) == 95
        assert len(_body(self.COLUMNS["lane-96-bytes"])) == 96
        for width in (3, 4, 10):
            for where in ("first", "middle", "last"):
                ends = _body(self.COLUMNS["%d-byte-varint-at-%s"
                                          % (width, where)]).translate(
                    kernels._ENDS)
                # the widest varint is width bytes long
                assert b"\x00" * (width - 1) + b"\x01" in ends
                assert b"\x00" * width not in ends

    def test_dirty_scan_stripe_takes_the_lane_kernel(self, lane_calls):
        """A 1 000-row stripe of perfbench's ``dirty_scan`` value column
        (uniform in 0..999) must keep its bulk decode."""
        rng = random.Random(1)
        column = [rng.randrange(1000) for _ in range(1000)]
        assert assert_same_codec("int", "dirty_scan", column) == column
        assert lane_calls == [len(_body(column))]

    @pytest.mark.parametrize("tail", [b"", b"\x80", b"\xff\x80",
                                      b"\x85\x80\x80"])
    @pytest.mark.parametrize("label", LANE + LOOP)
    def test_kernel_matches_per_value_oracle(self, label, tail):
        """Both paths read every varint of any body, a trailing
        truncated one dropped, like the oracle."""
        data = _body(self.COLUMNS[label]) + tail
        expected = _oracle_zigzags(data)
        assert list(kernels._read_zigzags(data)) == expected
        assert list(kernels._lane_zigzags(
            data, data.translate(kernels._ENDS))) == expected

    def test_kernel_on_random_bodies(self):
        """Whatever the bytes, the lane kernel reads what the oracle
        does: continuation runs of any length, at either end."""
        rng = random.Random(35)
        for trial in range(300):
            more = rng.choice((0.1, 0.3, 0.5, 0.9))
            data = bytes(rng.randrange(128) | (rng.random() < more) * 128
                         for _ in range(rng.randrange(200)))
            assert list(kernels._lane_zigzags(
                data, data.translate(kernels._ENDS))) == _oracle_zigzags(
                    data), (trial, data)


# ----------------------------------------------------------------------
# Files.
# ----------------------------------------------------------------------
SCHEMA = [("k", "int"), ("name", "string"), ("w", "double"),
          ("flag", "boolean"), ("note", "string")]


def _rows(rng, n, null_density=0.05):
    def maybe(v):
        return None if rng.random() < null_density else v
    return [(maybe(k if rng.random() < 0.9 else rng.randrange(10 ** 9)),
             maybe("g%d" % (k % 12)),
             maybe(rng.choice((k / 8.0, -0.0, 0.0, float("inf")))),
             maybe(rng.random() < 0.5),
             maybe("né%d" % k if k % 40 == 0 else "n%d" % rng.randrange(10 ** 6)))
            for k in range(n)]


@pytest.mark.parametrize("stripe_rows", (1, 7, 16, 100, 5000))
@pytest.mark.parametrize("null_density", (0.0, 0.05))
def test_file_bytes_identical(stripe_rows, null_density):
    rows = _rows(random.Random(stripe_rows), 333, null_density)
    data = write_orc(SCHEMA, rows, stripe_rows=stripe_rows,
                     metadata={"file_id": 9})
    assert data == reference_write_orc(SCHEMA, rows, stripe_rows=stripe_rows,
                                       metadata={"file_id": 9})
    assert ([_typed(values) for _, values in OrcReader(data).rows()]
            == [_typed(row) for row in rows])


def test_file_bytes_identical_for_equal_but_distinct_stats_values():
    # min/max/ndv see 1 == True == 1.0 and 0.0 == -0.0; the footer JSON
    # must still print the same representative.
    rows = [(True, "a", -0.0, 1, "x"), (1, "a", 0.0, True, "x"),
            (0, "b", 0.0, 0, "y"), (False, "b", -0.0, False, "y")]
    for order in (rows, rows[::-1]):
        assert (write_orc(SCHEMA, order)
                == reference_write_orc(SCHEMA, order))


def test_write_rows_accepts_any_iterable():
    rows = _rows(random.Random(5), 50)
    expected = reference_write_orc(SCHEMA, rows, stripe_rows=16)
    assert write_orc(SCHEMA, iter(rows), stripe_rows=16) == expected
    assert write_orc(SCHEMA, [list(r) for r in rows],
                     stripe_rows=16) == expected


def test_interleaved_write_row_and_write_rows_cut_the_same_stripes():
    rng = random.Random(11)
    rows = _rows(rng, 200)
    for trial in range(20):
        new = OrcWriter(SCHEMA, stripe_rows=16)
        ref = ReferenceOrcWriter(SCHEMA, stripe_rows=16)
        pos = 0
        while pos < len(rows):
            if rng.random() < 0.5:
                for writer in (new, ref):
                    writer.write_row(rows[pos])
                pos += 1
            else:
                # 0, a few, exactly to the boundary, or across several
                n = rng.choice((0, 3, 16 - pos % 16, 16, 40))
                for writer in (new, ref):
                    writer.write_rows(rows[pos:pos + n])
                pos += n
        assert new.num_rows == ref.num_rows == len(rows)
        assert new.finish() == ref.finish(), trial


def test_bad_arity_in_the_middle_of_a_bulk_write():
    rows = _rows(random.Random(2), 40, null_density=0)
    rows[25] = rows[25][:3]
    new = OrcWriter(SCHEMA, stripe_rows=16)
    ref = ReferenceOrcWriter(SCHEMA, stripe_rows=16)
    messages = []
    for writer in (new, ref):
        with pytest.raises(OrcError) as err:
            writer.write_rows(rows)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "row arity 3 != schema arity 5"
    # the rows before the bad one are written, as row-at-a-time left them
    assert new.num_rows == ref.num_rows == 25
    assert new.finish() == ref.finish()


def test_write_rows_after_finish():
    writer = OrcWriter(SCHEMA)
    writer.finish()
    writer.write_rows([])                      # nothing to reject
    with pytest.raises(OrcError, match="already finished"):
        writer.write_rows(_rows(random.Random(1), 2))


def test_empty_projection_yields_one_empty_tuple_per_row():
    rows = _rows(random.Random(4), 45)
    reader = OrcReader(write_orc(SCHEMA, rows, stripe_rows=20))
    assert reader.read_all(projection=[]) == [(i, ()) for i in range(45)]
    second_stripe_on = reader.read_all(
        projection=[], row_spans={1: [(20, 40)], 2: [(40, 45)]})
    assert second_stripe_on == [(i, ()) for i in range(20, 45)]


def test_rows_match_reference_row_building():
    rows = _rows(random.Random(8), 90)
    reader = OrcReader(write_orc(SCHEMA, rows, stripe_rows=32))
    got = reader.read_all(projection=["w", "k"])
    assert [rn for rn, _ in got] == list(range(90))
    assert all(type(values) is tuple for _, values in got)
    assert ([(type(w), repr(w), k) for _, (w, k) in got]
            == [(type(r[2]), repr(r[2]), r[0]) for r in rows])


# ----------------------------------------------------------------------
# The larger fuzz (CI: slow-tests job).
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("kind", KINDS)
def test_fuzz_streams(kind):
    rng = random.Random(777)
    for seed in range(25):
        for label, column in adversarial_columns(kind, seed):
            assert_same_codec(kind, "seed %d %s" % (seed, label), column)
    for _ in range(300):                   # spliced columns, long ones too
        pieces = [list(rng.choice(list(GENERATORS[kind](rng).values())))
                  for _ in range(rng.randrange(1, 4))]
        column = [v for piece in pieces for v in piece]
        cut = rng.randrange(len(column) + 1)
        column = column[cut:] + column[:cut]
        density = rng.choice((0, 0, 0.01, 0.3))
        column = [None if rng.random() < density else v for v in column]
        assert_same_codec(kind, "spliced", column)


@pytest.mark.slow
def test_fuzz_files():
    rng = random.Random(778)
    for trial in range(60):
        rows = _rows(rng, rng.randrange(0, 400), rng.choice((0, 0.02, 0.4)))
        stripe_rows = rng.choice((1, 5, 16, 64, 5000))
        assert (write_orc(SCHEMA, rows, stripe_rows=stripe_rows)
                == reference_write_orc(SCHEMA, rows, stripe_rows=stripe_rows))
