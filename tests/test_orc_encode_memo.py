"""The writer's file memo: a hit returns the bytes a fresh build writes.

``repro.orc.writer.write_orc`` keeps one process-wide memo from a file's
content (schema, rows, stripe size, metadata) to its bytes.  A file's
first sighting only marks it, the second stores it, and every later copy
is a hit.  Each test below therefore writes a file at least three times
and holds every write to ``tests/orc_reference.py`` (or, where that
oracle is known to be wrong, to the first write, which never touches the
memo).
"""

import enum
import math
import random
import sys
import threading
from collections import namedtuple

import pytest

from repro.bench import experiments
from repro.orc import OrcReader, write_orc
from repro.orc import encodings as kernels
from repro.orc import writer
from tests.orc_reference import reference_write_orc

WRITES = 3


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    memo = writer._FileMemo()
    monkeypatch.setattr(writer, "_FILE_MEMO", memo)
    return memo


@pytest.fixture
def built(monkeypatch):
    """The bytes of every file ``OrcWriter`` built while the test runs."""
    files = []

    class CountingWriter(writer.OrcWriter):
        def finish(self):
            files.append(super().finish())
            return files[-1]

    monkeypatch.setattr(writer, "OrcWriter", CountingWriter)
    return files


@pytest.fixture
def encoder_calls(monkeypatch):
    """Encoder calls, as ``(kind, values)`` pairs, while the test runs."""
    calls = []

    def counted(kind, encode):
        def call(values, *rest):
            calls.append((kind, tuple(values)))
            return encode(values, *rest)
        return call

    monkeypatch.setattr(writer, "ENCODERS", {
        kind: counted(kind, encode)
        for kind, encode in writer.ENCODERS.items()})
    return calls


def _rows(values):
    return [(v,) for v in values]


def _writes(kind, values):
    return [write_orc([("c", kind)], _rows(values)) for _ in range(WRITES)]


def _typed(values):
    return [(type(v), repr(v)) for v in values]


def assert_hits_write_parent_bytes(kind, columns, oracle=True):
    """Each column three times in order, then three times in reverse
    order (all hits by then): every write equals the oracle's bytes, or
    the first write's when ``oracle`` is False (and then decodes to the
    column)."""
    for order in (columns, columns[::-1]):
        for values in order:
            writes = _writes(kind, values)
            if oracle:
                expected = reference_write_orc([("c", kind)], _rows(values))
            else:
                expected = writes[0]
                decoded = [row[0] for _, row in OrcReader(expected).rows()]
                assert _typed(decoded) == _typed(values), (kind, values)
            assert writes == [expected] * WRITES, (kind, values)


# ----------------------------------------------------------------------
# Hostile columns.
# ----------------------------------------------------------------------
def test_booleans_and_null(encoder_calls):
    columns = [[None], [True], [False], [None, True], [True, None],
               [False, None]]
    assert_hits_write_parent_bytes("boolean", columns)
    # the reverse pass found every file stored
    assert len(encoder_calls) == 2 * len(columns)


def test_bool_in_an_int_column_is_not_one():
    assert_hits_write_parent_bytes("int", [[1], [True], [1, 0], [True, False]])


def test_int_in_a_double_column_and_signed_zero():
    assert_hits_write_parent_bytes(
        "double", [[3], [3.0], [0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0],
                   [1, 2.5], [1.0, 2.5]])


def test_nan_columns():
    nan = float("nan")
    one_object, two_objects = [nan, nan], [float("nan"), float("nan")]
    # Same bits, different ndv: set() dedups the same NaN object only.
    assert len(set(one_object)) != len(set(two_objects))
    assert_hits_write_parent_bytes(
        "double", [[nan], one_object, two_objects, [nan, 1.0],
                   [math.inf, -math.inf], [-nan, None]])


def test_nan_file_is_not_stored(fresh_memo):
    nan = float("nan")
    for values in ([nan], [1.0, nan], [math.inf, -math.inf]):
        assert_hits_write_parent_bytes("double", [values])
    assert fresh_memo.used == 0 and not fresh_memo._entries
    assert_hits_write_parent_bytes("double", [[1.0, 2.0]])
    assert len(fresh_memo._entries) == 1


def test_nan_identity_in_a_boolean_column():
    # No sum, so no NaN-sum veto: the key itself must tell one NaN object
    # written twice (ndv 1) from two NaN objects (ndv 2).
    nan = float("nan")
    columns = [[nan, nan], [float("nan"), float("nan")],
               [True, nan, nan], [True, float("nan"), float("nan")]]
    for order in (columns, columns[::-1]):
        for values in order:
            expected = reference_write_orc([("c", "boolean")],
                                           _rows(values))
            assert _writes("boolean", values) == [expected] * WRITES
    assert len({reference_write_orc([("c", "boolean")], _rows(values))
                for values in columns}) == len(columns)


def test_int64_edges_and_beyond():
    # The oracle's zigzag corrupts values and deltas >= 2**63, so those
    # columns are held to the first, memo-free write instead.
    inside = [[2 ** 63 - 1], [-(2 ** 63)], [2 ** 62 - 1, -(2 ** 62)]]
    beyond = [[2 ** 63], [-(2 ** 63) - 1], [2 ** 64], [-(2 ** 62), 2 ** 62],
              [2 ** 63 - 1, 2 ** 63], [10 ** 30, None]]
    assert_hits_write_parent_bytes("int", inside)
    assert_hits_write_parent_bytes("int", beyond, oracle=False)


def test_string_boundaries_and_unicode():
    assert_hits_write_parent_bytes(
        "string", [["ab", "c"], ["a", "bc"], ["abc"], ["", "abc"],
                   ["abc", ""], ["é", "中", "\U0001F600"],
                   ["\U0001F600"], ["x" * 127 + "é"] * 3])


@pytest.mark.parametrize("kind,values", [
    ("int", [1.5]), ("int", [1, 2.0]), ("int", [None, 3.25]),  # float in INT
    ("string", ["\ud800"]), ("string", ["a", "\udfff"]),   # lone surrogates
    ("string", ["\ud83d", "\ude00"]),
    ("string", ["a", ["b"]]), ("int", [1, {}]), ("double", [[1.0]]),
])
def test_rejected_columns_raise_todays_error_every_time(kind, values):
    with pytest.raises(Exception) as today:
        # the writer's steps for one column without the memo
        non_null = kernels.non_null_values(values)
        distinct = set(non_null)
        kernels.ENCODERS[kind](values, non_null, distinct)
    for _ in range(WRITES):
        with pytest.raises(today.type) as err:
            write_orc([("c", kind)], _rows(values))
        assert str(err.value) == str(today.value)


def test_nulls_at_different_positions():
    for kind, a, b in (("int", 1, 2), ("double", 1.5, 2.5),
                       ("string", "a", "b"), ("boolean", True, False)):
        assert_hits_write_parent_bytes(
            kind, [[a, None, b], [None, a, b], [a, b, None], [a, b],
                   [None, None, a, b], [None, None]])


def test_empty_columns():
    for kind in ("int", "double", "string", "boolean"):
        assert_hits_write_parent_bytes(kind, [[]])


def test_an_iterator_written_three_times():
    rows = [(k, "s%d" % (k % 5)) for k in range(50)]
    schema = [("k", "int"), ("s", "string")]
    expected = reference_write_orc(schema, rows, stripe_rows=16)
    for _ in range(WRITES):
        assert write_orc(schema, iter(rows), stripe_rows=16) == expected
        assert write_orc(schema, (row for row in rows),
                         stripe_rows=16) == expected


def test_equal_rows_in_another_file_never_share_bytes():
    rows = [(k, "v%d" % k) for k in range(20)]
    variants = [
        ([("k", "int"), ("v", "string")], 5000, None),
        ([("k", "int"), ("v", "string")], 5000, {"file_id": 1}),
        ([("k", "int"), ("v", "string")], 5000, {"file_id": 2}),
        ([("k", "int"), ("v", "string")], 7, {"file_id": 1}),
        ([("key", "int"), ("v", "string")], 5000, {"file_id": 1}),
    ]
    expected = [reference_write_orc(schema, rows, stripe_rows=stripe_rows,
                                    metadata=metadata)
                for schema, stripe_rows, metadata in variants]
    assert len(set(expected)) == len(variants)
    for _ in range(WRITES):
        for (schema, stripe_rows, metadata), want in zip(variants,
                                                         expected):
            assert write_orc(schema, rows, stripe_rows=stripe_rows,
                             metadata=metadata) == want


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    pass


Pair = namedtuple("Pair", "k s")


@pytest.mark.parametrize("rows", [
    [[1, "a"], [2, "b"]],                          # list rows
    [(Level.LOW, "a"), (Level.HIGH, "b")],         # IntEnum values
    [(1, Tag("a")), (2, Tag("b"))],                # str-subclass values
    [Pair(1, "a"), Pair(2, "b")],                  # tuple-subclass rows
    [(1, "a"), [2, "b"]],                          # a list row among tuples
])
def test_non_builtin_rows_write_todays_bytes_every_time(rows, fresh_memo):
    schema = [("k", "int"), ("s", "string")]
    expected = reference_write_orc(schema, rows)
    for _ in range(WRITES):
        assert write_orc(schema, rows) == expected
    assert not fresh_memo._entries


@pytest.mark.parametrize("rows", [
    [[1, "a"], [2]],                               # list rows, bad arity
    [(Level.LOW, ["a"])],                          # unhashable value
    [(Level.LOW, 1.5)],                            # a float in the STRING
    [(1.5, Tag("a"))],                             # a float in the INT
])
def test_non_builtin_rows_raise_todays_error_every_time(rows):
    schema = [("k", "int"), ("s", "string")]
    with pytest.raises(Exception) as today:
        builder = writer.OrcWriter(schema)       # no memo on this path
        builder.write_rows(rows)
        builder.finish()
    for _ in range(WRITES):
        with pytest.raises(today.type) as err:
            write_orc(schema, rows)
        assert str(err.value) == str(today.value)


def test_multi_stripe_file_with_repeated_stripes():
    rows = [(k % 4, "g%d" % (k % 3), k / 8.0, k % 2 == 0)
            for k in range(40)] * 3
    schema = [("k", "int"), ("s", "string"), ("w", "double"),
              ("f", "boolean")]
    expected = reference_write_orc(schema, rows, stripe_rows=8)
    for _ in range(WRITES):
        assert write_orc(schema, rows, stripe_rows=8) == expected


# ----------------------------------------------------------------------
# The bound and concurrent writers.
# ----------------------------------------------------------------------
def test_stored_bytes_stay_under_the_bound(monkeypatch, fresh_memo):
    monkeypatch.setattr(writer, "MEMO_BYTES", 4096)
    rng = random.Random(5)
    columns = [[rng.randrange(10 ** 9) for _ in range(60)]
               for _ in range(40)]
    for values in columns:
        _writes("int", values)
        stored = list(map(len, fresh_memo._entries.values()))
        assert fresh_memo.used == sum(stored) <= writer.MEMO_BYTES
    assert 0 < len(fresh_memo._entries) < len(columns)
    # an evicted file is built afresh, to the same bytes
    assert_hits_write_parent_bytes("int", columns[:3])


def test_four_threads_write_identical_bytes(fresh_memo):
    rng = random.Random(9)
    files = []
    for n in (1, 5, 64, 300):
        rows = [(rng.randrange(50), "s%d" % rng.randrange(20),
                 rng.choice((None, rng.random())), rng.random() < 0.5)
                for _ in range(n)]
        files.append(rows)
    schema = [("k", "int"), ("s", "string"), ("w", "double"),
              ("f", "boolean")]
    expected = [reference_write_orc(schema, rows, stripe_rows=32)
                for rows in files]
    results = [[] for _ in range(4)]

    def work(out):
        for _ in range(15):
            out.append([write_orc(schema, rows, stripe_rows=32)
                        for rows in files])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,))
                   for out in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for out in results:
        assert out == [expected] * 15
    # a file two threads stored at once is counted once (a racing
    # reference can change its marshalled key: a second entry, same bytes)
    assert set(fresh_memo._entries.values()) == set(expected)
    assert fresh_memo.used == sum(map(len, fresh_memo._entries.values()))


# ----------------------------------------------------------------------
# The gain, as a count.
# ----------------------------------------------------------------------
def test_fig5_builds_each_distinct_file_at_most_twice(monkeypatch, built,
                                                      fresh_memo):
    # The sweep resets the system before every data point, so the same
    # rows are loaded into the same file IDs again and again (984 files
    # written, 102 distinct).
    calls = []
    get = fresh_memo.get

    def counted(key):
        calls.append(key)
        return get(key)

    monkeypatch.setattr(fresh_memo, "get", counted)
    monkeypatch.setattr(experiments, "_SWEEP_CACHE", {})
    experiments.fig5("tiny")
    distinct = set(built)
    assert len(distinct) > 100
    assert len(built) <= 2 * len(distinct)
    assert len(calls) > 8 * len(distinct)
