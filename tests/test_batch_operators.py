"""Batch SELECT operators against their row-at-a-time oracles.

The map side (whole-batch projection, grouped folds, batch join map) is
held to what the row engine returned before it was deleted
(``tests/golden.py``): rows *as returned* (``repr``, so ``1`` / ``1.0``
/ ``True`` and NaN count), the statement's ledger delta, simulated
seconds and every job's ``shuffle_bytes`` must be identical for workers
1/4 and ``batch_rows`` 64/default.  The other operators have their own
references here: ORDER BY / LIMIT against the stable ``_NullsLast``
sort it replaced, joins against a nested-loop join, the shuffle against
the un-memoised partitioner, ``fold`` against ``add_value``.

The only statements whose results may differ from the commit before
this file are the ones that were wrong there, and each says so where it
appears: join keys that are equal but of different numeric type
(``stable_hash`` sent them to different reducers) and ORDER BY keys that
are not unqualified output names (they were silently ignored).
"""

import heapq

import pytest

from repro.cluster import Cluster, ClusterProfile
from repro.faults import Fault, FaultPlan
from repro.hive import HiveSession
from repro.hive.aggregates import AggregateSpec
from repro.hive.executor import _NullsLast, _sort_column
from repro.mapreduce import (InputSplit, Job, JobRunner,
                             estimate_record_bytes, stable_hash)
from repro.mapreduce.runner import _reduce_sort_key

from tests.golden import digest, golden, jsonable

NAN = float("nan")
#: float addends whose sum depends on the order of addition
FLOATS = [1e16, 1.0, -1e16, 0.1, 3.3, None, 1e-3, 2.5e15, -7.25, 0.2]


def fact_rows(n=300):
    rows = []
    for k in range(n):
        if k % 11 == 3:
            g = None                            # NULL group / sort key
        elif k >= 70 and k % 13 == 0:
            g = "late"              # first seen in a task's second batch
        else:
            g = "g%d" % (k % 4)
        y = NAN if k % 17 == 5 else (None if k % 19 == 7
                                     else ((k * 37) % 23) / 4.0)
        rows.append((k, g, k % 70,              # m: 70 groups in one task
                     FLOATS[k % len(FLOATS)], y, k % 3 == 0,
                     "s%02d" % ((k * 7) % 41)))
    return rows


FACT = fact_rows()
LEFT = [(i, None if i % 4 == 0 else i % 5, "l%d" % i) for i in range(24)]
RIGHT = [(i, None if i % 3 == 0 else i % 5, i * 10, float(i % 5))
         for i in range(18)]

MIXED_KEY = ("CASE WHEN k % 3 = 0 THEN 1 WHEN k % 3 = 1 THEN 1.0 "
             "ELSE true END")
MIXED_SORT = "CASE WHEN k % 2 = 0 THEN k ELSE s END"
COLS = "k, g, m, x, y, b, s"

GROUP_QUERIES = [
    # NULL group key; min/max/count over mixed NULLs; order-sensitive sums.
    "SELECT g, count(*), count(x), sum(x), avg(x), min(x), max(x), "
    "min(y), max(g) FROM f GROUP BY g",
    # >= 65 groups out of one task: the first-64 shuffle sample is
    # order-sensitive.
    "SELECT m, count(*), sum(x), avg(x), sum(k) FROM f GROUP BY m",
    # 1 / 1.0 / True in one key column: one group, first-seen key.
    "SELECT %s, count(*), sum(k) FROM f GROUP BY %s" % (MIXED_KEY, MIXED_KEY),
    "SELECT g, m %% 2, %s, count(DISTINCT s), min(s), max(s) FROM f "
    "GROUP BY g, m %% 2, %s" % (MIXED_KEY, MIXED_KEY),
    "SELECT count(DISTINCT m), sum(DISTINCT m), count(DISTINCT g), "
    "avg(DISTINCT m), count(DISTINCT x) FROM f",
    "SELECT count(*), count(x), sum(x), avg(x), min(x), max(x), sum(k), "
    "min(g) FROM f",
    # a global aggregate over zero rows yields one row
    "SELECT count(*), sum(x), avg(x), min(k), max(g) FROM f WHERE k < 0",
    "SELECT g, sum(x) FROM f WHERE k < 0 GROUP BY g",
    # Two AVGs that never see a value keep sharing the init() tuple,
    # which the pickled shuffle-size sample memoises (shuffle bytes
    # moved, rows did not).
    "SELECT m, avg(x), avg(y) FROM f WHERE k = 45 GROUP BY m",
    "SELECT g, count(*) AS c FROM f GROUP BY g HAVING count(*) > 20",
    # ORDER BY an aggregate that is not in the select list (was ignored).
    "SELECT g FROM f GROUP BY g ORDER BY count(*) DESC, g",
    "SELECT d.g, sum(d.x), avg(d.k) FROM (SELECT k, g, x FROM f "
    "WHERE k % 2 = 1) d GROUP BY d.g",
]

JOIN_QUERIES = [
    "SELECT l.k, l.j, l.tag, r.k, r.v FROM l %s JOIN r ON l.j = r.j" % kind
    for kind in ("", "LEFT", "RIGHT", "FULL")
] + [
    # a leftover (non-equi) predicate keeps the general reduce body
    "SELECT l.k, r.k FROM l %s JOIN r ON l.j = r.j AND l.k < r.v" % kind
    for kind in ("", "LEFT", "FULL")
] + [
    # int = double keys (differs from the parent commit: see module doc)
    "SELECT l.k, r.k FROM l JOIN r ON l.j = r.jf",
    "SELECT l.k, r.k FROM l FULL JOIN r ON l.j = r.jf AND l.k = r.k",
    # residual WHERE over the joined relation, then a projection over it
    "SELECT l.k * 2, r.v + 1, l.tag FROM l JOIN r ON l.j = r.j "
    "WHERE l.k + r.k > 12",
    "SELECT f.k, r.v FROM f JOIN r ON f.m = r.k WHERE f.k < 200",
]

OTHER_QUERIES = [
    "SELECT %s FROM f" % COLS,
    "SELECT k, x FROM f WHERE x > 0.5 AND s >= 's20' AND k != 10",
    "SELECT k FROM f WHERE 100 <= k AND 's05' < s AND y < 3",
    "SELECT DISTINCT g, m % 3 FROM f",
    "SELECT DISTINCT %s FROM f" % MIXED_KEY,
    "SELECT d.k + 1, d.g FROM (SELECT k, g FROM f) d WHERE d.k % 2 = 0",
    "SELECT k FROM f LIMIT 5",
    # hidden sort columns (were silently ignored on the parent commit)
    "SELECT k FROM f ORDER BY f.m DESC, s LIMIT 9",
    "SELECT k AS kk FROM f ORDER BY k DESC LIMIT 4",
]

#: one row raises; the error class and message are the row closure's.
RAISING = [
    ("SELECT CASE WHEN d.k = 137 THEN d.g + 1 ELSE d.k END "
     "FROM (SELECT k, g FROM f) d", TypeError),
    ("SELECT CASE WHEN l.k = 6 THEN l.tag + 1 ELSE 0 END "
     "FROM l JOIN r ON l.j = r.j", TypeError),
    ("SELECT l.k FROM l JOIN r ON l.j = r.j "
     "WHERE CASE WHEN l.k = 6 THEN l.tag + r.v ELSE 1 END > 0", TypeError),
]

#: ORDER BY cases: (select list, [(output index, descending)], limits)
ORDER_CASES = [
    ("k, m", [(1, False)], (10, 0, 1000, None)),    # ties straddle LIMIT
    ("k, g", [(1, False), (0, True)], (7, None)),   # NULLs: wrapped + plain
    ("k, y", [(1, True), (0, False)], (12, None)),  # NaN and NULL floats
    ("k, x", [(1, False)], (5, None)),
    ("k, b", [(1, True), (0, False)], (8, None)),   # bool is never plain
    ("k, %s AS mix" % MIXED_SORT, [(1, False), (0, False)],
     (9, None)),                                    # int vs str: repr order
    ("k, s", [(1, True), (0, False)], (7, None)),   # DESC strings wrapped
    ("k, s", [(1, False), (0, True)], (7, 64, None)),
    ("k, -k AS nk, s", [(1, False)], (3, 65, None)),
]


def make_session(workers=1, batch_rows=None):
    session = HiveSession(
        profile=ClusterProfile.laptop(workers=workers,
                                      reduce_slots_per_node=3),
        batch_rows=batch_rows)
    session.execute(
        "CREATE TABLE f (k int, g string, m int, x double, y double, "
        "b boolean, s string) STORED AS dualtable TBLPROPERTIES "
        "('orc.rows_per_file' = '150', 'dualtable.mode' = 'edit')")
    session.load_rows("f", FACT)
    session.execute("UPDATE f SET x = x + 0.5, s = 's99' WHERE k % 29 = 4")
    session.execute("DELETE FROM f WHERE k % 31 = 9")
    session.execute("CREATE TABLE l (k int, j int, tag string) STORED AS orc "
                    "TBLPROPERTIES ('orc.rows_per_file' = '6')")
    session.load_rows("l", LEFT)
    session.execute("CREATE TABLE r (k int, j int, v int, jf double) "
                    "STORED AS orc TBLPROPERTIES ('orc.rows_per_file' = '6')")
    session.load_rows("r", RIGHT)
    return session


def order_sql(select, keys, limit):
    names = [item.split(" AS ")[-1].strip() for item in select.split(", ")]
    order = ", ".join("%s%s" % (names[i], " DESC" if desc else "")
                      for i, desc in keys)
    return "SELECT %s FROM f ORDER BY %s%s" % (
        select, order, "" if limit is None else " LIMIT %d" % limit)


def all_statements():
    ordered = [order_sql(select, keys, limit)
               for select, keys, limits in ORDER_CASES for limit in limits]
    return (GROUP_QUERIES + JOIN_QUERIES + OTHER_QUERIES + ordered
            + [sql for sql, _ in RAISING])


def observe(session, sql):
    """Everything one statement may be compared on.

    The runner keeps no finished job, so a wrapper around its ``run``
    records each job that succeeds, as they come.
    """
    cluster, runner = session.cluster, session.env.runner
    run, jobs = runner.run, []

    def recording_run(job):
        result = run(job)
        jobs.append((result.name, result.shuffle_bytes, result.sim_seconds))
        return result

    before = cluster.ledger.snapshot()
    runner.run = recording_run
    try:
        result = session.execute(sql)
        outcome = ("rows", repr(result.rows), result.sim_seconds)
    except Exception as exc:            # compared, never swallowed
        outcome = ("error", type(exc).__name__, str(exc))
    finally:
        del runner.run
    return (sql, outcome, cluster.ledger.diff(before), jobs)


_RUNS = {}


def transcript(workers, batch_rows):
    """Every statement observed in one session; each statement's ledger
    delta is kept as a digest, the session's final ledger verbatim."""
    key = (workers, batch_rows)
    if key not in _RUNS:
        session = make_session(workers, batch_rows)
        steps = [observe(session, sql) for sql in all_statements()]
        _RUNS[key] = jsonable(
            [(sql, outcome, digest(delta), jobs)
             for sql, outcome, delta, jobs in steps]
            + [("ledger", session.cluster.ledger.snapshot())])
    return _RUNS[key]


def golden_sections():
    return {"operators/64": transcript(1, 64),
            "operators/default": transcript(1, None),
            "joins": [repr(rows) for rows, _
                      in join_cases(make_session(batch_rows=64))]}


# ----------------------------------------------------------------------
# Engine identity: batch map side == the row engine's map side.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch_rows", [64, None])
@pytest.mark.parametrize("workers", [1, 4])
def test_batch_engine_matches_row_engine(workers, batch_rows):
    expect = golden("operators/%s" % (batch_rows or "default"))
    got = transcript(workers, batch_rows)
    assert len(got) == len(expect)
    for step, want in zip(got, expect):
        assert step == want, step[0]


def test_statements_exercise_what_they_claim():
    """Guards the fixture: the adversarial shapes are really there."""
    session = make_session(batch_rows=64)
    assert len(session.execute(GROUP_QUERIES[1]).rows) >= 65
    mixed = session.execute(GROUP_QUERIES[2]).rows
    assert len(mixed) == 1 and type(mixed[0][0]) is int     # first seen: 1
    assert any(row[0] is None
               for row in session.execute(GROUP_QUERIES[0]).rows)
    assert session.execute(GROUP_QUERIES[6]).rows == \
        [(0, None, None, None, None)]
    assert session.execute(GROUP_QUERIES[7]).rows == []
    by_sql = {entry[0]: entry for entry in transcript(1, 64)[:-1]}
    # every aggregate / join statement shuffled something
    for sql in GROUP_QUERIES[:6] + JOIN_QUERIES:
        assert any(nbytes > 0 for _, nbytes, _ in by_sql[sql][3]), sql
    for sql, error in RAISING:
        kind, name, message = by_sql[sql][1]
        assert [kind, name] == ["error", error.__name__], sql
        assert message == 'can only concatenate str (not "int") to str'


def test_float_sums_depend_on_order_and_still_match():
    """The fixture's SUM really is order-sensitive, so matching the row
    engine's recorded bits means the fold adds in row order."""
    values = [row[3] for row in FACT if row[3] is not None]
    forward = 0.0
    for v in values:
        forward += v
    backward = 0.0
    for v in reversed(values):
        backward += v
    assert forward != backward


# ----------------------------------------------------------------------
# AggregateSpec.fold == add_value, value and type.
# ----------------------------------------------------------------------
FOLD_COLUMNS = [
    [], [None, None], [3], [1, None, 2, 2, None, 5], [1e16, 1.0, -1e16, 0.1],
    [True, 1, 1.0, None, 0], [2.5, 1, None, 7], ["b", None, "a", "b"],
    [NAN, 1.0, 0.5], [1.0, NAN, 0.5], [0.5, 1.0, NAN, None],
]


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("name", ["count", "sum", "avg", "min", "max"])
def test_fold_equals_add_value(name, distinct):
    spec = AggregateSpec(name, distinct=distinct)
    for first in FOLD_COLUMNS:
        for second in FOLD_COLUMNS:
            kinds = {isinstance(v, str) for v in first + second
                     if v is not None}
            if name != "count" and (len(kinds) == 2 or (
                    name in ("sum", "avg") and True in kinds)):
                continue        # the row fold raises on these too
            one, bulk = spec.init(), spec.init()
            for column in (first, second):
                for value in column:
                    one = spec.add_value(one, value)
                bulk = spec.fold(bulk, tuple(column), len(column))
                assert repr(bulk) == repr(one), (first, second)
                assert type(bulk) is type(one)


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("name", ["count", "sum", "avg", "min", "max"])
def test_fold_of_nothing_returns_the_accumulator_itself(name, distinct):
    spec = AggregateSpec(name, distinct=distinct)
    for acc in (spec.init(), spec.fold(spec.init(), (2, 3), 2)):
        assert spec.fold(acc, (None, None), 2) is acc
        assert spec.fold(acc, (), 0) is acc


def test_fold_count_star_counts_rows():
    spec = AggregateSpec("count", count_star=True)
    assert spec.fold(spec.fold(spec.init(), None, 7), None, 0) == 7
    distinct = AggregateSpec("count", distinct=True, count_star=True)
    acc = distinct.init()
    for _ in range(3):
        acc = distinct.add_value(acc, 1)
    assert distinct.fold(distinct.init(), None, 3) == acc == {1}


def test_fold_raises_what_add_value_raises():
    spec = AggregateSpec("min")
    with pytest.raises(TypeError) as bulk:
        spec.fold(3, ("a",), 1)
    with pytest.raises(TypeError) as one:
        spec.add_value(3, "a")
    assert str(bulk.value) == str(one.value)


# ----------------------------------------------------------------------
# ORDER BY / LIMIT == the stable NULLS LAST sort it replaced.
# ----------------------------------------------------------------------
def reference_order(rows, keys, limit):
    """The operator this PR replaced, verbatim: one ``_NullsLast`` tuple
    per row, a heap when LIMIT cuts, else the stable sort."""
    def sort_key(row):
        return tuple(_NullsLast(row[i], desc) for i, desc in keys)

    if limit is not None and limit < len(rows):
        return heapq.nsmallest(limit, rows, key=sort_key)
    return sorted(rows, key=sort_key)


@pytest.mark.parametrize("batch_rows", [64, None])
def test_order_by_limit_matches_reference_sort(batch_rows):
    session = make_session(batch_rows=batch_rows)
    for select, keys, limits in ORDER_CASES:
        unordered = session.execute("SELECT %s FROM f" % select).rows
        for limit in limits:
            sql = order_sql(select, keys, limit)
            got = session.execute(sql).rows
            want = reference_order(unordered, keys, limit)
            if select == "k, y" and batch_rows == 64:
                # NaN compares False with everything: no order exists and
                # the outcome follows the comparison sequence, which
                # chunking changes.  One chunk (below) still equals the
                # reference; here only the row set is checked.
                assert len(got) == len(want) and set(got) <= set(unordered)
                continue
            assert repr(got) == repr(want), sql


def test_order_cases_cover_every_key_representation():
    session = make_session()
    rows = session.execute("SELECT y, b, %s FROM f" % MIXED_SORT).rows
    assert any(y != y for y, _, _ in rows if y is not None)         # NaN
    assert any(y is None for y, _, _ in rows)
    assert {type(b) for _, b, _ in rows} == {bool}
    assert {type(mix) for _, _, mix in rows} == {int, str}


def test_sort_column_picks_one_representation_per_column():
    def plain(col, desc):
        return not any(isinstance(v, _NullsLast)
                       for v in _sort_column(col, desc))

    assert _sort_column([3, 1, 2], False) == [3, 1, 2]
    assert _sort_column([3, 1, 2], True) == [-3, -1, -2]
    assert _sort_column([0.5, -0.0, 2.0], True) == [-0.5, 0.0, -2.0]
    assert _sort_column(["b", "a"], False) == ["b", "a"]
    # Wrapped: the plain value would compare differently (None), or
    # only the exact-typed cases are vouched for (bool, mixed numbers),
    # or identical NaN objects would tie by identity inside a tuple.
    for col, desc in ((["b", "a"], True), ([1, None], False),
                      ([True, False], False), ([1, 2.0], False),
                      ([1.0, NAN], False), ([1, "a"], True), ([], False)):
        wrapped = _sort_column(col, desc)
        assert [w.value for w in wrapped] == col
        assert all(type(w) is _NullsLast and w.desc is desc for w in wrapped)
    assert plain([2 ** 70, -2 ** 70], True)


def test_top_k_key_columns_change_representation_between_chunks():
    """Chunk 1 is all ints (plain), chunk 2 holds a NULL and a string
    (wrapped); survivors are re-ranked under one representation."""
    session = HiveSession(profile=ClusterProfile.laptop(), batch_rows=64)
    session.execute("CREATE TABLE t (k int, v int)")
    session.load_rows("t", [(k, (k * 7) % 50) for k in range(150)])
    key = ("CASE WHEN k = 70 THEN NULL WHEN k = 71 THEN 'x' "
           "WHEN k >= 128 THEN 0.5 ELSE v END")
    unordered = session.execute("SELECT k, %s AS key FROM t" % key).rows
    for desc in (False, True):
        for limit in (5, 70, 149):
            got = session.execute(
                "SELECT k, %s AS key FROM t ORDER BY key%s, k LIMIT %d"
                % (key, " DESC" if desc else "", limit)).rows
            assert got == reference_order(
                unordered, [(1, desc), (0, False)], limit)


# ----------------------------------------------------------------------
# Joins == a nested-loop join.
# ----------------------------------------------------------------------
def nested_loop_join(lefts, rights, kind, on):
    out, matched_right = [], set()
    for lv in lefts:
        hit = False
        for i, rv in enumerate(rights):
            if on(lv, rv):
                hit = True
                matched_right.add(i)
                out.append(lv + rv)
        if not hit and kind in ("LEFT", "FULL"):
            out.append(lv + (None,) * len(rights[0]))
    if kind in ("RIGHT", "FULL"):
        out.extend((None,) * len(lefts[0]) + rv
                   for i, rv in enumerate(rights) if i not in matched_right)
    return out


def join_cases(session):
    """``(rows the engine returned, rows the nested loop wants)`` per
    join kind and condition."""
    cases = [("l.j = r.j", lambda a, b: a[1] is not None and a[1] == b[1]),
             ("l.j = r.j AND l.k < r.v",
              lambda a, b: a[1] is not None and a[1] == b[1]
              and a[0] < b[2]),
             # equal keys of different numeric type reach one reducer
             ("l.j = r.jf", lambda a, b: a[1] is not None and a[1] == b[3])]
    for condition, on in cases:
        for kind in ("", "LEFT", "RIGHT", "FULL"):
            yield (session.execute("SELECT * FROM l %s JOIN r ON %s"
                                   % (kind, condition)).rows,
                   nested_loop_join(LEFT, RIGHT, kind, on))


@pytest.mark.parametrize("engine", ["vectorized", "row"])
def test_joins_match_nested_loop(engine):
    """``row``: what the row engine returned, which the batch join map
    must return too, in the same order."""
    cases = list(join_cases(make_session(batch_rows=64)))
    if engine == "row":
        assert [repr(got) for got, _ in cases] == golden("joins")
    for got, want in cases:
        assert sorted(map(repr, got)) == sorted(map(repr, want))


# ----------------------------------------------------------------------
# Runner: list-returning map functions and the key-memoised shuffle.
# ----------------------------------------------------------------------
def _runner(**overrides):
    return JobRunner(Cluster(ClusterProfile.laptop(**overrides)))


def _splits(n_splits=3, per_split=10):
    return [InputSplit(payload=list(range(i * per_split,
                                          (i + 1) * per_split)),
                       size_bytes=per_split * 8, label="s%d" % i)
            for i in range(n_splits)]


class TestRunner:
    def test_map_function_may_return_a_list(self):
        def listed(split, ctx):
            return [(v % 3, v) for v in split.payload]

        def generated(split, ctx):
            yield from listed(split, ctx)

        def reduce_fn(key, values, ctx):
            return [(key, list(values))]

        for reduce in (None, reduce_fn):
            a = _runner().run(Job("j", _splits(), listed, reduce,
                                  num_reducers=2))
            b = _runner().run(Job("j", _splits(), generated, reduce,
                                  num_reducers=2))
            assert a.outputs == b.outputs
            assert (a.shuffle_bytes, a.sim_seconds) == \
                (b.shuffle_bytes, b.sim_seconds)

    def test_retried_map_attempt_emits_its_records_once(self):
        attempts = []

        def map_fn(split, ctx):
            attempts.append(ctx.task_index)
            return [(v, v) for v in split.payload]

        runner = _runner()
        runner.cluster.faults.install(FaultPlan([
            Fault("mapreduce.map", nth_hit=2, kind="crash")]))
        result = runner.run(Job("j", _splits(), map_fn, None))
        assert result.counters["task_retries"] == 1
        assert result.outputs == [(v, v) for v in range(30)]
        assert attempts == [0, 1, 2]    # the crash fires before map_fn

    @pytest.mark.parametrize("num_reducers", [1, 3, 18])
    def test_memoised_shuffle_equals_hash_per_record(self, num_reducers):
        keys = [1, 1.0, (1, "a"), True, (1.0, "a"), "1", None, 2, 2.5,
                (True, "a"), ("a", 1), 0, -0.0, False]
        records = [(keys[(i * 5 + s) % len(keys)], (s, i))
                   for s in range(3) for i in range(40)]

        def map_fn(split, ctx):
            return [r for r in records if r[1][0] == split.payload]

        def reduce_fn(key, values, ctx):
            return [(ctx.task_index, key, list(values))]

        splits = [InputSplit(payload=s, size_bytes=8, label="s%d" % s)
                  for s in range(3)]
        result = _runner().run(Job("j", splits, map_fn, reduce_fn,
                                   num_reducers=num_reducers))
        # The un-memoised partitioner: one stable_hash per record.
        partitions = [{} for _ in range(num_reducers)]
        for key, value in records:
            partitions[stable_hash(key) % num_reducers] \
                .setdefault(key, []).append(value)
        want = [(index, key, partition[key])
                for index, partition in enumerate(partitions)
                for key in sorted(partition, key=_reduce_sort_key)]
        assert repr(result.outputs) == repr(want)
        assert result.shuffle_bytes == estimate_record_bytes(records)
        # equal keys met in one reducer, under the first-seen key
        assert sum(1 for _, key, _ in result.outputs if key == 1) == 1
