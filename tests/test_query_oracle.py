"""Property test: the SQL engine vs a pure-Python reference evaluator.

Random simple queries (filter / projection / global and grouped
aggregation) are generated against a random table; the engine's answer
must equal a direct in-memory computation over the same rows, for every
storage backend.

The differential fuzz section at the bottom goes further: a seeded
stream of ~200 UPDATE / DELETE / INSERT / COMPACT / SELECT statements
runs against a DualTable while a plain Python list is mutated in
lockstep, with row-for-row equality checked after *every* statement —
serial and with a 4-thread worker pool.
"""

import math
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterProfile
from repro.hive import HiveSession

COLUMNS = [("k", "int"), ("grp", "string"), ("v", "int"),
           ("w", "double")]

rows_strategy = st.lists(
    st.tuples(st.integers(-50, 50),
              st.sampled_from(["a", "b", "c"]),
              st.one_of(st.none(), st.integers(-100, 100)),
              st.floats(min_value=-100, max_value=100,
                        allow_nan=False, width=32)),
    min_size=0, max_size=40)

predicate_strategy = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["k", "v"]),
              st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
              st.integers(-40, 40)))


def _build(storage, rows):
    session = HiveSession(profile=ClusterProfile.laptop())
    cols = ", ".join("%s %s" % (n, t) for n, t in COLUMNS)
    extra = ""
    if storage == "dualtable":
        extra = " TBLPROPERTIES ('orc.rows_per_file' = '15')"
    session.execute("CREATE TABLE t (%s) STORED AS %s%s"
                    % (cols, storage, extra))
    session.load_rows("t", rows)
    return session


def _matches(row, predicate):
    if predicate is None:
        return True
    column, op, literal = predicate
    value = row[0] if column == "k" else row[2]
    if value is None:
        return False
    return {"<": value < literal, "<=": value <= literal,
            ">": value > literal, ">=": value >= literal,
            "=": value == literal, "!=": value != literal}[op]


def _where(predicate):
    if predicate is None:
        return ""
    column, op, literal = predicate
    return " WHERE %s %s %d" % (column, op, literal)


@pytest.mark.parametrize("storage", ["orc", "dualtable"])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_strategy, predicate=predicate_strategy)
def test_filter_and_global_aggregates_match_oracle(storage, rows,
                                                   predicate):
    session = _build(storage, rows)
    survivors = [r for r in rows if _matches(r, predicate)]
    result = session.execute(
        "SELECT count(*), count(v), sum(v), min(k), max(k) FROM t"
        + _where(predicate))
    count_star, count_v, sum_v, min_k, max_k = result.rows[0]
    assert count_star == len(survivors)
    vs = [r[2] for r in survivors if r[2] is not None]
    assert count_v == len(vs)
    assert sum_v == (sum(vs) if vs else None)
    assert min_k == (min(r[0] for r in survivors) if survivors else None)
    assert max_k == (max(r[0] for r in survivors) if survivors else None)


@pytest.mark.parametrize("storage", ["orc", "dualtable"])
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_strategy, predicate=predicate_strategy)
def test_group_by_matches_oracle(storage, rows, predicate):
    session = _build(storage, rows)
    survivors = [r for r in rows if _matches(r, predicate)]
    result = session.execute(
        "SELECT grp, count(*), avg(w) FROM t%s GROUP BY grp ORDER BY grp"
        % _where(predicate))
    oracle = {}
    for row in survivors:
        oracle.setdefault(row[1], []).append(row[3])
    assert [r[0] for r in result.rows] == sorted(oracle)
    for grp, count, avg in result.rows:
        ws = oracle[grp]
        assert count == len(ws)
        assert math.isclose(avg, sum(ws) / len(ws), rel_tol=1e-9,
                            abs_tol=1e-9)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_strategy, predicate=predicate_strategy,
       descending=st.booleans())
def test_projection_and_order_match_oracle(rows, predicate, descending):
    session = _build("orc", rows)
    survivors = [r for r in rows if _matches(r, predicate)]
    result = session.execute(
        "SELECT k, grp FROM t%s ORDER BY k %s, grp %s"
        % (_where(predicate), "DESC" if descending else "ASC",
           "DESC" if descending else "ASC"))
    expect = sorted(((r[0], r[1]) for r in survivors),
                    reverse=descending)
    assert result.rows == expect


# ----------------------------------------------------------------------
# Differential fuzz: seeded DML stream vs an in-memory reference.
# ----------------------------------------------------------------------
#: statements per fuzz run (CI can widen via the environment).
N_FUZZ_STATEMENTS = int(os.environ.get("ORACLE_FUZZ_STATEMENTS", "200"))

_OPS = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
        "=": lambda a, b: a == b, "!=": lambda a, b: a != b}


def _fuzz_predicate(rng):
    """A random ``k``/``v`` comparison as (sql, row_fn).

    NULL comparisons are false (SQL three-valued logic collapses to
    "not matched" for these operators), which the row_fn mirrors.
    """
    column, index = rng.choice([("k", 0), ("v", 2)])
    op = rng.choice(sorted(_OPS))
    literal = rng.randint(-20, 110)
    sql = "%s %s %d" % (column, op, literal)

    def row_fn(row, _fn=_OPS[op]):
        return row[index] is not None and _fn(row[index], literal)

    return sql, row_fn


def _fuzz_insert_rows(rng, n):
    return [(rng.randint(0, 99),
             rng.choice(["a", "b", "c"]),
             None if rng.random() < 0.15 else rng.randint(-100, 100),
             float(rng.randint(-100, 100)))
            for _ in range(n)]


def _values_sql(rows):
    def lit(value):
        if value is None:
            return "NULL"
        if isinstance(value, str):
            return "'%s'" % value
        return repr(value)
    return ", ".join("(%s)" % ", ".join(lit(v) for v in row)
                     for row in rows)


def _fuzz_statement(rng, session, reference):
    """Run one random statement, mutate the reference in lockstep."""
    roll = rng.random()
    if roll < 0.18:
        pred_sql, pred = _fuzz_predicate(rng)
        new_v = rng.randint(-100, 100)
        sql = "UPDATE t SET v = %d WHERE %s" % (new_v, pred_sql)
        session.execute(sql)
        reference[:] = [(r[0], r[1], new_v, r[3]) if pred(r) else r
                        for r in reference]
    elif roll < 0.32:
        pred_sql, pred = _fuzz_predicate(rng)
        grp = rng.choice(["x", "y", "z"])
        new_w = float(rng.randint(-50, 50))
        sql = ("UPDATE t SET grp = '%s', w = %r WHERE %s"
               % (grp, new_w, pred_sql))
        session.execute(sql)
        reference[:] = [(r[0], grp, r[2], new_w) if pred(r) else r
                        for r in reference]
    elif roll < 0.50:
        pred_sql, pred = _fuzz_predicate(rng)
        sql = "DELETE FROM t WHERE %s" % pred_sql
        session.execute(sql)
        reference[:] = [r for r in reference if not pred(r)]
    elif roll < 0.72:
        rows = _fuzz_insert_rows(rng, rng.randint(1, 3))
        sql = "INSERT INTO t VALUES %s" % _values_sql(rows)
        session.execute(sql)
        reference.extend(rows)
    elif roll < 0.78:
        sql = "COMPACT TABLE t"
        session.execute(sql)
    else:
        pred_sql, pred = _fuzz_predicate(rng)
        sql = "SELECT k, grp, v, w FROM t WHERE %s" % pred_sql
        got = session.execute(sql).rows
        expect = [r for r in reference if pred(r)]
        assert sorted(got, key=repr) == sorted(expect, key=repr), sql
    return sql


# ----------------------------------------------------------------------
# LOOKUP-plan differential fuzz: the same seeded PK workload must be
# byte-identical whichever plan serves the point reads.
# ----------------------------------------------------------------------
#: statements per LOOKUP fuzz run (CI can widen via the environment).
N_LOOKUP_FUZZ = int(os.environ.get("LOOKUP_FUZZ_STATEMENTS", "200"))

#: initial PK rows; SELECT keys are drawn from [0, 2 * LOOKUP_KEYS).
LOOKUP_KEYS = 120


def _lookup_fuzz_script(rng, n):
    """A deterministic statement script over a PRIMARY KEY table.

    Mixes eligible point/range/IN SELECTs with value updates, PK-moving
    updates (which dirty stripe pruning), point deletes, inserts and
    compactions.  Fresh keys are allocated monotonically above the
    initial range so PK moves and inserts never collide.
    """
    script = []
    next_key = 10 * LOOKUP_KEYS
    for _ in range(n):
        roll = rng.random()
        if roll < 0.30:
            script.append(("point", rng.randrange(2 * LOOKUP_KEYS)))
        elif roll < 0.40:
            lo = rng.randrange(2 * LOOKUP_KEYS)
            script.append(("range", lo, lo + rng.randint(1, 8)))
        elif roll < 0.48:
            keys = tuple(rng.randrange(2 * LOOKUP_KEYS)
                         for _ in range(rng.randint(1, 4)))
            script.append(("in", keys))
        elif roll < 0.64:
            lo = rng.randrange(2 * LOOKUP_KEYS)
            script.append(("update_v", lo, lo + rng.randint(1, 10),
                           rng.randint(-999, 999)))
        elif roll < 0.72:
            script.append(("update_pk", rng.randrange(2 * LOOKUP_KEYS),
                           next_key))
            next_key += 1
        elif roll < 0.82:
            script.append(("delete", rng.randrange(2 * LOOKUP_KEYS)))
        elif roll < 0.92:
            script.append(("insert", next_key, rng.randint(-999, 999)))
            next_key += 1
        else:
            script.append(("compact",))
    return script


def _run_lookup_script(script, plan, workers):
    """One (plan, workers) replay; returns what must be equal.

    SELECT results are checked against a dict reference as they run;
    the returned transcript plus the (cache-counter-free) metric and
    ledger fingerprints let the caller assert cross-config identity.
    """
    session = HiveSession(
        profile=ClusterProfile.laptop(workers=workers))
    session.execute(
        "CREATE TABLE t (k int, v int, PRIMARY KEY (k)) "
        "STORED AS dualtable TBLPROPERTIES "
        "('orc.rows_per_file' = '15', 'orc.stripe_rows' = '5', "
        "'dualtable.mode' = 'edit')")
    rows = [(i, i * 10) for i in range(LOOKUP_KEYS)]
    session.load_rows("t", rows)
    reference = dict(rows)
    session.execute("SET dualtable.plan = %s" % plan)

    def check_select(sql, expect):
        result = session.execute(sql)
        if plan == "lookup":
            assert result.plan == "lookup", sql
        else:
            assert result.plan.startswith("select("), sql
        assert sorted(result.rows) == expect, sql
        transcript.append((sql, tuple(expect)))

    transcript = []
    for op in script:
        kind = op[0]
        if kind == "point":
            k = op[1]
            check_select("SELECT k, v FROM t WHERE k = %d" % k,
                         [(k, reference[k])] if k in reference else [])
        elif kind == "range":
            _, lo, hi = op
            check_select(
                "SELECT k, v FROM t WHERE k BETWEEN %d AND %d" % (lo, hi),
                sorted((k, v) for k, v in reference.items()
                       if lo <= k <= hi))
        elif kind == "in":
            keys = op[1]
            check_select(
                "SELECT k, v FROM t WHERE k IN (%s)"
                % ", ".join(str(k) for k in sorted(set(keys))),
                sorted((k, reference[k]) for k in set(keys)
                       if k in reference))
        elif kind == "update_v":
            _, lo, hi, value = op
            session.execute(
                "UPDATE t SET v = %d WHERE k >= %d AND k < %d"
                % (value, lo, hi))
            for k in reference:
                if lo <= k < hi:
                    reference[k] = value
        elif kind == "update_pk":
            _, old, new = op
            session.execute("UPDATE t SET k = %d WHERE k = %d"
                            % (new, old))
            if old in reference:
                reference[new] = reference.pop(old)
        elif kind == "delete":
            k = op[1]
            session.execute("DELETE FROM t WHERE k = %d" % k)
            reference.pop(k, None)
        elif kind == "insert":
            _, k, v = op
            session.execute("INSERT INTO t VALUES (%d, %d)" % (k, v))
            reference[k] = v
        else:
            session.execute("COMPACT TABLE t")
    session.execute("SET dualtable.plan = cost")
    final = session.execute("SELECT k, v FROM t").rows
    assert sorted(final) == sorted(reference.items())
    counters = {name: value
                for name, value in session.cluster.metrics.counters.items()
                if not name.startswith("cache.")}
    return (transcript, tuple(sorted(final)),
            session.cluster.ledger.snapshot(), counters)


@pytest.mark.slow
def test_lookup_plan_differential_fuzz():
    """The seeded PK workload is invariant three ways at once:

    * SELECT results and final table identical across every
      (plan, workers) combination;
    * ledger and metric counters byte-identical across worker counts
      *within* each plan (the totals necessarily differ
      *between* plans — skipping MapReduce is the feature);
    * per-statement oracle checks hold throughout (inside the runner).
    """
    script = _lookup_fuzz_script(random.Random(20260808), N_LOOKUP_FUZZ)
    runs = {}
    for plan in ("lookup", "scan"):
        for workers in (1, 4):
            runs[(plan, workers)] = _run_lookup_script(script, plan, workers)
    baseline = runs[("lookup", 1)]
    for config, (transcript, final, ledger, counters) in runs.items():
        assert transcript == baseline[0], config
        assert final == baseline[1], config
    for plan in ("lookup", "scan"):
        assert runs[(plan, 4)][2:] == runs[(plan, 1)][2:], plan


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 4])
def test_differential_fuzz_dml_stream(workers):
    from repro.cluster import ClusterProfile

    rng = random.Random(20260806 + workers)
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers))
    cols = ", ".join("%s %s" % (n, t) for n, t in COLUMNS)
    session.execute(
        "CREATE TABLE t (%s) STORED AS dualtable "
        "TBLPROPERTIES ('orc.rows_per_file' = '15')" % cols)
    reference = _fuzz_insert_rows(rng, 30)
    session.load_rows("t", reference)
    reference = list(reference)

    for step in range(N_FUZZ_STATEMENTS):
        sql = _fuzz_statement(rng, session, reference)
        got = session.execute("SELECT k, grp, v, w FROM t").rows
        assert sorted(got, key=repr) == sorted(reference, key=repr), \
            "diverged at step %d after %r" % (step, sql)
    assert reference, "fuzz stream emptied the table; weights are off"
