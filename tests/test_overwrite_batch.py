"""Differential test: the batch OVERWRITE rewrite vs the row reference.

Until the batch rewrite, ``HiveSession.update_via_overwrite`` and
``delete_via_overwrite`` walked each split row by row through a
``compile_expr`` closure, coerced every output row with ``coerce_row``
and — on a sharded table — hashed every row's shard key on its own.
Those functions live on here as the oracle
(:func:`reference_rewrite`): per statement the production rewrite must
leave byte-identical files in the warehouse and report the same
affected count, simulated seconds, ledger and non-cache counters,
whatever the table kind, batch size or worker count (INTERNALS §8, the
OVERWRITE rewrite).  The ``row`` ids hold the DualTable runs to what
they produced over the deleted row-fallback merge (``tests/golden.py``).
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import AnalysisError, TaskFailedError
from repro.faults import Fault, FaultPlan
from repro.hive import HiveSession
from repro.hive.expressions import Env, compile_expr, is_true
from repro.hive.pushdown import extract_ranges
from repro.hive.session import QueryResult
from repro.mapreduce import Job
from repro.shard.sharded import ShardMap, _ShardRouter

from tests.delta_reference import union_read_rows
from tests.golden import digest, golden


# ---------------------------------------------------------------------------
# The oracle: the pre-batch Listing-2 lowering, one closure call per row.
# ---------------------------------------------------------------------------
def split_rows(handler, split, ctx):
    """One split's rows: a DualTable's through the specification merge,
    an ORC table's straight off its batches."""
    if "file_id" in split.payload:
        return (values for _, values in union_read_rows(handler, split))
    return (row for batch in handler.read_split_batches(split, ctx)
            for row in batch.rows())


def reference_rewrite(self, info, edit, extra_detail=None):
    handler = info.handler
    stmt, verb, assignments = edit.stmt, edit.verb, edit.assignments
    env = Env()
    env.add_schema(info.schema.names, alias=stmt.alias)
    predicate = (compile_expr(stmt.where, env)
                 if stmt.where is not None else None)
    assigns = [(info.schema.index_of(name), compile_expr(expr, env))
               for name, expr in assignments]
    scan_ranges, affected = self._overwrite_scope(
        handler, extract_ranges(stmt.where) if stmt.where is not None else {})
    splits = handler.scan_splits(projection=None, ranges=scan_ranges)

    def update_map(split, ctx):
        for values in split_rows(handler, split, ctx):
            if predicate is None or is_true(predicate(values)):
                ctx.incr("updated")
                row = list(values)
                for idx, fn in assigns:
                    row[idx] = fn(values)
                yield tuple(row)
            else:
                yield values

    def delete_map(split, ctx):
        for values in split_rows(handler, split, ctx):
            if predicate is None or is_true(predicate(values)):
                ctx.incr("deleted")
            else:
                yield values

    job = Job(name="%s-overwrite" % verb, splits=splits,
              map_fn=update_map if verb == "update" else delete_map,
              reduce_fn=None,
              properties={"shard_fanout": getattr(handler, "shard_fanout",
                                                  1)})
    result = self.runner.run(job)
    rows = [info.schema.coerce_row(r) for r in result.outputs]
    if affected is not None:
        write_seconds = self._charged_parallel(
            lambda: handler.replace_partitions(rows, affected))
    else:
        write_seconds = self._charged_parallel(
            lambda: handler.insert_rows(rows, overwrite=True))
    jobs = self._dml_subquery_jobs + [result]
    sub_seconds = sum(j.sim_seconds for j in self._dml_subquery_jobs)
    detail = {"plan": "overwrite", "rows_written": len(rows)}
    detail.update(extra_detail or {})
    return QueryResult(
        sim_seconds=sub_seconds + result.sim_seconds + write_seconds,
        jobs=jobs, affected=result.counters.get(verb + "d", 0),
        plan="%s-overwrite" % verb, detail=detail)


def reference_rows_by_bucket(self, rows):
    buckets = {}
    for row in rows:
        buckets.setdefault(ShardMap.bucket_of(row[self.key_index]),
                           []).append(row)
    return buckets


@contextmanager
def rewrite_path(reference):
    if not reference:
        yield
        return
    with mock.patch.object(HiveSession, "_rewrite_via_overwrite",
                           reference_rewrite), \
            mock.patch.object(_ShardRouter, "buckets",
                              reference_rows_by_bucket):
        yield


# ---------------------------------------------------------------------------
# One script per table kind.
# ---------------------------------------------------------------------------
ROWS = 600
KINDS = {
    "orc": "STORED AS orc TBLPROPERTIES (",
    "partitioned": "PARTITIONED BY (p string) STORED AS orc TBLPROPERTIES (",
    "dualtable": "PRIMARY KEY (k) STORED AS dualtable TBLPROPERTIES ("
                 "'dualtable.mode' = 'edit', ",
    "sharded": "PRIMARY KEY (k) STORED AS dualtable SHARDED BY (k) INTO 4 "
               "TBLPROPERTIES ('dualtable.mode' = 'edit', ",
}


def make_session(kind, workers, batch_rows):
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers),
                          batch_rows=batch_rows)
    # 2 files x 2 stripes of 150 rows (batch_rows = 64 splits a stripe);
    # sharded: one file per hash bucket in 5-row stripes.
    session.execute(
        "CREATE TABLE t (k int, v int, s string, w double) %s"
        "'orc.rows_per_file' = '300', 'orc.stripe_rows' = '%d')"
        % (KINDS[kind], 5 if kind == "sharded" else 150))
    rows = [(k, None if k % 11 == 3 else (k * 37) % 101 - 50,
             None if k % 17 == 5 else "s%d" % (k % 13), k / 4.0)
            for k in range(ROWS)]
    if kind == "partitioned":
        rows = [row + ("p%d" % (row[0] % 3),) for row in rows]
    session.load_rows("t", rows)
    return session


def script(kind):
    """Statements for one table kind; a ``Fault`` arms the next one."""
    dualtable = kind in ("dualtable", "sharded")
    statements = []
    if dualtable:
        # Leave deltas behind under EDIT, so the first rewrite UNION
        # READs dirty files, then force OVERWRITE.
        statements += [
            "UPDATE t SET v = v + 1000 WHERE k IN (4, 5, 151, 152, 310)",
            "DELETE FROM t WHERE k IN (7, 153, 154, 599)",
            "ALTER TABLE t SET DUALTABLE (mode = 'overwrite')"]
    statements += [
        # SET reads a column it also assigns: both see the old values.
        "UPDATE t SET v = v + 1, w = v * 0.5 WHERE k IN (3, 4, 150, 151, "
        "298, 299, 300, 450)",
        # Values the columns must coerce (double -> int, int -> string).
        "UPDATE t SET v = w, s = 5 WHERE k % 7 = 0",
        # NULL flags in a non-final conjunct (v is NULL every 11th row).
        "DELETE FROM t WHERE v > 10 AND s LIKE '%3'",
        # The shard key moves rows to other buckets.
        "UPDATE t SET k = k + 1000 WHERE k < 40",
        # No WHERE.
        "UPDATE t SET s = concat(s, '!')",
        # Raises on one row, late in a stripe; ``k >= 0`` gives the
        # DualTable planner stripe statistics, so the scan is the first
        # to evaluate it.
        "UPDATE t SET v = 1 WHERE k >= 0 AND if(k = 297, s, 1) + 1 > 0",
        # Cannot be stored: typed error after the job, table untouched.
        "UPDATE t SET v = 'abc' WHERE k = 299",
        # A crashed first attempt of the second map task is retried.
        Fault("mapreduce.map", nth_hit=2, kind="crash"),
        "DELETE FROM t WHERE k IN (39, 299, 301, 1001)",
    ]
    if kind == "partitioned":
        statements += [
            # Partition pruning: only p1's files are rewritten.
            "UPDATE t SET v = 0 WHERE p = 'p1' AND k < 200",
            "DELETE FROM t WHERE p = 'p2'"]
    statements += ["SELECT * FROM t ORDER BY k",
                   "DELETE FROM t",
                   "SELECT count(*) FROM t"]
    return statements


def non_cache(counters):
    return {name: value for name, value in counters.items()
            if "cache" not in name}


def run_script(kind, workers, batch_rows, reference):
    """Per-statement observations of one full script run."""
    with rewrite_path(reference):
        session = make_session(kind, workers, batch_rows)
        cluster, fs = session.cluster, session.fs
        steps = []
        before = non_cache(cluster.metrics.counters)
        for sql in script(kind):
            if isinstance(sql, Fault):
                cluster.faults.install(FaultPlan([sql]))
                continue
            try:
                result = session.execute(sql)
                outcome = (result.plan, result.affected, result.rows,
                           result.sim_seconds, result.detail)
            except (TaskFailedError, AnalysisError) as exc:
                outcome = (type(exc).__name__, str(exc))
            cluster.faults.uninstall()
            after = non_cache(cluster.metrics.counters)
            steps.append({
                "sql": sql,
                "outcome": outcome,
                "files": {path: fs.read_file_silent(path)
                          for path in fs.list_files("/warehouse")},
                "counters": {name: after[name] - before.get(name, 0)
                             for name in after
                             if after[name] != before.get(name, 0)},
                "ledger": cluster.ledger.snapshot(),
            })
            before = after
        return steps


CONFIGS = [(kind, workers, batch_rows, held_to)
           for kind in KINDS
           for workers in (1, 4)
           for batch_rows in (None, 64)
           for held_to in (("overlay", "row")
                           if kind in ("dualtable", "sharded")
                           else ("overlay",))]
_PRODUCTION = {}


def production_run(kind, workers, batch_rows):
    key = (kind, workers, batch_rows)
    if key not in _PRODUCTION:
        _PRODUCTION[key] = run_script(kind, workers, batch_rows, False)
    return _PRODUCTION[key]


def golden_sections():
    return {"overwrite_batch/%s/%s" % (kind, batch_rows):
            [digest(step) for step in production_run(kind, 1, batch_rows)]
            for kind in ("dualtable", "sharded") for batch_rows in (None, 64)}


@pytest.mark.parametrize("kind,workers,batch_rows,held_to", CONFIGS)
def test_batch_rewrite_matches_row_reference(kind, workers, batch_rows,
                                             held_to):
    production = production_run(kind, workers, batch_rows)
    if held_to == "row":
        assert [digest(step) for step in production] \
            == golden("overwrite_batch/%s/%s" % (kind, batch_rows))
        return
    reference = run_script(kind, workers, batch_rows, True)
    assert [step["sql"] for step in production] \
        == [step["sql"] for step in reference]
    for got, want in zip(production, reference):
        sql = got["sql"]
        assert got["outcome"] == want["outcome"], sql
        assert got["files"] == want["files"], sql
        assert got["ledger"] == want["ledger"], sql
        assert got["counters"] == want["counters"], sql
    # The script really exercised what it claims to.
    by_sql = {step["sql"]: step for step in production}
    outcomes = {sql: step["outcome"] for sql, step in by_sql.items()}
    overwrites = [o for o in outcomes.values() if "overwrite" in o[0]]
    assert len(overwrites) >= 7
    assert outcomes["UPDATE t SET s = concat(s, '!')"][1] > 500
    failed = [o for o in outcomes.values() if o[0] == "TaskFailedError"]
    assert len(failed) == 1 and "can only concatenate str" in failed[0][1]
    rejected = [o for o in outcomes.values() if o[0] == "AnalysisError"]
    assert len(rejected) == 1 and "cannot coerce 'abc'" in rejected[0][1]
    retried = by_sql["DELETE FROM t WHERE k IN (39, 299, 301, 1001)"]
    assert retried["counters"]["mapreduce.task_retries"] == 1
    assert retried["outcome"][1] == 3      # 39 moved to 1039 above
    assert outcomes["SELECT count(*) FROM t"][2] == [(0,)]
    rows = outcomes["SELECT * FROM t ORDER BY k"][2]
    assert {type(row[1]) for row in rows} <= {int, type(None)}
    assert {type(row[2]) for row in rows} <= {str, type(None)}


def test_failed_statements_leave_every_file_untouched():
    steps = production_run("sharded", 1, None)
    for before, step in zip(steps, steps[1:]):
        if step["outcome"][0] in ("TaskFailedError", "AnalysisError"):
            assert step["files"] == before["files"], step["sql"]


def test_shard_key_update_moves_rows_between_buckets():
    session = make_session("sharded", 1, None)
    session.execute("ALTER TABLE t SET DUALTABLE (mode = 'overwrite')")
    handler = session.table("t").handler
    before = {ShardMap.bucket_of(k) for k in range(40)}
    session.execute("UPDATE t SET k = k + 1000 WHERE k < 40")
    for bucket, rows in handler.router.buckets(
            session.execute("SELECT * FROM t").rows).items():
        assert all(ShardMap.bucket_of(row[0]) == bucket for row in rows)
    assert {ShardMap.bucket_of(k + 1000) for k in range(40)} != before
    assert session.execute("SELECT count(*) FROM t WHERE k >= 1000") \
        .scalar() == 40
    # The ALTER reached the planner of a sharded and of a plain table: a
    # keyed write the 'edit' mode ran by key now rewrites.
    for kind, session in (("sharded", session),
                          ("dualtable", make_session("dualtable", 1, None))):
        if kind == "dualtable":
            session.execute("ALTER TABLE t SET DUALTABLE (mode = 'overwrite')")
        assert session.metastore.table("t").properties["dualtable.mode"] \
            == "overwrite"
        result = session.execute("UPDATE t SET v = 0 WHERE k = 45")
        assert (result.plan, result.affected) == ("update-overwrite", 1)
