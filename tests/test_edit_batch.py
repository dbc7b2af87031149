"""Differential test: the batch EDIT scan vs the row-at-a-time reference.

Until the batch EDIT scan, ``DualTableHandler._edit_update/_edit_delete``
(and their sharded twins) walked the row merge (one record id per master
row) row by row.  That scan lives on here as the oracle
(:func:`reference_run_edit`, reading through ``union_read_file``): the
production scan must emit the identical edit list — record ids *and*
new values, in order — the same affected counts, ledger and non-cache
counters, whatever the batch size, worker count or shard count
(INTERNALS §8, write path).  The ``row`` ids hold the same runs to what
they produced over the deleted row-fallback merge (``tests/golden.py``).

The one sanctioned difference is on a *failed* task attempt: the
reference bumped ``udtf.*`` per matched row before the failure even
though the attempt's buffer was then discarded; the batch scan accounts
per task, so discarded work is not counted.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import TaskFailedError
from repro.common.rng import make_rng
from repro.core.editlog import EditBatch
from repro.core.handler import DualTableHandler
from repro.core.record_id import decode_record_id
from repro.core.udtf import count_udtf_calls, delete_udtf, update_udtf
from repro.hive import HiveSession
from repro.hive.expressions import (Env, compile_expr, is_true,
                                    referenced_columns)
from repro.hive.pushdown import extract_ranges
from repro.hive.session import QueryResult
from repro.mapreduce import Job

from tests.delta_reference import union_read_rows
from tests.golden import digest, golden


# ---------------------------------------------------------------------------
# The oracle: the pre-batch EDIT map functions, one record id per master row.
# ---------------------------------------------------------------------------
def reference_run_edit(self, session, edit, detail, scan=None):
    schema = self.schema
    stmt, verb, assignments = edit.stmt, edit.verb, edit.assignments
    needed = set()
    if stmt.where is not None:
        needed |= referenced_columns(stmt.where)
    for _, expr in assignments:
        needed |= referenced_columns(expr)
    projection = [c.name for c in schema if c.name.lower() in needed]
    if not projection:
        projection = [schema.columns[0].name]
    env = Env()
    env.add_schema(projection, alias=stmt.alias)
    predicate = (compile_expr(stmt.where, env)
                 if stmt.where is not None else None)
    assigns = [(schema.index_of(name), compile_expr(expr, env))
               for name, expr in assignments]
    ranges = extract_ranges(stmt.where) if stmt.where is not None else {}
    splits = self.scan_splits(projection, ranges)
    batch = EditBatch(self, next(self._txn_ids))

    def map_fn(split, ctx):
        shard = split.payload.get("shard")      # set by sharded tables only
        buffer = batch.task_buffer()
        for record_id, values in union_read_rows(self, split,
                                                 ranges=ranges):
            if predicate is None or is_true(predicate(values)):
                key = record_id if shard is None else (shard, record_id)
                if verb == "update":
                    new_values = {idx: fn(values) for idx, fn in assigns}
                    update_udtf(buffer, key, new_values)
                else:
                    delete_udtf(buffer, key)
                count_udtf_calls(ctx, verb, 1)
        batch.absorb(buffer, ctx.task_index)
        return ()

    job = Job(name="%s-edit" % verb, splits=splits, map_fn=map_fn,
              reduce_fn=None, properties={"shard_fanout": self.shard_fanout})
    result = session.runner.run(job)
    commit_seconds = self._commit_or_defer(session, batch)
    self.note_attached_bytes()
    jobs = session._dml_subquery_jobs + [result]
    sub = sum(j.sim_seconds for j in session._dml_subquery_jobs)
    return QueryResult(
        sim_seconds=sub + result.sim_seconds + commit_seconds,
        jobs=jobs, affected=result.counters.get(verb + "d", 0),
        plan="%s-edit" % verb, detail=detail)


@contextmanager
def edit_path(reference):
    """Select the EDIT scan under test and capture committed edit lists."""
    captured = []
    commit = EditBatch.commit

    def recording_commit(batch, session):
        captured.append(batch.edits)
        return commit(batch, session)

    with mock.patch.object(EditBatch, "commit", recording_commit):
        if reference:
            with mock.patch.object(DualTableHandler, "_run_edit",
                                   reference_run_edit):
                yield captured
        else:
            yield captured


# ---------------------------------------------------------------------------
# One seeded script per configuration.
# ---------------------------------------------------------------------------
ROWS = 900


def make_session(batch_rows, workers, sharded):
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers),
                          batch_rows=batch_rows)
    # Unsharded: 3 files x 2 stripes of 150 rows, so batch_rows = 64
    # splits every stripe.  Sharded: one small file per hash bucket, cut
    # into 5-row stripes so whole-stripe deletes and pruning still bite.
    session.execute(
        "CREATE TABLE t (k int, v int, s string) PRIMARY KEY (k) "
        "STORED AS dualtable %s TBLPROPERTIES ('dualtable.mode' = 'edit', "
        "'orc.rows_per_file' = '300', 'orc.stripe_rows' = '%d')"
        % (("SHARDED BY (k) INTO 4", 5) if sharded else ("", 150)))
    session.load_rows("t", [(k, (k * 37) % 101 - 50, "s%d" % (k % 13))
                            for k in range(ROWS)])
    # The table has a PRIMARY KEY: hold every statement to the EDIT job
    # (its keyed alternative is tests/test_lookup.py's subject).
    session.execute("SET dualtable.plan = scan")
    return session


def stripe_keys(session):
    """Key lists of every stripe, in file order (metadata reads, which
    charge nothing)."""
    stripes = []
    readers = [reader for shard in session.metastore.table("t").handler.shards
               for reader in shard.master.readers()]
    for reader in readers:
        keys = [values[0] for _, values in reader.rows(projection=["k"])]
        for stripe in reader.stripes:
            stripes.append(keys[stripe.first_row:
                                stripe.first_row + stripe.num_rows])
    return stripes


def in_list(keys):
    return ", ".join(str(k) for k in keys)


def build_script(session, seed):
    """Statements covering the EDIT scan's provenance and error cases.

    Dirties only the first half of the stripes so later files stay
    delta-free (stripe pruning is applied to clean files only).
    """
    rng = make_rng(seed)
    stripes = stripe_keys(session)
    dirty_stripes = stripes[:max(2, len(stripes) // 2)]
    dirty_keys = [k for stripe in dirty_stripes for k in stripe]
    clean_keys = sorted(k for stripe in stripes[len(dirty_stripes):]
                        for k in stripe)
    pre_deleted = rng.sample(dirty_keys, 24)
    pre_updated = rng.sample(dirty_keys, 24) + pre_deleted[:4]
    whole_stripe = dirty_stripes[1]
    # Rows sitting right behind a deleted row in file order: their
    # record ids depend on the dropped-row provenance.
    position = {k: i for i, k in enumerate(dirty_keys)}
    gone = set(pre_deleted) | set(whole_stripe)
    shifted = sorted({dirty_keys[position[k] + 1] for k in gone
                      if position[k] + 1 < len(dirty_keys)} - gone)
    lo = clean_keys[len(clean_keys) // 4]
    hi = clean_keys[len(clean_keys) // 2]
    # The row the failing predicate trips on: late in a stripe, so the
    # same task has already matched rows when it raises.
    boom = [k for k in dirty_stripes[2] if k not in gone][-1]
    return [
        # Pre-state: scattered deletes, updates, one whole stripe gone.
        "DELETE FROM t WHERE k IN (%s)" % in_list(pre_deleted),
        "UPDATE t SET v = v + 1000 WHERE k IN (%s)" % in_list(pre_updated),
        "DELETE FROM t WHERE k IN (%s)" % in_list(whole_stripe),
        # Under test.
        "UPDATE t SET v = v * 2, s = concat(s, '!') WHERE k IN (%s)"
        % in_list(shifted + pre_updated[:6]),
        "DELETE FROM t WHERE k >= %d AND k < %d" % (lo, hi),
        "UPDATE t SET v = -v",
        # Raises on one row (string + int).  The ``k >= 0`` conjunct
        # gives the planner a stripe-statistics estimate, so the scan —
        # not plan-time predicate sampling — is the first to evaluate it.
        "UPDATE t SET v = 1 WHERE k >= 0 AND if(k = %d, s, 1) + 1 > 0" % boom,
        "DELETE FROM t WHERE k NOT IN (%s) AND s LIKE '%%7'"
        % in_list(shifted[:5]),
        "SELECT k, v, s FROM t ORDER BY k",
        "DELETE FROM t",
        "SELECT count(*) FROM t",
    ]


def non_cache(counters):
    return {name: value for name, value in counters.items()
            if "cache" not in name}


def run_script(config, reference, seed=20150413):
    """Per-statement observations of one full script run."""
    with edit_path(reference) as captured:
        session = make_session(*config)
        cluster = session.cluster
        steps = []
        before = non_cache(cluster.metrics.counters)
        for sql in build_script(session, seed):
            seen = len(captured)
            try:
                result = session.execute(sql)
                outcome = (result.plan, result.affected, result.rows,
                           result.sim_seconds)
            except TaskFailedError as exc:
                outcome = ("failed", str(exc))
            after = non_cache(cluster.metrics.counters)
            steps.append({
                "sql": sql,
                "outcome": outcome,
                "edits": captured[seen:],
                "counters": {name: after[name] - before.get(name, 0)
                             for name in after
                             if after[name] != before.get(name, 0)},
                "ledger": cluster.ledger.snapshot(),
            })
            before = after
        return steps


CONFIGS = [(held_to, batch_rows, workers, sharded)
           for held_to in ("overlay", "row")
           for batch_rows in (None, 64)
           for workers in (1, 4)
           for sharded in (False, True)]
_PRODUCTION = {}


def production_run(config):
    if config not in _PRODUCTION:
        _PRODUCTION[config] = run_script(config, reference=False)
    return _PRODUCTION[config]


def golden_sections():
    return {"edit_batch/%s/%s" % (batch_rows, sharded):
            [digest(step) for step
             in production_run((batch_rows, 1, sharded))]
            for batch_rows in (None, 64) for sharded in (False, True)}


@pytest.mark.parametrize("held_to,batch_rows,workers,sharded", CONFIGS)
def test_batch_edit_scan_matches_row_reference(held_to, batch_rows, workers,
                                               sharded):
    """Under ``overlay`` against the oracle above; under ``row`` against
    the digests of the same script over the row-fallback merge.  Includes
    the regression for that merge's crash: re-packed dirty batches used
    to lose ``row_base`` (``NoneType + int``)."""
    config = (batch_rows, workers, sharded)
    production = production_run(config)
    if held_to == "row":
        assert [digest(step) for step in production] \
            == golden("edit_batch/%s/%s" % (batch_rows, sharded))
        return
    reference = run_script(config, reference=True)
    assert [step["sql"] for step in production] \
        == [step["sql"] for step in reference]
    failures = 0
    for got, want in zip(production, reference):
        sql = got["sql"]
        assert got["edits"] == want["edits"], sql
        assert got["outcome"] == want["outcome"], sql
        assert got["ledger"] == want["ledger"], sql
        if got["outcome"][0] == "failed":
            failures += 1
            # Only the row path counted the failed attempts' matches.
            leaked = {name: want["counters"][name]
                      - got["counters"].get(name, 0)
                      for name in want["counters"]
                      if name.startswith("udtf.")}
            assert leaked and all(n > 0 for n in leaked.values()), sql
            got, want = ({**step, "counters": {
                name: value for name, value in step["counters"].items()
                if not name.startswith("udtf.")}} for step in (got, want))
        assert got["counters"] == want["counters"], sql
    assert failures == 1
    # The script really exercised what it claims to.
    by_sql = {step["sql"]: step for step in production}
    everything = by_sql["UPDATE t SET v = -v"]
    assert everything["outcome"][1] > 0
    assert sum(len(edits) for edits in everything["edits"]) \
        == everything["outcome"][1]
    assert by_sql["SELECT count(*) FROM t"]["outcome"][2] == [(0,)]


def test_script_hits_dropped_rows_and_pruned_stripes():
    """Guard the fixture: the provenance statement must touch rows that
    sit behind deleted ones, and the range DELETE must prune stripes."""
    steps = production_run((None, 1, False))
    deleted = set()
    for step in steps[:3]:
        for edits in step["edits"]:
            deleted |= {decode_record_id(rid) for kind, rid, _ in edits
                        if kind == "d"}
    behind = [decode_record_id(rid)
              for edits in steps[3]["edits"] for _, rid, _ in edits]
    assert any((file_id, row - 1) in deleted for file_id, row in behind)
    ranged = steps[4]
    assert ranged["outcome"][1] > 0
    assert ranged["counters"]["unionread.rows"] < ROWS - len(deleted)


def test_sharded_and_unsharded_emit_the_same_logical_edits():
    """Shard tags aside, INTO 4 edits the same rows to the same values."""
    def logical(sharded):
        session = make_session(None, 1, sharded)
        out = []
        for sql in ("DELETE FROM t WHERE k IN (3, 4, 5, 77, 400)",
                    "UPDATE t SET v = v + 1 WHERE k < 90",
                    "SELECT k, v FROM t WHERE k < 95 ORDER BY k"):
            result = session.execute(sql)
            out.append((result.affected, result.rows))
        return out
    assert logical(True) == logical(False)
