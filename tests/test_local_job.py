"""A GROUP BY or join stage, or a COMPACT, runs as a local job when
that costs less.

The executor prices a SELECT's shuffle stage (the ``groupby`` job, the
``join`` job) two ways with :class:`~repro.mapreduce.PlanCost`: as a
MapReduce job, or as a local job that runs the same map tasks, shuffle
and reduce tasks in the client.  ``SET dualtable.plan = scan`` keeps the
job, so it is the local job's differential oracle: the same rows, the
same ledger bytes and ops.  A local job pays no job start-up, no task
overhead and no speculation, and its ``sim_seconds`` is the serial sum
of its map tasks, the shuffle, the serial sum of its reduce tasks and
its HBase seconds.

A COMPACT's job (the full COMPACT, ``PARTIAL k``, the daemon's per-store
folds and REBALANCE's fold) is priced the same way over its splits, at
a fan-out of one per store it folds; the manifest 2PC after it is the
same either way.
"""

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import ReproError
from repro.core.store import FULL_COMPACT, PARTIAL_COMPACT
from repro.faults.injector import Fault, FaultPlan
from repro.hive import HiveSession

PROPS = "'orc.rows_per_file' = '12', 'orc.stripe_rows' = '6'"
ROWS = 96

#: fact table kind -> CREATE TABLE body.
BODIES = {
    "orc": "(k int, v int, g int) STORED AS orc",
    "dualtable": "(k int, v int, g int) STORED AS DUALTABLE",
    "shard1": "(k int, v int, g int) PRIMARY KEY (k) STORED AS DUALTABLE "
              "SHARDED BY (k) INTO 1",
    "shard4": "(k int, v int, g int) PRIMARY KEY (k) STORED AS DUALTABLE "
              "SHARDED BY (k) INTO 4",
    "shard8": "(k int, v int, g int) PRIMARY KEY (k) STORED AS DUALTABLE "
              "SHARDED BY (k) INTO 8",
}

#: shape -> (statement, the stages it runs, in order)
SHAPES = {
    "group_by": ("SELECT g, count(*), sum(v), min(k) FROM t GROUP BY g",
                 ["groupby"]),
    "empty_global_aggregate": ("SELECT count(*), sum(v), max(k) FROM t "
                               "WHERE v < -1", ["groupby"]),
    "inner_join": ("SELECT t.k, t.v, d.label FROM t JOIN d ON t.g = d.g",
                   ["join"]),
    "left_join": ("SELECT t.k, d.label FROM t LEFT JOIN d ON t.g = d.g",
                  ["join"]),
    "full_join": ("SELECT t.k, d.label FROM t FULL JOIN d ON t.g = d.g",
                  ["join"]),
    "join_then_group_by": ("SELECT d.label, count(*), sum(t.v) FROM t "
                           "JOIN d ON t.g = d.g GROUP BY d.label",
                           ["join", "groupby"]),
}


def make_session(kind, plan="cost", workers=1, profile=None, rows=ROWS):
    """``kind``'s fact table ``t`` after an UPDATE and a DELETE (deltas
    on a DualTable), beside an ORC dimension ``d``; both join on ``g``,
    which is NULL on some rows of each."""
    session = HiveSession(profile=profile
                          or ClusterProfile.laptop(workers=workers))
    props = PROPS + (", 'dualtable.mode' = 'edit'"
                     if "DUALTABLE" in BODIES[kind] else "")
    session.execute("CREATE TABLE t %s TBLPROPERTIES (%s)"
                    % (BODIES[kind], props))
    session.load_rows("t", [(k, k * 10, None if k % 11 == 0 else k % 5)
                            for k in range(rows)])
    session.execute("UPDATE t SET v = v + 1 WHERE v < 200")
    session.execute("DELETE FROM t WHERE k >= %d" % (rows - 6))
    session.execute("CREATE TABLE d (g int, label string)")
    session.load_rows("d", [(g, "L%d" % g) for g in (0, 1, 2, 7)]
                      + [(None, "none")])
    session.execute("SET dualtable.plan = %s" % plan)
    return session


def run(session, sql):
    """``(result, ledger delta, counters delta)`` of one statement."""
    ledger, metrics = session.cluster.ledger, session.cluster.metrics
    names = ("hive.local_jobs", "hive.fetches", "mapreduce.jobs",
             "mapreduce.tasks", "mapreduce.task_retries")
    before, counts = ledger.snapshot(), [metrics.counter(n) for n in names]
    result = session.execute(sql)
    return result, ledger.diff(before), {
        name: metrics.counter(name) - count
        for name, count in zip(names, counts)}


def canonical(rows):
    return sorted(rows, key=repr)


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("kind", sorted(BODIES))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_local_job_equals_the_forced_job(shape, kind, workers):
    sql, stages = SHAPES[shape]
    local, local_delta, local_counts = run(
        make_session(kind, workers=workers), sql)
    job, job_delta, job_counts = run(
        make_session(kind, "scan", workers), sql)
    assert local.plan == "select(local)"
    assert job.plan == "select(%d jobs)" % len(stages)
    assert [stage.name for stage in local.jobs] == stages
    assert all(stage.local for stage in local.jobs)
    assert canonical(local.rows) == canonical(job.rows) and local.rows
    assert local_delta["bytes"] == job_delta["bytes"]
    assert local_delta["ops"] == job_delta["ops"]
    assert local_counts["hive.local_jobs"] == len(stages)
    assert local_counts["hive.fetches"] == 0
    assert local_counts["mapreduce.jobs"] == 0
    assert local_counts["mapreduce.tasks"] == 0
    assert job_counts["mapreduce.jobs"] == len(stages)
    assert job_counts["hive.local_jobs"] == 0
    assert ("mapreduce", "job_startup") not in local_delta["seconds"]
    assert local.sim_seconds < job.sim_seconds
    # Each local stage was audited, with no per-table entry.
    assert [stage["plan"] for stage in
            local.detail.get("stages", [local.detail])] == ["local"] * len(
                stages)


def test_rows_keep_their_order():
    """Not only the same rows: the same tasks in the same order give
    the same output order as the job."""
    for shape in ("group_by", "full_join"):
        sql = SHAPES[shape][0]
        assert (make_session("dualtable").execute(sql).rows
                == make_session("dualtable", "scan").execute(sql).rows)


def stage_spans(session, sql):
    """Run ``sql`` traced: ``[(JobResult, job span, [task spans])]``."""
    tracer = session.cluster.tracer
    tracer.enable()
    mark = len(tracer.spans)
    result = session.execute(sql)
    spans = tracer.spans[mark:]
    jobs = [span for span in spans if span.kind == "job"]
    return [(job, span, [task for task in spans if task.kind == "task"
                         and task.parent_id == span.span_id])
            for job, span in zip(result.jobs, jobs)]


@pytest.mark.parametrize("kind", ["orc", "dualtable", "shard4"])
def test_sim_seconds_is_the_serial_sum(kind):
    session = make_session(kind)
    for job, span, tasks in stage_spans(
            session, SHAPES["join_then_group_by"][0]):
        assert job.local
        durations = {phase: [task.seconds - task.hbase_seconds
                             for task in tasks
                             if task.attrs["task_type"] == phase]
                     for phase in ("map", "reduce")}
        assert durations["map"] and durations["reduce"]
        assert job.map_seconds == sum(durations["map"])
        assert job.reduce_seconds == sum(durations["reduce"])
        assert job.sim_seconds == (job.map_seconds + job.shuffle_seconds
                                   + job.reduce_seconds + span.hbase_seconds)
        assert job.shuffle_seconds > 0
        assert (span.hbase_seconds > 0) == (kind != "orc" and job.name
                                            == "join")


def test_a_reduce_fault_retries_with_backoff_and_no_task_overhead():
    outcomes = {}
    for plan in ("cost", "scan"):
        session = make_session("dualtable", plan)
        session.cluster.faults.install(FaultPlan([
            Fault("mapreduce.reduce", nth_hit=1, kind="crash")]))
        try:
            outcomes[plan] = run(session, SHAPES["group_by"][0])
        finally:
            session.cluster.faults.uninstall()
    (local, local_delta, local_counts) = outcomes["cost"]
    (job, job_delta, job_counts) = outcomes["scan"]
    assert local.plan == "select(local)" and local.rows == job.rows
    assert local_counts["mapreduce.task_retries"] == 1
    assert job_counts["mapreduce.task_retries"] == 1
    assert local_delta["bytes"] == job_delta["bytes"]
    assert local_delta["ops"] == job_delta["ops"]
    backoff = local_delta["seconds"][("mapreduce", "retry_backoff")]
    assert backoff == job_delta["seconds"][("mapreduce", "retry_backoff")]
    # The job's reduce pays a task start-up for the failed attempt and
    # one for the retry; the local job pays neither.
    overhead = session.cluster.profile.task_overhead_s
    assert job.jobs[0].reduce_seconds == pytest.approx(
        local.jobs[0].reduce_seconds + 2 * overhead, rel=1e-9)
    assert local.jobs[0].reduce_seconds > backoff


def test_a_large_input_on_the_paper_profile_keeps_the_job():
    """At bench scale the splits' bytes outweigh the job's start-up: the
    job's slots read them faster than one client."""
    sql = SHAPES["group_by"][0]
    plans = {}
    for name, scale in (("small", 1), ("large", 2e5)):
        session = make_session("orc", profile=ClusterProfile
                               .paper_tpch_cluster(byte_scale=scale,
                                                   op_scale=scale),
                               rows=600)
        explain = [line.strip() for (line,) in
                   session.execute("EXPLAIN " + sql).rows]
        plans[name] = (session.execute(sql).plan, explain[-1],
                       "plan: %s (feeds an aggregation)"
                       % explain[-1].split()[-1] in explain)
    assert plans["small"] == ("select(local)", "plan: local", True)
    assert plans["large"] == ("select(1 jobs)", "plan: job", True)


@pytest.mark.parametrize("kind", ["dualtable", "shard4"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_explain_prints_the_verdict_that_runs(kind, shape):
    sql, stages = SHAPES[shape]
    session = make_session(kind)
    lines = [line.strip() for (line,) in
             session.execute("EXPLAIN " + sql).rows]
    verdicts = [line for line in lines if line.startswith("plan: ")]
    ran = session.execute(sql)
    first = "local" if ran.jobs[0].local else "job"
    assert "LOCAL eligibility (shuffle stage):" in lines
    assert "plan: %s" % first in verdicts
    if len(stages) > 1:     # the GROUP BY reads the join's output
        assert verdicts[-1] == ("plan: local or job, priced at run time "
                                "over the materialized input")
    analyzed = [line.strip() for (line,) in
                session.execute("EXPLAIN ANALYZE " + sql).rows]
    assert analyzed[:len(lines)] == lines
    for stage in stages:
        assert any(line.startswith("local %s: " % stage)
                   for line in analyzed)
    assert sum(line.startswith("cost-model audit: plan=local")
               for line in analyzed) == len(stages)
    session.execute("SET dualtable.plan = scan")
    lines = [line.strip() for (line,) in
             session.execute("EXPLAIN " + sql).rows]
    assert "plan: job (forced by dualtable.plan)" in lines
    assert "LOCAL eligibility (shuffle stage):" not in lines


def test_local_audit_predicts_the_observed_seconds():
    """No filter, and map-side aggregation folds 500-row files into five
    groups: the estimate prices what the tasks charge, bar those groups'
    records and the shuffle."""
    session = HiveSession(profile=ClusterProfile.laptop())
    session.execute("CREATE TABLE t (k int, v int, g int) STORED AS "
                    "DUALTABLE TBLPROPERTIES ('orc.rows_per_file' = '500')")
    session.load_rows("t", [(k, k, k % 5) for k in range(2000)])
    session.execute("UPDATE t SET v = 0 WHERE k % 7 = 0")
    metrics = session.cluster.metrics
    table_audits = metrics.counter("costmodel.audits.t")
    result = session.execute("SELECT g, count(*) FROM t GROUP BY g")
    audit = result.detail["audit"]
    assert audit["plan"] == "local" and audit["rel_error"] < 0.1
    assert metrics.histogram("costmodel.rel_error.local").count == 1
    assert metrics.counter("costmodel.audits.t") == table_audits


# ----------------------------------------------------------------------
# A subquery's seconds and details reach its statement.
# ----------------------------------------------------------------------
def pk_session():
    session = HiveSession(profile=ClusterProfile.laptop())
    session.execute("CREATE TABLE t (k int, v int, g int) PRIMARY KEY (k) "
                    "STORED AS DUALTABLE")
    session.load_rows("t", [(k, k * 3, k % 4) for k in range(3000)])
    return session


@pytest.mark.parametrize("inner, plan", [
    ("SELECT k, v FROM t WHERE k = 5", "lookup"),
    ("SELECT g, count(*) AS c FROM t GROUP BY g", "select(local)"),
    ("SELECT k, v FROM t WHERE v < 90", "select(fetch)"),
])
def test_a_derived_table_reports_its_reads(inner, plan):
    session = pk_session()
    alone = session.execute(inner)
    ledger = session.cluster.ledger
    before = ledger.snapshot()
    outer = session.execute("SELECT * FROM (%s) s" % inner)
    charged = ledger.diff(before)["total_seconds"]
    assert alone.plan == outer.plan == plan
    assert outer.rows == alone.rows
    # A keyed read's seconds are a ledger difference: equal to rounding.
    assert outer.sim_seconds == pytest.approx(alone.sim_seconds, rel=1e-9)
    assert 0 < outer.sim_seconds <= charged
    assert outer.detail.get("plan") == alone.detail.get("plan")


# ----------------------------------------------------------------------
# The fetch and local estimates price a DualTable's delta scans.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 8])
def test_the_estimate_prices_the_delta_scans(shards):
    """20 000 rows, 10 EDIT UPDATEs: the fetch's HBase seconds were a
    fifth of its run, and the estimate left them out (rel_error 0.20)."""
    session = HiveSession(profile=ClusterProfile.laptop())
    session.execute(
        "CREATE TABLE t (k int, v int) PRIMARY KEY (k) STORED AS DUALTABLE "
        "SHARDED BY (k) INTO %d TBLPROPERTIES ('dualtable.mode' = 'edit')"
        % shards)
    session.load_rows("t", [(k, k) for k in range(20000)])
    for i in range(10):
        session.execute("UPDATE t SET v = v + 1 WHERE k %% 10 = %d" % i)
    result, delta, _ = run(session, "SELECT k, v FROM t WHERE v >= 0")
    assert result.plan == "select(fetch)"
    assert delta["seconds"][("hbase", "scan")] > 0.1 * result.sim_seconds
    assert result.detail["audit"]["rel_error"] <= 0.1
    assert session.cluster.metrics.histogram(
        "costmodel.rel_error.fetch").vmax <= 0.1


# ----------------------------------------------------------------------
# COMPACT: the same job over the same splits, in the client.
# ----------------------------------------------------------------------
#: what folds -> (the statement that folds, the table kinds it runs on)
FOLDS = {
    "full": ("COMPACT TABLE t", ("dualtable", "shard1", "shard4", "shard8")),
    "partial": ("COMPACT TABLE t PARTIAL 2",
                ("dualtable", "shard1", "shard4", "shard8")),
    # The daemon folds store by store after the statement that arms it;
    # a horizon this long folds every store with deltas at either price.
    "daemon": ("ALTER TABLE t SET AUTOCOMPACT (ON, mode = 'full', "
               "horizon = 1000000000000)", ("dualtable", "shard1", "shard4",
                                            "shard8")),
    "rebalance": ("ALTER TABLE t REBALANCE", ("shard4", "shard8")),
}
FOLD_CASES = [(fold, kind) for fold in sorted(FOLDS)
              for kind in FOLDS[fold][1]]


def fold_session(kind, plan="cost", workers=1, profile=None):
    """``make_session`` with the REBALANCE donor made hot: a keyed
    UPDATE heats its keys' shard."""
    session = make_session(kind, "cost", workers, profile)
    if kind != "dualtable":
        session.execute("UPDATE t SET v = v + 1 WHERE k IN (1, 2, 3)")
    session.execute("SET dualtable.plan = %s" % plan)
    return session


def folded(session):
    """What a fold leaves: every warehouse file's bytes and the rows."""
    fs = session.fs
    with session.cluster.faults.paused():
        rows = session.execute("SELECT * FROM t").rows
    return ({path: fs.read_file_silent(path)
             for path in fs.list_files("/warehouse")}, canonical(rows))


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("fold,kind", FOLD_CASES)
def test_a_local_compact_equals_the_forced_job(fold, kind, workers):
    sql = FOLDS[fold][0]
    local_session = fold_session(kind, workers=workers)
    job_session = fold_session(kind, "scan", workers)
    local, local_delta, local_counts = run(local_session, sql)
    job, job_delta, job_counts = run(job_session, sql)
    assert local_delta["bytes"] == job_delta["bytes"]
    assert local_delta["ops"] == job_delta["ops"]
    assert folded(local_session) == folded(job_session)
    folds = local_counts["hive.local_jobs"]
    assert folds >= 1 and local_counts["mapreduce.jobs"] == 0
    assert job_counts["mapreduce.jobs"] == folds
    assert job_counts["hive.local_jobs"] == local_counts["hive.fetches"] == 0
    assert ("mapreduce", "job_startup") not in local_delta["seconds"]
    if fold == "daemon":
        records = [row for row in local_session.execute(
            "SHOW COMPACTIONS").rows if row[2] == "auto"]
        assert len(records) == folds
        assert all(row[3] == "full" and row[8] <= 0.25 for row in records)
        return
    assert local.jobs[0].local and not job.jobs[0].local
    assert local.sim_seconds < job.sim_seconds
    if fold != "rebalance":
        assert local.detail["audit"]["plan"] == "compact"
        assert local.detail["audit"]["rel_error"] <= 0.25


@pytest.mark.parametrize("fold,kind", [
    (fold, kind) for fold, kind in FOLD_CASES if fold != "daemon"])
def test_a_local_compact_is_the_serial_sum(fold, kind):
    [(job, span, tasks)] = stage_spans(fold_session(kind), FOLDS[fold][0])
    assert job.local and job.num_reduce_tasks == 0
    durations = [task.seconds - task.hbase_seconds for task in tasks]
    assert len(durations) == job.num_map_tasks > 1
    assert job.map_seconds == sum(durations)
    assert job.sim_seconds == job.map_seconds + span.hbase_seconds
    assert span.hbase_seconds > 0


@pytest.mark.parametrize("plan", ["cost", "scan"])
def test_a_daemon_fold_is_priced_at_fan_out_one(plan):
    """The daemon folds an INTO 8 table store by store: each fold's job
    runs over one region server, so its HBase seconds are its own, not
    an eighth.  Slow HBase rows make that term the fold's cost."""
    session = fold_session("shard8", plan, profile=ClusterProfile.laptop(
        hbase_scan_row_latency_s=1.0))
    _, _, counts = run(session, FOLDS["daemon"][0])
    folds = counts["hive.local_jobs"] + counts["mapreduce.jobs"]
    assert folds > 1
    assert counts["hive.local_jobs"] == (folds if plan == "cost" else 0)
    audits = session.cluster.metrics.histogram("costmodel.rel_error.compact")
    assert audits.count == folds and audits.vmax <= 0.25


def test_a_map_fault_in_a_local_compact_retries_with_no_task_overhead():
    outcomes = {}
    for plan in ("cost", "scan"):
        session = fold_session("dualtable", plan)
        session.cluster.faults.install(FaultPlan([
            Fault("mapreduce.map", nth_hit=1, kind="crash")]))
        try:
            outcomes[plan] = (run(session, "COMPACT TABLE t PARTIAL 1"),
                              folded(session))
        finally:
            session.cluster.faults.uninstall()
    (local, local_delta, local_counts), local_state = outcomes["cost"]
    (job, job_delta, job_counts), job_state = outcomes["scan"]
    assert local.jobs[0].local and local_state == job_state
    assert local_counts["mapreduce.task_retries"] == 1
    assert job_counts["mapreduce.task_retries"] == 1
    assert local_delta["bytes"] == job_delta["bytes"]
    assert local_delta["ops"] == job_delta["ops"]
    backoff = local_delta["seconds"][("mapreduce", "retry_backoff")]
    assert backoff == job_delta["seconds"][("mapreduce", "retry_backoff")]
    # One map task: the job pays a task start-up for the failed attempt
    # and one for the retry; the local job pays neither.
    overhead = session.cluster.profile.task_overhead_s
    assert job.jobs[0].map_seconds == pytest.approx(
        local.jobs[0].map_seconds + 2 * overhead, rel=1e-9)
    assert local.jobs[0].map_seconds > backoff


@pytest.mark.parametrize("kind", ["dualtable", "shard4"])
@pytest.mark.parametrize("sql,point", [
    ("COMPACT TABLE t", point) for point in FULL_COMPACT.steps] + [
    ("COMPACT TABLE t PARTIAL 2", point) for point in PARTIAL_COMPACT.steps])
def test_a_crashed_local_compact_recovers_as_the_job_does(sql, point, kind):
    states = {}
    for plan in ("cost", "scan"):
        session = fold_session(kind, plan)
        handler = session.table("t").handler
        session.cluster.faults.install(FaultPlan([
            Fault(point, nth_hit=1, kind="kill")]))
        with pytest.raises(ReproError):
            session.execute(sql)
        with session.cluster.faults.paused():
            handler.recover()
        session.cluster.faults.uninstall()
        states[plan] = folded(session)
    assert states["cost"] == states["scan"]


@pytest.mark.parametrize("sql", [FOLDS["full"][0], FOLDS["partial"][0]])
def test_the_paper_profile_keeps_the_compact_job(sql):
    """At bench scale the job's slots read the files faster than one
    client: the COMPACT stays a job, and EXPLAIN says so."""
    ran = {}
    for name, scale in (("small", 1), ("large", 2e5)):
        session = fold_session("dualtable", profile=ClusterProfile
                               .paper_tpch_cluster(byte_scale=scale,
                                                   op_scale=scale))
        explain = [line.strip() for (line,) in
                   session.execute("EXPLAIN " + sql).rows]
        ran[name] = (session.execute(sql).jobs[0].local, explain[-1])
    assert ran == {"small": (True, "plan: local"),
                   "large": (False, "plan: job")}


@pytest.mark.parametrize("kind", ["dualtable", "shard4"])
@pytest.mark.parametrize("plan", ["cost", "scan"])
@pytest.mark.parametrize("fold", ["full", "partial"])
def test_explain_compact_prints_the_verdict_that_runs(fold, plan, kind):
    sql = FOLDS[fold][0]
    session = fold_session(kind, plan)
    lines = [line.strip() for (line,) in
             session.execute("EXPLAIN " + sql).rows]
    analyzed = [line.strip() for (line,) in
                session.execute("EXPLAIN ANALYZE " + sql).rows]
    assert analyzed[:len(lines)] == lines
    job = [line for line in analyzed if " compact" in line
           and line.split()[0] in ("job", "local")]
    assert len(job) == 1
    ran = job[0].split()[0]
    assert lines[1].startswith("LOCAL eligibility (")
    assert lines[-1] == ("plan: job (forced by dualtable.plan)"
                         if plan == "scan" else "plan: " + ran)
    assert ran == ("job" if plan == "scan" else "local")
    assert any(line.startswith("cost-model audit: plan=compact ")
               for line in analyzed)
    if fold == "full":      # nothing left to fold: EXPLAIN says so
        assert [line.strip() for (line,) in session.execute(
            "EXPLAIN " + sql).rows][-1] == "plan: none, no deltas to fold"
        assert session.execute(sql).plan == "compact-noop"
