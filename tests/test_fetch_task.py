"""A SELECT with no shuffle runs as a fetch task when that costs less.

The executor prices a no-shuffle scan's splits two ways with
:class:`~repro.mapreduce.PlanCost` (a MapReduce job, or a fetch that
reads them in the client) and runs the cheaper.  A fetch runs the job's
own map tasks, so ``SET dualtable.plan = scan`` (which forces the job)
is its differential oracle: the same rows, the same ledger bytes and
ops.  A fetch charges no job start-up, and its ``sim_seconds`` is the
serial sum of its tasks' device seconds plus their HBase seconds, which
is every second its statement charges.
"""

import pytest

from repro.cluster import ClusterProfile
from repro.faults.chaos import FLAVOURS
from repro.faults.injector import Fault, FaultPlan
from repro.hive import HiveSession

PROPS = "'orc.rows_per_file' = '12', 'orc.stripe_rows' = '6'"

#: table kind -> CREATE TABLE body.  The DualTable kinds are the chaos
#: flavours' tables (plain, PRIMARY KEY, sharded PRIMARY KEY).
BODIES = {
    "orc": "(k int, v int, p int) STORED AS orc",
    "orc-partitioned": "(k int, v int) PARTITIONED BY (p int) STORED AS orc",
    "acid": "(k int, v int, p int) STORED AS acid",
    "hbase": "(k int, v int, p int) STORED AS hbase",
    "dml": FLAVOURS["dml"].table,
    "lookup": FLAVOURS["lookup"].table,
    "shard1": FLAVOURS["shard"].table.replace("INTO 4", "INTO 1"),
    "shard4": FLAVOURS["shard"].table,
    "shard8": FLAVOURS["shard"].table.replace("INTO 4", "INTO 8"),
}
ROWS = 96
QUERY = "SELECT k, v FROM t WHERE v >= 150"


def make_session(kind, plan="cost", workers=1, profile=None, rows=ROWS,
                 delete=True):
    """``kind``'s table of ``rows`` rows after an UPDATE and a DELETE
    (deltas on a DualTable or an ACID table), ``dualtable.plan`` set."""
    session = HiveSession(profile=profile
                          or ClusterProfile.laptop(workers=workers))
    body = BODIES[kind]
    if "DUALTABLE" in body:
        props = PROPS + ", 'dualtable.mode' = 'edit'"
        data = [(k, k * 10) for k in range(rows)]
    else:
        props = PROPS
        data = [(k, k * 10, k % 3) for k in range(rows)]
    session.execute("CREATE TABLE t %s%s" % (
        body, "" if kind == "hbase" else " TBLPROPERTIES (%s)" % props))
    session.load_rows("t", data)
    session.execute("UPDATE t SET v = v + 1 WHERE v < 200")
    if delete:
        session.execute("DELETE FROM t WHERE k >= %d" % (rows - 6))
    session.execute("SET dualtable.plan = %s" % plan)
    return session


def run(session, sql=QUERY):
    """``(result, ledger delta, counters delta)`` of one statement."""
    ledger, metrics = session.cluster.ledger, session.cluster.metrics
    names = ("hive.fetches", "mapreduce.jobs", "mapreduce.task_retries")
    before, counts = ledger.snapshot(), [metrics.counter(n) for n in names]
    result = session.execute(sql)
    return result, ledger.diff(before), {
        name: metrics.counter(name) - count
        for name, count in zip(names, counts)}


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("kind", sorted(BODIES))
def test_fetch_equals_the_forced_job(kind, workers):
    fetched, fetch_delta, fetch_counts = run(make_session(kind,
                                                         workers=workers))
    job, job_delta, job_counts = run(make_session(kind, "scan", workers))
    assert fetched.plan == "select(fetch)"
    assert job.plan == "select(1 jobs)"
    assert fetched.rows == job.rows and fetched.rows
    assert fetch_delta["bytes"] == job_delta["bytes"]
    assert fetch_delta["ops"] == job_delta["ops"]
    assert fetch_counts == {"hive.fetches": 1, "mapreduce.jobs": 0,
                            "mapreduce.task_retries": 0}
    assert job_counts == {"hive.fetches": 0, "mapreduce.jobs": 1,
                          "mapreduce.task_retries": 0}
    # No job start-up; every other second is a task's, and the fetch
    # pays them one after another.
    assert ("mapreduce", "job_startup") not in fetch_delta["seconds"]
    assert fetched.sim_seconds == pytest.approx(
        fetch_delta["total_seconds"], rel=1e-9)
    assert fetched.sim_seconds < job.sim_seconds


@pytest.mark.parametrize("kind", ["orc", "acid", "dml", "shard4"])
def test_a_map_fault_retries_in_a_fetch_as_in_a_job(kind):
    outcomes = []
    for plan in ("cost", "scan"):
        session = make_session(kind, plan)
        session.cluster.faults.install(FaultPlan([
            Fault("mapreduce.map", nth_hit=2, kind="crash")]))
        try:
            outcomes.append(run(session))
        finally:
            session.cluster.faults.uninstall()
    (fetched, fetch_delta, fetch_counts), (job, job_delta, job_counts) \
        = outcomes
    assert fetched.plan == "select(fetch)" and job.plan == "select(1 jobs)"
    assert fetched.rows == job.rows
    assert fetch_counts["mapreduce.task_retries"] == 1
    assert job_counts["mapreduce.task_retries"] == 1
    assert fetch_delta["bytes"] == job_delta["bytes"]
    assert fetch_delta["ops"] == job_delta["ops"]
    # The failed attempt's work and the backoff are the fetch's too.
    assert fetch_delta["seconds"][("mapreduce", "retry_backoff")] > 0
    assert fetched.sim_seconds == pytest.approx(
        fetch_delta["total_seconds"], rel=1e-9)


@pytest.mark.parametrize("kind", ["orc", "orc-partitioned", "dml", "shard4"])
def test_the_estimate_prices_what_the_tasks_charge(kind):
    """With no filter and no deleted row, every admitted row is a
    record: the fetch's predicted seconds are its observed seconds,
    the delta scans' HBase seconds included."""
    session = make_session(kind, delete=False)
    result, delta, _ = run(session, "SELECT k, v FROM t")
    audit = result.detail["audit"]
    assert audit["plan"] == "fetch"
    hbase = sum(seconds for (subsystem, _), seconds
                in delta["seconds"].items() if subsystem == "hbase")
    assert hbase > 0 or kind.startswith("orc")
    assert audit["predicted_seconds"] == pytest.approx(
        audit["observed_seconds"], rel=1e-6)
    metrics = session.cluster.metrics
    assert metrics.histogram("costmodel.rel_error.fetch").count == 1


def test_a_large_table_on_the_paper_profile_picks_the_job():
    """At bench scale a table's bytes outweigh the job's start-up: the
    job's slots read them faster than one client."""
    small = ClusterProfile.paper_tpch_cluster()
    large = ClusterProfile.paper_tpch_cluster(byte_scale=2e5, op_scale=2e5)
    sizes = {}
    for name, profile in (("small", small), ("large", large)):
        session = make_session("orc", profile=profile, rows=600)
        explain = [line.strip() for (line,) in
                   session.execute("EXPLAIN " + QUERY).rows]
        result, _, _ = run(session)
        sizes[name] = (result.plan, explain[-1])
    assert sizes["small"] == ("select(fetch)", "plan: fetch")
    assert sizes["large"] == ("select(1 jobs)", "plan: job")


def test_explain_shows_the_verdict_and_analyze_the_fetch():
    session = make_session("shard4")
    lines = [line.strip() for (line,) in
             session.execute("EXPLAIN " + QUERY).rows]
    block = [line for line in lines if line.startswith("FETCH")] + lines[-3:]
    assert block[0].startswith("FETCH eligibility (no shuffle, ")
    assert block[1].startswith("fetch cost:")
    assert block[2].startswith("job cost:")
    assert block[3] == "plan: fetch"
    analyzed = [line.strip() for (line,) in
                session.execute("EXPLAIN ANALYZE " + QUERY).rows]
    assert any(line.startswith("fetch select-scan:") for line in analyzed)
    assert any(line.startswith("cost-model audit: plan=fetch")
               for line in analyzed)
    session.execute("SET dualtable.plan = scan")
    lines = [line.strip() for (line,) in
             session.execute("EXPLAIN " + QUERY).rows]
    assert lines[-1] == "plan: job (forced by dualtable.plan)"
    # An aggregation shuffles: no fetch verdict; its stage's verdict is
    # a local job (tests/test_local_job.py), and scan mode keeps the job.
    assert session.execute("SELECT count(*) FROM t").plan == "select(1 jobs)"
    session.execute("SET dualtable.plan = cost")
    lines = [line.strip() for (line,) in session.execute(
        "EXPLAIN SELECT count(*) FROM t").rows]
    assert not any(line.startswith("FETCH") for line in lines)
    assert "plan: local (feeds an aggregation)" in lines
    assert session.execute("SELECT count(*) FROM t").plan == "select(local)"


@pytest.mark.parametrize("shards", [1, 4])
def test_lookup_prices_its_scan_alternative_as_the_job(shards):
    """EXPLAIN's ``scan cost`` is the forced scan's seconds, within 25 %,
    at every shard count (64 bucket files, one job start-up, slots that
    reuse their JVM)."""
    session = HiveSession(profile=ClusterProfile.laptop())
    session.execute(
        "CREATE TABLE t (k int, v int) PRIMARY KEY (k) STORED AS DUALTABLE "
        "SHARDED BY (k) INTO %d" % shards)
    session.load_rows("t", [(k, k * 10) for k in range(300)])
    sql = "SELECT k, v FROM t WHERE k IN (3, 4)"
    lines = [line.strip() for (line,) in
             session.execute("EXPLAIN " + sql).rows]
    scan_cost = float(next(line for line in lines
                           if line.startswith("scan cost:")).split()[2][:-1])
    assert "plan: lookup" in lines
    session.execute("SET dualtable.plan = scan")
    forced = session.execute(sql)
    assert forced.plan == "select(1 jobs)"
    assert forced.jobs[0].num_map_tasks == 64
    assert scan_cost == pytest.approx(forced.sim_seconds, rel=0.25)
