"""A split carries the stripes its plan admitted.

Stripe admission (``pushdown.admit_stripes``) runs once, when a plan
makes its splits: each split names the runs of rows its file's stripe
statistics admit (``row_spans``), and the task reads exactly those.  So
a range SELECT reads stripe statistics at plan time only, on every ORC
storage: a DualTable (plain, and sharded at INTO 4), a partitioned ORC
table and an ACID table, at workers 1 and 4.  Pruning still happens (the
plan reads statistics and the task reads fewer stripes than the file
has), and the rows are those of an unpruned read.
"""

import threading

import pytest

from repro.cluster import ClusterProfile
from repro.hive import HiveSession
from repro.mapreduce.runner import JobRunner
from repro.orc.reader import StripeInfo

ORC = ("TBLPROPERTIES ('orc.rows_per_file' = '100', "
       "'orc.stripe_rows' = '%d'%s)")
COLUMNS = "(k int, v int, w int"
#: storage -> the CREATE TABLE tail; each holds 400 rows, ``w``
#: ascending with the key in every file.  A sharded table writes one
#: file per hash bucket (about six rows), so its stripes hold two rows.
STORAGES = {
    "dualtable": COLUMNS + ") STORED AS dualtable "
                 + ORC % (25, ", 'dualtable.mode' = 'edit'"),
    "dualtable-sharded": COLUMNS + ", PRIMARY KEY (k)) STORED AS dualtable "
                         "SHARDED BY (k) INTO 4 "
                         + ORC % (2, ", 'dualtable.mode' = 'edit'"),
    "orc-partitioned": COLUMNS + ") PARTITIONED BY (p int) STORED AS orc "
                       + ORC % (25, ""),
    "acid": COLUMNS + ") STORED AS acid " + ORC % (25, ""),
}
ROWS = 400
WHERE = "w >= 120 AND w < 180"


@pytest.fixture
def stats_calls(monkeypatch):
    """``{"plan": n, "task": n}``: ``StripeInfo.stats`` calls made
    outside and inside map tasks."""
    calls = {"plan": 0, "task": 0}
    local = threading.local()
    stats, run_maps = StripeInfo.stats, JobRunner._run_maps

    def counted(stripe, column_index):
        calls["task" if getattr(local, "in_task", False) else "plan"] += 1
        return stats(stripe, column_index)

    def marked_maps(runner, job, counters):
        map_fn = job.map_fn

        def in_task(split, ctx):
            local.in_task = True
            try:
                yield from map_fn(split, ctx)
            finally:
                local.in_task = False

        job.map_fn = in_task
        try:
            return run_maps(runner, job, counters)
        finally:
            job.map_fn = map_fn

    monkeypatch.setattr(StripeInfo, "stats", counted)
    monkeypatch.setattr(JobRunner, "_run_maps", marked_maps)
    return calls


def build(storage, workers):
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers))
    session.execute("CREATE TABLE t " + STORAGES[storage])
    rows = [(k, k * 10, k) for k in range(ROWS)]
    if storage == "orc-partitioned":
        rows = [row + (row[0] // 200,) for row in rows]
    session.load_rows("t", rows)
    # Drop the writers' seeds: a seeded decode compares the writer's
    # rows with the stripe's statistics to choose between seed and
    # decoder, which is not stripe admission.
    session.cluster.orc_cache.clear()
    return session


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_a_range_select_reads_stripe_statistics_at_plan_time_only(
        storage, workers, stats_calls):
    session = build(storage, workers)
    unpruned = sorted(row for row in session.execute(
        "SELECT k, v, w FROM t").rows if 120 <= row[2] < 180)
    stats_calls.update(plan=0, task=0)
    pruned = hdfs_read(session, "SELECT k, v, w FROM t WHERE " + WHERE)
    assert sorted(pruned.rows) == unpruned and len(unpruned) == 60
    assert pruned.jobs and stats_calls["task"] == 0
    assert stats_calls["plan"] > 0
    # Admission pruned: the tasks read fewer bytes than a full scan.
    assert pruned.hdfs_read < hdfs_read(session, "SELECT k, v, w FROM t"
                                        ).hdfs_read


def hdfs_read(session, sql):
    """``sql``'s result, with the HDFS bytes it read as ``hdfs_read``."""
    ledger = session.cluster.ledger
    before = ledger.snapshot()
    result = session.execute(sql)
    result.hdfs_read = ledger.diff(before)["bytes"].get(("hdfs", "read"), 0)
    return result
