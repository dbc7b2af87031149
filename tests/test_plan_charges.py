"""Planning charges nothing: planners read metadata, tasks read files.

Every planner of an ORC file — split sizing, the cost model's ratio
estimate and sample, its EDIT scan term, row counts, compaction victim
choice, the keyed stripe index — opens the file through
:class:`repro.orc.OrcMetadata`, which serves the footer and cached
columns through the ORC cache and charges nothing, the way Hive's
planner consults metastore statistics.  Only execution (a map or reduce
task, a keyed read, a statement's ``bulk`` phase) opens the charged
:class:`repro.orc.OrcReader`.

So a plain EXPLAIN, which executes nothing, charges no byte on any
storage, and an executed statement charges HDFS reads only where its
simulated seconds count them: in one of those three.
"""

import re

import pytest

from repro.cluster import ClusterProfile
from repro.cluster.ledger import MetricsLedger
from repro.core import lookup
from repro.hive import HiveSession

ORC = ("TBLPROPERTIES ('orc.rows_per_file' = '100', "
       "'orc.stripe_rows' = '25'%s)")
COLUMNS = "(k int, v int, w int, g string"
#: storage -> the CREATE TABLE tail; ORC-backed tables hold six files
#: of four stripes.
STORAGES = {
    "orc": COLUMNS + ") STORED AS orc " + ORC % "",
    "orc-partitioned": COLUMNS + ") PARTITIONED BY (p int) STORED AS orc "
                       + ORC % "",
    "acid": COLUMNS + ") STORED AS acid " + ORC % "",
    "hbase": COLUMNS + ") STORED AS hbase",
    "dualtable-edit": COLUMNS + ") STORED AS dualtable "
                      + ORC % ", 'dualtable.mode' = 'edit'",
    "dualtable-overwrite": COLUMNS + ") STORED AS dualtable "
                           + ORC % ", 'dualtable.mode' = 'overwrite'",
    "dualtable-cost": COLUMNS + ") STORED AS dualtable " + ORC % "",
    "dualtable-sharded": COLUMNS + ", PRIMARY KEY (k)) STORED AS dualtable "
                         "SHARDED BY (k) INTO 2 " + ORC % "",
}

#: every planner path: stripe-statistics ratio, sampled ratio (no
#: extractable range), a PRIMARY KEY pin, a MERGE source join.
STATEMENTS = [
    "SELECT k, v FROM t WHERE w < 10",
    "UPDATE t SET v = 1 WHERE w < 10",
    "DELETE FROM t WHERE w < 0 OR w > 0",
    "UPDATE t SET v = 2 WHERE k = 5",
    "MERGE INTO t USING s ON t.k = s.k WHEN MATCHED THEN UPDATE SET v = s.v",
]

#: a task's cost scope (``JobRunner``): ``map-3.1``, ``reduce-0.2``;
#: or ``bulk``, a statement's own parallel phase
#: (``HiveSession._charged_parallel``).
EXECUTION_SCOPE = re.compile(r"^((map|reduce)-\d+\.\d+|bulk)$")


def build(storage, workers=1):
    """``t`` of 600 rows with deltas (or delta files) on it, and a MERGE
    source ``s``."""
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers))
    session.execute("CREATE TABLE t " + STORAGES[storage])
    partitioned = storage == "orc-partitioned"
    session.load_rows("t", [(k, k * 10, k % 50 - 25, "g%d" % (k % 4))
                            + ((k % 2,) if partitioned else ())
                            for k in range(600)])
    session.execute("CREATE TABLE s (k int, v int)")
    session.load_rows("s", [(3, 1), (300, 2)])
    session.execute("UPDATE t SET g = 'x' WHERE k % 7 = 0")
    return session


@pytest.fixture(params=sorted(STORAGES))
def storage(request):
    return request.param


@pytest.mark.parametrize("sql", STATEMENTS + ["SELECT count(*) FROM t"])
def test_plain_explain_charges_nothing(storage, sql):
    session = build(storage)
    ledger = session.cluster.ledger
    before = ledger.snapshot()
    assert session.execute("EXPLAIN " + sql).rows
    delta = ledger.diff(before)
    assert sum(delta["bytes"].values()) == 0, delta["bytes"]


@pytest.mark.parametrize("workers", [1, 4])
def test_statements_read_files_only_while_executing(storage, workers,
                                                    monkeypatch):
    """Every HDFS read byte of an executed statement is charged inside an
    execution cost scope or a keyed read, never while planning."""
    session = build(storage, workers)
    stray = []
    keyed = []
    record = MetricsLedger.record

    def recording(ledger, charge):
        if (charge.subsystem, charge.op) == ("hdfs", "read") \
                and not keyed and not any(
                    EXECUTION_SCOPE.match(scope.label)
                    for scope in ledger._scopes if not scope.attached):
            stray.append((sql, charge.nbytes))
        return record(ledger, charge)

    keyed_batches = lookup.keyed_batches

    def keyed_read(*args, **kwargs):
        keyed.append(True)
        try:
            yield from keyed_batches(*args, **kwargs)
        finally:
            keyed.pop()

    monkeypatch.setattr(MetricsLedger, "record", recording)
    monkeypatch.setattr(lookup, "keyed_batches", keyed_read)
    compact = {"acid": ["COMPACT TABLE t MINOR", "COMPACT TABLE t"],
               "orc": [], "orc-partitioned": []}.get(storage,
                                                     ["COMPACT TABLE t"])
    read = 0
    for sql in STATEMENTS + ["SELECT * FROM t WHERE k = 7"] + compact:
        before = session.cluster.ledger.snapshot()
        session.execute(sql)
        read += session.cluster.ledger.diff(before)["bytes"].get(
            ("hdfs", "read"), 0)
    assert read > 0 or storage == "hbase"      # HBase reads no HDFS file
    assert stray == []
