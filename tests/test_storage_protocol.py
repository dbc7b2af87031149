"""Every storage through one handler protocol.

The session runs UPDATE, DELETE, MERGE's matched arm and COMPACT through
``StorageHandler.execute_update`` / ``execute_compact`` and EXPLAINs them
through ``dml_plan``; each storage says how it runs them, and nothing
else decides.  This table holds the six storages to that: EXPLAIN
answers everywhere, COMPACT ... PARTIAL is a DualTable statement, one
matcher makes every storage fail on the same row with the same error,
and one DML script leaves the same rows everywhere.
"""

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import AnalysisError, ReproError
from repro.hive import HiveSession

COLUMNS = "(k int, v int, s string"

#: storage -> the CREATE TABLE tail; every table's columns are
#: (k, v, s, p), the partitioned one's p in directory names.
STORAGES = {
    "orc": COLUMNS + ", p int) STORED AS orc",
    "orc-partitioned": COLUMNS + ") PARTITIONED BY (p int) STORED AS orc",
    "hbase": COLUMNS + ", p int) STORED AS hbase",
    "acid": COLUMNS + ", p int) STORED AS acid",
    "dualtable": COLUMNS + ", p int) STORED AS dualtable",
    "dualtable-sharded": COLUMNS + ", p int) PRIMARY KEY (k) "
                         "STORED AS dualtable SHARDED BY (k) INTO 2",
}

#: ``s`` is a date everywhere but on row 2.
ROWS = [(1, 10, "2020-01-01", 0), (2, 20, "b", 1), (3, 30, "2020-01-03", 0),
        (4, 40, "2020-01-04", 1), (5, 50, "2020-01-05", 0),
        (6, 60, "2020-01-06", 1)]


def make_table(storage):
    session = HiveSession(profile=ClusterProfile.laptop())
    session.execute("CREATE TABLE t " + STORAGES[storage])
    session.execute("INSERT INTO t VALUES " + ", ".join(
        "(%d, %d, '%s', %d)" % row for row in ROWS))
    return session


def failure(session, sql):
    """``(exception class, cause message)`` of a failing statement."""
    with pytest.raises(ReproError) as raised:
        session.execute(sql)
    cause = raised.value.__cause__
    return type(raised.value), str(raised.value if cause is None else cause)


@pytest.fixture(params=sorted(STORAGES))
def storage(request):
    return request.param


@pytest.mark.parametrize("sql", ["EXPLAIN UPDATE t SET v = 0 WHERE k = 1",
                                 "EXPLAIN DELETE FROM t WHERE k = 1"])
def test_explain_dml_returns_plan_rows(storage, sql):
    rows = [line for (line,) in make_table(storage).execute(sql).rows]
    assert rows[0].endswith("(storage=%s)" % storage)
    assert any(line.lstrip().startswith("plan: ") for line in rows)


def test_compact_partial_is_a_dualtable_statement(storage):
    session = make_table(storage)
    session.execute("UPDATE t SET v = 0 WHERE k = 1")
    ledger = session.cluster.ledger
    before = ledger.snapshot()
    if storage.startswith("dualtable"):
        assert session.execute("COMPACT TABLE t PARTIAL").plan.startswith(
            "compact")
        return
    with pytest.raises(AnalysisError):
        session.execute("COMPACT TABLE t PARTIAL")
    delta = ledger.diff(before)
    assert (delta["bytes"], delta["seconds"]) == ({}, {})


def test_every_storage_fails_on_the_same_row():
    """The WHERE runs over the whole batch before any SET: row 2's 'b'
    breaks ``date_add`` before row 1's new value, a date, meets the int
    column ``v`` (which is where a row-at-a-time matcher would fail)."""
    sql = ("UPDATE t SET v = date_add(s, 1) "
           "WHERE k = 1 OR date_add(s, 1) = 'x'")
    failures = {storage: failure(make_table(storage), sql)
                for storage in STORAGES}
    assert len(set(failures.values())) == 1, failures


def test_a_set_value_the_column_cannot_store_is_an_analysis_error(storage):
    session = make_table(storage)
    ledger = session.cluster.ledger
    before = ledger.snapshot()
    with pytest.raises(AnalysisError, match="cannot coerce 'zz'"):
        session.execute("UPDATE t SET v = 'zz' WHERE k = 1")
    assert ("mapreduce", "retry_backoff") not in ledger.diff(before)["seconds"]
    assert sorted(session.execute("SELECT * FROM t").rows) == ROWS


SCRIPT = [
    "UPDATE t SET v = v + 1 WHERE k <= 3",
    "UPDATE t SET s = concat(s, '!') WHERE v > 40",
    "DELETE FROM t WHERE k = 2",
    "DELETE FROM t WHERE s = '2020-01-03' OR v = 60",
    "CREATE TABLE src (k int, v int)",
    "INSERT INTO src VALUES (1, 100), (4, 400), (9, 900)",
    "MERGE INTO t USING src ON t.k = src.k "
    "WHEN MATCHED THEN UPDATE SET v = src.v + t.v "
    "WHEN NOT MATCHED THEN INSERT VALUES (src.k, src.v, 'new', 1)",
    "UPDATE t SET v = (SELECT min(v) FROM src) WHERE k = 9",
]


def test_one_script_leaves_the_same_rows_everywhere():
    outcomes = {}
    for storage in STORAGES:
        session = make_table(storage)
        for sql in SCRIPT:
            session.execute(sql)
        outcomes[storage] = sorted(session.execute("SELECT * FROM t").rows)
    assert outcomes["orc"] == [(1, 111, "2020-01-01", 0),
                               (4, 440, "2020-01-04", 1),
                               (5, 50, "2020-01-05!", 0), (9, 100, "new", 1)]
    assert all(rows == outcomes["orc"] for rows in outcomes.values()), \
        outcomes
