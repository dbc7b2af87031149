"""No statement's rows outlive it, and nothing outlives a session.

A long-lived session or server runs statement after statement; what it
keeps between them must be bounded (the byte-budgeted caches, the ORC
writer memo, the pruned commit log), so a SELECT's rows are freed once
its caller drops the result.  Forty rounds of ``SELECT *`` over a
5 000-row DualTable, interleaved with UPDATE and COMPACT, must not grow
the traced heap between round 10 and round 40.

A dropped session must free its whole stack (cluster, HDFS, HBase,
handlers, caches) by reference counting alone: the object graph has no
cycles (INTERNALS §6).  Every storage flavour runs every statement kind
with the cycle collector off; then the cluster must be gone and a
collect must find no ``repro`` object.
"""

import gc
import io
import threading
import tracemalloc
import weakref

import pytest

from repro.cluster import ClusterProfile
from repro.common.units import MB
from repro.hive import HiveSession
from repro.hive.shell import HiveShell
from repro.server import Arrival, DualTableServer

ROWS = 5_000
ROUNDS = 40
#: growth allowed between round 10 and round 40.
BOUND = MB // 2


def make_engine():
    engine = HiveSession(profile=ClusterProfile.laptop())
    engine.execute("CREATE TABLE t (k int, v int, s string) STORED AS "
                   "DUALTABLE TBLPROPERTIES ('dualtable.mode' = 'edit')")
    engine.load_rows("t", [(k, k % 97, "row-%d" % k) for k in range(ROWS)])
    return engine


def round_statements(i):
    """Round ``i``: a full scan, an UPDATE, and every fifth round a
    COMPACT, so the measured rounds (10 and 40) end on a folded table."""
    yield "SELECT * FROM t"
    yield "UPDATE t SET v = v + 1 WHERE k %% 10 = %d" % (i % 10)
    if i % 5 == 4:
        yield "COMPACT TABLE t"


def heap_growth(execute):
    """Bytes allocated after round 10 and still held after round
    ``ROUNDS``; every result is dropped as soon as it is checked.

    Tracing starts at round 10, so it sees only what later rounds
    allocate, and the first ten rounds run at full speed.
    """
    try:
        for i in range(ROUNDS):
            if i == 10:
                gc.collect()
                tracemalloc.start()
            for sql in round_statements(i):
                result = execute(sql)
                if sql.startswith("SELECT"):
                    assert len(result.rows) == ROWS
                del result
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("surface", ["session", "server"])
def test_forty_scans_leave_no_residue(surface):
    engine = make_engine()
    if surface == "session":
        execute = engine.execute
    else:
        execute = DualTableServer(engine).connect().execute
    growth = heap_growth(execute)
    assert growth < BOUND, "heap grew %d bytes over rounds 10-%d" % (
        growth, ROUNDS)


# ----------------------------------------------------------------------
# Nothing outlives a session.
# ----------------------------------------------------------------------
_COLUMNS = "(k int, v int, s string)"
_PK = "(k int, v int, s string) PRIMARY KEY (k) STORED AS DUALTABLE"

#: table flavour -> CREATE TABLE body of ``t``.
FLAVOURS = {
    "orc": _COLUMNS + " STORED AS ORC",
    "hbase": _COLUMNS + " STORED AS HBASE",
    "orc-partitioned": _COLUMNS + " PARTITIONED BY (d string)",
    "acid": _COLUMNS + " STORED AS ACID",
    "dualtable": _COLUMNS + " STORED AS DUALTABLE TBLPROPERTIES "
                            "('orc.rows_per_file' = '16')",
    "dualtable-pk": _PK + " TBLPROPERTIES ('orc.rows_per_file' = '16')",
    "dualtable-sharded": _PK + " SHARDED BY (k) INTO 3",
}

DUALTABLES = ("dualtable", "dualtable-pk", "dualtable-sharded")


def flavour_statements(flavour):
    """Every statement kind ``flavour`` supports, in a valid order."""
    values = ", ".join("(%d, %d, 'r%d'%s)" % (
        k, k % 7, k, ", 'd%d'" % (k % 2) if flavour == "orc-partitioned"
        else "") for k in range(64))
    yield "INSERT INTO t VALUES " + values
    yield "CREATE TABLE src (k int, v int, s string)"
    yield "INSERT INTO src VALUES (1, 100, 'm1'), (99, 9, 'm99')"
    dualtable = flavour in DUALTABLES
    if dualtable:
        for mode in ("overwrite", "cost", "edit"):
            yield "ALTER TABLE t SET DUALTABLE (mode = '%s')" % mode
            yield "UPDATE t SET v = v + 1 WHERE k < 40"
    else:
        yield "UPDATE t SET v = v + 1 WHERE k < 40"
    yield "UPDATE t SET s = 'keyed' WHERE k = 5"
    yield "DELETE FROM t WHERE k >= 60"
    yield "DELETE FROM t WHERE k IN (SELECT k + 50 FROM src)"
    yield ("MERGE INTO t USING src ON t.k = src.k "
           "WHEN MATCHED THEN UPDATE SET v = src.v"
           + ("" if flavour == "orc-partitioned" else
              " WHEN NOT MATCHED THEN INSERT VALUES (src.k, src.v, src.s)"))
    yield "SELECT * FROM t WHERE k = 7"
    yield "SELECT s, count(*), sum(v) FROM t GROUP BY s"
    yield "EXPLAIN ANALYZE SELECT * FROM t WHERE k < 3"
    if flavour in ("hbase", "acid") or dualtable:
        yield "COMPACT TABLE t"
    if dualtable:
        yield "ALTER TABLE t SET AUTOCOMPACT (ON, horizon = 1000000)"
        yield "UPDATE t SET v = 0 WHERE k < 30"      # then a daemon tick
        yield "DELETE FROM t WHERE k = 2"
        yield "COMPACT TABLE t PARTIAL"
        yield "SHOW COMPACTIONS"
        yield "SHOW ADVISOR"
        yield "ANALYZE WORKLOAD APPLY"
    if flavour in ("dualtable-pk", "dualtable-sharded"):
        yield "SET dualtable.plan = lookup"
        yield "SELECT k, v FROM t WHERE k = 9"
        yield "SET dualtable.plan = cost"
    if flavour == "dualtable-sharded":
        yield "SHOW SHARDS t"
        yield "ALTER TABLE t REBALANCE"
    if flavour == "orc-partitioned":
        yield "ALTER TABLE t DROP PARTITION (d = 'd1')"
    yield "DROP TABLE src"


def run_server_phase(engine):
    """Two sessions race on one row (a conflict retry on a DualTable)
    while a third is killed with its statement queued."""
    server = DualTableServer(engine, concurrency=2)
    a, b, c = (server.connect(tenant) for tenant in "abc")
    now = server.now
    server.run([Arrival(now, a, "UPDATE t SET v = v + 5 WHERE k = 3"),
                Arrival(now, b, "UPDATE t SET v = v + 7 WHERE k = 3"),
                Arrival(now, c, "UPDATE t SET v = v + 9 WHERE k = 4")],
               kills=[(now + 1e-6, c.id)])
    assert a.execute("SHOW SESSIONS").rows


def run_flavour(flavour, workers):
    """Build and run one session; return weak references to what it
    built and the pool threads it started."""
    before = set(threading.enumerate())
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers))
    session.execute("CREATE TABLE t " + FLAVOURS[flavour])
    for sql in flavour_statements(flavour):
        session.execute(sql)
    run_server_phase(session)
    counter = session.cluster.metrics.counter
    assert counter("server.sessions_killed") == 1
    if flavour in DUALTABLES:
        assert counter("server.conflict_retries") >= 1
        assert counter("dualtable.autocompact.compactions") >= 1
    refs = [weakref.ref(session.cluster), weakref.ref(session.hbase),
            weakref.ref(session.table("t").handler)]
    threads = [t for t in threading.enumerate() if t not in before]
    return refs, threads


def run_shell():
    """A traced shell session over a DualTable."""
    out = io.StringIO()
    shell = HiveShell(HiveSession(profile=ClusterProfile.laptop()),
                      out=out)
    for line in ("TRACE ON", "CREATE TABLE t " + FLAVOURS["dualtable-pk"],
                 "INSERT INTO t VALUES (1, 1, 'a'), (2, 2, 'b')",
                 "UPDATE t SET v = 9 WHERE k = 1", "SELECT * FROM t",
                 "SELECT * FROM missing", "!tables", "!ledger",
                 "SHOW METRICS", "TRACE OFF"):
        shell.handle_line(line)
    assert "ERROR" in out.getvalue()
    return [weakref.ref(shell.session.cluster)], []


def cyclic_garbage(scenario):
    """Run ``scenario`` with the cycle collector off.  Returns whether
    each object it built was freed on return, its threads, and the
    ``repro`` types of every object a collect then finds unreachable."""
    gc.collect()
    gc.disable()
    try:
        refs, threads = scenario()
        freed = [ref() is None for ref in refs]
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = sorted({type(obj).__qualname__ for obj in gc.garbage
                        if type(obj).__module__.startswith("repro.")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return freed, threads, found


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_dropped_session_is_freed_by_refcount(flavour, workers):
    freed, threads, found = cyclic_garbage(
        lambda: run_flavour(flavour, workers))
    assert found == []
    assert all(freed)
    if workers > 1 and flavour != "hbase":      # one region: one split
        assert any(t.name.startswith("repro-pool") for t in threads)
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive(), thread.name


def test_dropped_shell_is_freed_by_refcount():
    freed, _, found = cyclic_garbage(run_shell)
    assert found == []
    assert all(freed)
