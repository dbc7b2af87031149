"""No statement's rows outlive it.

A long-lived session or server runs statement after statement; what it
keeps between them must be bounded (the byte-budgeted caches, the ORC
writer memo, the pruned commit log), so a SELECT's rows are freed once
its caller drops the result.  Forty rounds of ``SELECT *`` over a
5 000-row DualTable, interleaved with UPDATE and COMPACT, must not grow
the traced heap between round 10 and round 40.
"""

import gc
import tracemalloc

import pytest

from repro.cluster import ClusterProfile
from repro.common.units import MB
from repro.hive import HiveSession
from repro.server import DualTableServer

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
