"""The one ORC directory layout (:mod:`repro.orc.directory`): every table
that stores ORC files checks its ``orc.*`` properties at CREATE, and
every rewrite of ORC files is crash-atomic."""

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import AnalysisError, FaultInjectedError
from repro.faults import Fault, FaultPlan
from repro.hive import HiveSession
from repro.orc import OrcReader, directory

STORAGES = {
    "orc": "(k int, v int, p string) STORED AS ORC",
    "orc-partitioned": "(k int, v int) PARTITIONED BY (p string) "
                       "STORED AS ORC",
    "acid": "(k int, v int, p string) STORED AS ACID",
}
ROWS = [(k, 10 * k, "abc"[k % 3]) for k in range(48)]


def make_table(storage):
    session = HiveSession(profile=ClusterProfile.laptop())
    session.execute("CREATE TABLE t %s TBLPROPERTIES ("
                    "'orc.rows_per_file' = '6', 'orc.stripe_rows' = '3')"
                    % STORAGES[storage])
    session.load_rows("t", ROWS)
    session.execute("CREATE TABLE src (k int, v int, p string)")
    session.load_rows("src", [(k + 100, k, "abd"[k % 3]) for k in range(30)])
    if storage == "acid":
        session.execute("UPDATE t SET v = -1 WHERE k < 20")
        session.execute("DELETE FROM t WHERE k > 40")
    return session


def table_rows(session):
    return sorted(session.execute("SELECT * FROM t").rows)


class TestOrcPropertiesAtCreate:
    @pytest.mark.parametrize("storage", sorted(STORAGES))
    @pytest.mark.parametrize("key, value", [
        ("orc.rows_per_file", "-5"),      # lost every inserted row
        ("orc.rows_per_file", "0"),       # builtin ValueError at INSERT
        ("orc.stripe_rows", "0"),         # OrcError at the first INSERT
        ("orc.stripe_rows", "many"),      # builtin ValueError at CREATE
    ])
    def test_bad_value_is_rejected_at_create(self, session, storage, key,
                                             value):
        with pytest.raises(AnalysisError, match=key.replace(".", r"\.")):
            session.execute("CREATE TABLE t %s TBLPROPERTIES ('%s' = '%s')"
                            % (STORAGES[storage], key, value))
        assert not session.metastore.has_table("t")
        session.execute("CREATE TABLE t %s" % STORAGES[storage])
        session.execute("INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b')")
        assert session.execute("SELECT * FROM t ORDER BY k").rows \
            == [(1, 10, "a"), (2, 20, "b")]


#: (storage, statement) pairs: every rewrite of a table's ORC files.
REWRITES = [
    ("orc", "INSERT OVERWRITE TABLE t SELECT * FROM src"),
    ("orc", "UPDATE t SET v = -1 WHERE k < 30"),
    ("orc-partitioned", "INSERT OVERWRITE TABLE t SELECT * FROM src"),
    ("orc-partitioned", "UPDATE t SET v = -1 WHERE k < 30"),
    ("orc-partitioned", "DELETE FROM t WHERE p = 'b' OR k < 4"),
    ("acid", "INSERT OVERWRITE TABLE t SELECT * FROM src"),
    ("acid", "COMPACT TABLE t major"),
]


def statement_writes(storage, statement):
    """The HDFS block writes ``statement`` makes, and the rows after it."""
    session = make_table(storage)
    session.cluster.faults.install(FaultPlan())
    session.execute(statement)
    writes = session.cluster.faults.hit_count("hdfs.write_block")
    session.cluster.faults.uninstall()
    return writes, table_rows(session)


def leftovers(session):
    return [name for name in session.fs.listdir("/warehouse")
            if name.startswith("t.")]


class TestCrashAtomicRewrites:
    @pytest.mark.parametrize("which", ["first", "last"])
    @pytest.mark.parametrize("storage, statement", REWRITES)
    def test_crash_keeps_the_old_rows(self, storage, statement, which):
        writes, expected = statement_writes(storage, statement)
        assert writes > 1
        session = make_table(storage)
        handler = session.table("t").handler
        before = table_rows(session)
        partitions = handler.partitions() if storage != "acid" else None
        session.cluster.faults.install(FaultPlan([Fault(
            "hdfs.write_block", nth_hit=1 if which == "first" else writes,
            kind="crash")]))
        with pytest.raises(FaultInjectedError):
            session.execute(statement)
        session.cluster.faults.uninstall()
        assert table_rows(session) == before
        assert leftovers(session) == ["t.__tmp__"]
        if partitions is not None:      # staging is no partition
            assert handler.partitions() == partitions
        session.execute(statement)
        assert table_rows(session) == expected
        assert leftovers(session) == []


class TestUnpartitionedIsNotCopied:
    """A table without partition columns hands the writer its own row
    tuples and yields the reader's own batches."""

    def test_rows_reach_the_writer_uncopied(self, session, monkeypatch):
        session.execute("CREATE TABLE t (k int, v string) STORED AS ORC "
                        "TBLPROPERTIES ('orc.rows_per_file' = '4')")
        handler = session.table("t").handler
        rows = [(k, "v%d" % k) for k in range(10)]
        written = []

        def record(fs, path, schema, chunk, *args):
            written.extend(chunk)
            return b""
        monkeypatch.setattr(directory, "write_orc_file", record)
        handler.insert_rows(rows)
        assert len(written) == len(rows)
        assert all(got is row for got, row in zip(written, rows))

    def test_batches_are_the_readers(self, session, monkeypatch):
        session.execute("CREATE TABLE t (k int, v string) STORED AS ORC "
                        "TBLPROPERTIES ('orc.stripe_rows' = '4')")
        session.load_rows("t", [(k, "v%d" % k) for k in range(10)])
        handler = session.table("t").handler
        produced = []
        batches = OrcReader.batches

        def spy(self, *args, **kwargs):
            for batch in batches(self, *args, **kwargs):
                produced.append(batch)
                yield batch
        monkeypatch.setattr(OrcReader, "batches", spy)
        (split,) = handler.scan_splits(["v"])
        got = list(handler.read_split_batches(split, None))
        assert len(got) == 3
        assert all(a is b for a, b in zip(got, produced))
