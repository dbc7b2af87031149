"""Second-pass edge tests across the substrates."""

import pytest

from repro.cluster import Cluster, ClusterProfile
from repro.common.errors import HdfsError
from repro.hbase import HBaseService
from repro.hdfs import HdfsFileSystem
from repro.mapreduce import InputSplit, Job, JobRunner, estimate_record_bytes
from repro.orc import OrcReader, OrcWriter, write_orc


@pytest.fixture
def cluster():
    return Cluster(ClusterProfile(name="edge", nodes=3))


class TestHdfsEdges:
    def test_exact_block_boundary(self, cluster):
        fs = HdfsFileSystem(cluster, num_datanodes=3)
        fs.block_size = 100
        data = b"x" * 300                        # exactly 3 blocks
        fs.write_file("/f", data)
        inode = fs.namenode.lookup("/f")
        assert [b.length for b in inode.blocks] == [100, 100, 100]
        assert fs.read_file("/f") == data

    def test_streaming_write_across_blocks(self, cluster):
        fs = HdfsFileSystem(cluster, num_datanodes=3)
        fs.block_size = 64
        with fs.create("/f") as handle:
            for i in range(10):
                handle.write(bytes([i]) * 25)    # 250 bytes in dribbles
        assert fs.file_size("/f") == 250
        assert len(fs.namenode.lookup("/f").blocks) == 4

    def test_empty_file(self, cluster):
        fs = HdfsFileSystem(cluster, num_datanodes=3)
        fs.write_file("/empty", b"")
        assert fs.file_size("/empty") == 0
        assert fs.read_file("/empty") == b""

    def test_mkdirs_idempotent_and_nested(self, cluster):
        fs = HdfsFileSystem(cluster, num_datanodes=3)
        fs.mkdirs("/a/b/c")
        fs.mkdirs("/a/b/c")
        fs.mkdirs("/a/b")
        assert fs.is_dir("/a/b/c")

    def test_cannot_create_file_under_file(self, cluster):
        fs = HdfsFileSystem(cluster, num_datanodes=3)
        fs.write_file("/f", b"x")
        with pytest.raises(HdfsError):
            fs.write_file("/f/child", b"y")

    def test_delete_root_children_only(self, cluster):
        fs = HdfsFileSystem(cluster, num_datanodes=3)
        fs.write_file("/a", b"x")
        fs.delete("/a")
        assert fs.listdir("/") == []

    def test_trailing_slash_normalized(self, cluster):
        fs = HdfsFileSystem(cluster, num_datanodes=3)
        fs.mkdirs("/dir/")
        assert fs.is_dir("/dir")

    def test_double_slash_normalized(self, cluster):
        fs = HdfsFileSystem(cluster, num_datanodes=3)
        fs.write_file("/a//b", b"x")
        assert fs.read_file("/a/b") == b"x"


class TestOrcEdges:
    SCHEMA = [("a", "int"), ("s", "string")]

    def test_single_row_file(self):
        data = write_orc(self.SCHEMA, [(1, "only")])
        reader = OrcReader(data)
        assert reader.read_all() == [(0, (1, "only"))]

    def test_stripe_rows_of_one(self):
        data = write_orc(self.SCHEMA, [(i, "r") for i in range(5)],
                         stripe_rows=1)
        reader = OrcReader(data)
        assert len(reader.stripes) == 5

    def test_huge_integers_roundtrip(self):
        values = [(2**50, "big"), (-2**50, "neg"), (0, "zero")]
        data = write_orc(self.SCHEMA, values)
        assert [v for _, v in OrcReader(data).rows()] == values

    def test_unicode_strings(self):
        values = [(1, "héllo"), (2, "电网"), (3, "emoji ✓")]
        data = write_orc(self.SCHEMA, values)
        assert [v for _, v in OrcReader(data).rows()] == values

    def test_column_index_lookup(self):
        reader = OrcReader(write_orc(self.SCHEMA, [(1, "x")]))
        assert reader.column_index("s") == 1
        from repro.common.errors import CorruptOrcFileError
        with pytest.raises(CorruptOrcFileError):
            reader.column_index("nope")

    def test_dictionary_threshold_behaviour(self):
        # Few distinct values -> dictionary smaller than direct storage.
        repeats = [(i, "v%d" % (i % 4)) for i in range(2000)]
        distinct = [(i, "value-%06d" % i) for i in range(2000)]
        assert len(write_orc(self.SCHEMA, repeats)) < len(
            write_orc(self.SCHEMA, distinct))

    def test_writer_num_rows_property(self):
        writer = OrcWriter(self.SCHEMA)
        writer.write_rows([(1, "a"), (2, "b")])
        assert writer.num_rows == 2


class TestHBaseEdges:
    def test_scan_empty_table(self, cluster):
        table = HBaseService(cluster).create_table("t")
        assert list(table.scan()) == []

    def test_scan_from_midpoint_key_not_present(self, cluster):
        table = HBaseService(cluster).create_table("t")
        table.put(b"a", {b"q": b"1"})
        table.put(b"c", {b"q": b"2"})
        assert [r for r, _ in table.scan(b"b")] == [b"c"]

    def test_put_same_row_multiple_qualifiers_one_ts(self, cluster):
        table = HBaseService(cluster).create_table("t")
        ts = table.put(b"r", {b"a": b"1", b"b": b"2"})
        got = table.get(b"r", versions=2)
        assert got[b"a"] == [(ts, b"1")]

    def test_explicit_timestamps_respected(self, cluster):
        table = HBaseService(cluster).create_table("t")
        table.put(b"r", {b"q": b"late"}, ts=100)
        table.put(b"r", {b"q": b"early"}, ts=50)
        assert table.get(b"r") == {b"q": b"late"}

    def test_delete_then_put_same_ts_put_loses(self, cluster):
        table = HBaseService(cluster).create_table("t")
        table.put(b"r", {b"q": b"v"}, ts=10)
        table.delete_column(b"r", b"q", ts=10)
        assert table.get(b"r") is None

    def test_region_split_points_route_writes(self, cluster):
        table = HBaseService(cluster).create_table(
            "t", split_points=[b"h", b"p"])
        for row in (b"a", b"k", b"z"):
            table.put(row, {b"q": row})
        sizes = [r.cell_count() for r in table.regions]
        assert sizes == [1, 1, 1]


class TestMapReduceEdges:
    def test_estimate_record_bytes_empty(self):
        assert estimate_record_bytes([]) == 0

    def test_estimate_scales_with_count(self):
        small = estimate_record_bytes([("abc", 1)] * 10)
        large = estimate_record_bytes([("abc", 1)] * 1000)
        assert large == pytest.approx(small * 100, rel=0.01)

    def test_reduce_with_single_reducer_many_keys(self, cluster):
        runner = JobRunner(cluster)

        def map_fn(split, ctx):
            for v in split.payload:
                yield v, 1

        def reduce_fn(key, values, ctx):
            yield key, sum(values)

        job = Job("one-reducer",
                  [InputSplit(payload=list(range(50)), size_bytes=400)],
                  map_fn, reduce_fn, num_reducers=1)
        result = runner.run(job)
        assert len(result.outputs) == 50
        assert result.num_reduce_tasks == 1

    def test_mixed_key_types_partition_deterministically(self, cluster):
        runner = JobRunner(cluster)

        def map_fn(split, ctx):
            yield ("tuple", 1), "a"
            yield 7, "b"
            yield "string", "c"
            yield None, "d"

        def reduce_fn(key, values, ctx):
            yield key

        job = Job("mixed", [InputSplit(payload=None, size_bytes=0)],
                  map_fn, reduce_fn, num_reducers=4)
        result = runner.run(job)
        assert len(result.outputs) == 4
