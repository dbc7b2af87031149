"""Tests for the simulated HDFS: namespace, blocks, replication, failure."""

import pytest

from repro.cluster import Cluster, ClusterProfile
from repro.common.errors import (FileAlreadyExistsError,
                                 FileNotFoundHdfsError, HdfsError,
                                 ImmutableFileError)
from repro.hdfs import HdfsFileSystem


@pytest.fixture
def fs():
    cluster = Cluster(ClusterProfile(name="t", nodes=5))
    return HdfsFileSystem(cluster, num_datanodes=5, replication=3)


class TestNamespace:
    def test_write_and_read_roundtrip(self, fs):
        data = b"hello hdfs" * 100
        fs.write_file("/a/b/file.txt", data)
        assert fs.read_file("/a/b/file.txt") == data

    def test_mkdirs_and_listdir(self, fs):
        fs.mkdirs("/w/x/y")
        fs.write_file("/w/x/f1", b"1")
        fs.write_file("/w/x/f2", b"2")
        assert fs.listdir("/w/x") == ["f1", "f2", "y"]

    def test_exists_and_kinds(self, fs):
        fs.write_file("/d/f", b"x")
        assert fs.exists("/d/f")
        assert fs.is_file("/d/f")
        assert fs.is_dir("/d")
        assert not fs.is_file("/d")
        assert not fs.exists("/nope")

    def test_parent_dirs_created_implicitly(self, fs):
        fs.write_file("/p/q/r/s.txt", b"x")
        assert fs.is_dir("/p/q/r")

    def test_create_over_existing_fails(self, fs):
        fs.write_file("/f", b"x")
        with pytest.raises(FileAlreadyExistsError):
            fs.create("/f")

    def test_read_missing_fails(self, fs):
        with pytest.raises(FileNotFoundHdfsError):
            fs.read_file("/missing")

    def test_relative_path_rejected(self, fs):
        with pytest.raises(HdfsError):
            fs.write_file("relative/path", b"x")

    def test_delete_file(self, fs):
        fs.write_file("/f", b"x")
        fs.delete("/f")
        assert not fs.exists("/f")

    def test_delete_dir_requires_recursive(self, fs):
        fs.write_file("/d/f", b"x")
        with pytest.raises(HdfsError):
            fs.delete("/d")
        fs.delete("/d", recursive=True)
        assert not fs.exists("/d")
        assert not fs.exists("/d/f")

    def test_rename_file(self, fs):
        fs.write_file("/old", b"data")
        fs.rename("/old", "/new/place")
        assert not fs.exists("/old")
        assert fs.read_file("/new/place") == b"data"

    def test_rename_directory_moves_children(self, fs):
        fs.write_file("/src/a", b"1")
        fs.write_file("/src/b", b"2")
        fs.rename("/src", "/dst")
        assert fs.read_file("/dst/a") == b"1"
        assert fs.read_file("/dst/b") == b"2"
        assert not fs.exists("/src/a")

    def test_rename_over_existing_fails(self, fs):
        fs.write_file("/a", b"1")
        fs.write_file("/b", b"2")
        with pytest.raises(FileAlreadyExistsError):
            fs.rename("/a", "/b")

    def test_list_files_sorted(self, fs):
        fs.write_file("/t/part-2", b"2")
        fs.write_file("/t/part-1", b"1")
        fs.write_file("/t/sub/part-3", b"3")
        assert fs.list_files("/t") == ["/t/part-1", "/t/part-2",
                                       "/t/sub/part-3"]

    def test_file_and_dir_size(self, fs):
        fs.write_file("/t/a", b"x" * 10)
        fs.write_file("/t/b", b"x" * 20)
        assert fs.file_size("/t/a") == 10
        assert sum(map(fs.file_size, fs.list_files("/t"))) == 30


class TestWriteOnce:
    def test_write_after_close_rejected(self, fs):
        handle = fs.create("/f")
        handle.write(b"x")
        handle.close()
        with pytest.raises(ImmutableFileError):
            handle.write(b"y")

    def test_context_manager_closes(self, fs):
        with fs.create("/f") as handle:
            handle.write(b"abc")
        assert fs.read_file("/f") == b"abc"

    def test_double_close_is_noop(self, fs):
        handle = fs.create("/f")
        handle.close()
        handle.close()


class TestBlocks:
    def test_large_file_splits_into_blocks(self):
        cluster = Cluster(ClusterProfile(name="t", nodes=3,
                                         hdfs_block_size=1024))
        fs = HdfsFileSystem(cluster, num_datanodes=3)
        data = bytes(range(256)) * 20     # 5120 bytes = 5 blocks
        fs.write_file("/big", data)
        inode = fs.namenode.lookup("/big")
        assert len(inode.blocks) == 5
        assert fs.read_file("/big") == data

    def test_replication_factor_respected(self, fs):
        fs.write_file("/f", b"x" * 100)
        inode = fs.namenode.lookup("/f")
        for block in inode.blocks:
            assert len(block.replicas) == 3

    def test_replication_capped_by_live_nodes(self):
        cluster = Cluster(ClusterProfile(name="t", nodes=2))
        fs = HdfsFileSystem(cluster, num_datanodes=2, replication=3)
        fs.write_file("/f", b"x")
        block = fs.namenode.lookup("/f").blocks[0]
        assert len(block.replicas) == 2


class TestCharging:
    def test_writes_and_reads_charged(self, fs):
        before = fs.cluster.ledger.bytes_for("hdfs", "write")
        fs.write_file("/f", b"x" * 1000)
        assert fs.cluster.ledger.bytes_for("hdfs", "write") - before == 1000
        fs.read_file("/f")
        assert fs.cluster.ledger.bytes_for("hdfs", "read") >= 1000

    def test_silent_read_not_charged(self, fs):
        fs.write_file("/f", b"x" * 1000)
        before = fs.cluster.ledger.bytes_for("hdfs", "read")
        fs.read_file_silent("/f")
        assert fs.cluster.ledger.bytes_for("hdfs", "read") == before

    def test_replication_traffic_tracked_separately(self, fs):
        fs.write_file("/f", b"x" * 100)
        assert fs.cluster.ledger.bytes_for("hdfs", "replicate") == 200


class TestFailureInjection:
    def test_read_survives_single_datanode_failure(self, fs):
        data = b"important" * 50
        fs.write_file("/f", data)
        fs.kill_datanode(0)
        assert fs.read_file("/f") == data

    def test_re_replication_restores_factor(self, fs):
        fs.write_file("/f", b"x" * 100)
        fs.kill_datanode(0)
        created = fs.re_replicate()
        block = fs.namenode.lookup("/f").blocks[0]
        live_holders = [nid for nid in block.replicas
                        if fs.namenode.datanodes[nid].alive]
        assert len(live_holders) == 3
        # Some blocks may not have lived on dn0, so created >= 0; at
        # least the replication invariant holds for every block.
        assert created >= 0

    def test_total_loss_raises(self, fs):
        fs.write_file("/f", b"x")
        for i in range(5):
            fs.kill_datanode(i)
        with pytest.raises(HdfsError):
            fs.read_file("/f")

    def test_revive_brings_replicas_back(self, fs):
        fs.write_file("/f", b"x")
        for i in range(5):
            fs.kill_datanode(i)
        for i in range(5):
            fs.revive_datanode(i)
        assert fs.read_file("/f") == b"x"

    def test_delete_drops_replicas(self, fs):
        fs.write_file("/f", b"x" * 100)
        used_before = sum(dn.used_bytes for dn in fs.datanodes)
        fs.delete("/f")
        used_after = sum(dn.used_bytes for dn in fs.datanodes)
        assert used_before > 0
        assert used_after == 0
