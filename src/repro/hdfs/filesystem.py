"""Client-facing HDFS filesystem facade.

:class:`HdfsFileSystem` is what the rest of the library uses: create
(write-once) files, stream them back, list directories, delete, rename.
Every byte written or read is charged to the cluster ledger at HDFS
sequential rates.
"""

import io

from repro.common.errors import HdfsError, ImmutableFileError
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode


class HdfsWriteHandle:
    """Write-once output stream; splits data into blocks on the fly."""

    def __init__(self, fs, inode):
        self._fs = fs
        self._inode = inode
        self._buffer = bytearray()
        self._closed = False

    def write(self, data):
        if self._closed:
            raise ImmutableFileError("write after close: %s" % self._inode.path)
        self._buffer.extend(data)
        block_size = self._fs.block_size
        while len(self._buffer) >= block_size:
            chunk = bytes(self._buffer[:block_size])
            del self._buffer[:block_size]
            self._fs._write_block(self._inode, chunk)
        return len(data)

    def close(self):
        if self._closed:
            return
        if self._buffer:
            self._fs._write_block(self._inode, bytes(self._buffer))
            self._buffer.clear()
        self._fs.namenode.close_file(self._inode)
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    @property
    def path(self):
        return self._inode.path


class HdfsFileSystem:
    """The HDFS client API used by ORC, HBase persistence and Hive."""

    def __init__(self, cluster, num_datanodes=None, replication=None):
        self.cluster = cluster
        profile = cluster.profile
        n = num_datanodes or max(1, profile.nodes)
        self.datanodes = [DataNode("dn%02d" % i) for i in range(n)]
        self.namenode = NameNode(
            self.datanodes,
            replication=replication or profile.hdfs_replication,
            seed=cluster.seed,
        )
        self.block_size = profile.hdfs_block_size

    # ------------------------------------------------------------------
    # Write path.
    # ------------------------------------------------------------------
    def create(self, path, replication=None):
        inode = self.namenode.create_file(path, replication)
        return HdfsWriteHandle(self, inode)

    def write_file(self, path, data):
        """Create ``path`` holding ``data`` in one call."""
        with self.cluster.tracer.span("substrate", "hdfs:write", path=path):
            with self.create(path) as handle:
                handle.write(data)
        return len(data)

    def _write_block(self, inode, data):
        # datanode_loss faults fire here (non-raising): the pipeline
        # routes around the dead node via replica placement.
        self.cluster.faults.hit("hdfs.write_block", path=inode.path)
        self.namenode.allocate_block(inode, data)
        # The client pays for one stream; pipeline replication happens on
        # cluster-internal links and is tracked separately for visibility.
        self.cluster.charge_hdfs_write(len(data))
        extra = (inode.replication - 1) * len(data)
        if extra > 0:
            self.cluster._charge("hdfs", "replicate", nbytes=extra, seconds=0.0)

    # ------------------------------------------------------------------
    # Read path.
    # ------------------------------------------------------------------
    def read_file(self, path):
        """Read a whole file, charging sequential-read time."""
        inode = self._file_inode(path)
        out = io.BytesIO()
        for block in inode.blocks:
            out.write(self.namenode.read_block(block))
        data = out.getvalue()
        with self.cluster.tracer.span("substrate", "hdfs:read", path=path):
            self.cluster.charge_hdfs_read(len(data))
        return data

    def read_file_silent(self, path):
        """Read file bytes *without* charging (metadata/footer peeks)."""
        inode = self._file_inode(path)
        return b"".join(self.namenode.read_block(b) for b in inode.blocks)

    def charge_read(self, nbytes):
        """Charge a partial sequential read (columnar projection reads)."""
        with self.cluster.tracer.span("substrate", "hdfs:read"):
            self.cluster.charge_hdfs_read(nbytes)

    # ------------------------------------------------------------------
    # Namespace.
    # ------------------------------------------------------------------
    def exists(self, path):
        return self.namenode.exists(path)

    def is_file(self, path):
        return self.namenode.is_file(path)

    def is_dir(self, path):
        return self.namenode.is_dir(path)

    def mkdirs(self, path):
        self.namenode.mkdirs(path)

    def listdir(self, path):
        return self.namenode.listdir(path)

    def list_files(self, path):
        """Paths of all files under a directory, sorted."""
        return [inode.path for inode in self.namenode.files_under(path)]

    def file_size(self, path):
        return self._file_inode(path).length

    def delete(self, path, recursive=False):
        return self.namenode.delete(path, recursive=recursive)

    def rename(self, src, dst):
        self.namenode.rename(src, dst)

    # ------------------------------------------------------------------
    # Failure injection.
    # ------------------------------------------------------------------
    def kill_datanode(self, index):
        self.cluster.metrics.incr("hdfs.datanodes_killed")
        self.datanodes[index].kill()

    def revive_datanode(self, index):
        self.datanodes[index].revive()

    def re_replicate(self):
        restored = self.namenode.re_replicate()
        if restored:
            self.cluster.metrics.incr("hdfs.re_replicated_blocks", restored)
        return restored

    def _file_inode(self, path):
        inode = self.namenode.lookup(path)
        if not hasattr(inode, "blocks"):
            raise HdfsError("not a file: %s" % path)
        return inode
