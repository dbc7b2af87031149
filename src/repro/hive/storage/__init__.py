"""Storage handlers: the Hive InputFormat/OutputFormat/SerDe seam.
``OrcHdfsHandler`` serves ORC tables, partitioned or not."""

from repro.hive.storage.base import StorageHandler
from repro.hive.storage.hbase_handler import HBaseTableHandler
from repro.hive.storage.orc_handler import OrcHdfsHandler

__all__ = ["StorageHandler", "HBaseTableHandler", "OrcHdfsHandler"]
