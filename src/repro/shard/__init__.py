"""Sharded scale-out: DualTables partitioned across region servers.

``repro.shard`` hash-partitions one logical DualTable — master ORC
files *and* the attached HBase table — across N simulated region
servers, with a bucket-based shard map, scatter-gather UNION READ,
owning-shard LOOKUP routing, and a deterministic shard rebalance
committed by the manifest 2PC (:mod:`repro.core.manifest`).
"""

from repro.shard.shardmap import ShardMap
from repro.shard.sharded import (NUM_BUCKETS, SHARD_COLUMNS,
                                 ShardedDualTableHandler)

__all__ = ["NUM_BUCKETS", "SHARD_COLUMNS", "ShardMap",
           "ShardedDualTableHandler"]
