"""Cluster hardware/configuration profiles.

A :class:`ClusterProfile` describes the simulated cluster that all
subsystems (HDFS, HBase, MapReduce) charge their I/O against.  The default
rates follow the worked example in Section IV of the paper:

* aggregate HDFS write throughput ~1 GB/s ("multiple Map tasks"),
* aggregate HBase read/write throughput 0.5 GB/s and 0.8 GB/s,

and the evaluation-section cluster shape: 8-core nodes configured with up
to 6 mappers and 2 reducers each, 64 MB HDFS chunks, 3 replicas.

Because this reproduction executes on laptop-scale data, the profile also
carries ``byte_scale``/``op_scale`` multipliers: the bench harness sets
them to ``paper_rows / generated_rows`` so that *simulated* seconds land in
the same ballpark as the paper's measurements while the actual in-memory
data stays small.  Scaling multiplies charged time only; raw ledger byte
counters always record true bytes.
"""

from dataclasses import dataclass, field

from repro.common.units import GB, MB


@dataclass
class ClusterProfile:
    """Static description of the simulated cluster."""

    name: str = "default"
    #: simulated worker nodes (map/reduce slots and datanodes); not the
    #: host worker pool's ``workers``.
    nodes: int = 9
    map_slots_per_node: int = 6
    reduce_slots_per_node: int = 2

    # HDFS: aggregate sequential throughput across the whole cluster.
    hdfs_read_bps: float = 1.2 * GB
    hdfs_write_bps: float = 1.0 * GB
    hdfs_block_size: int = 64 * MB
    hdfs_replication: int = 3

    # HBase: aggregate random-access throughput plus per-operation latency.
    # Charged at aggregate rates and serialized at the job level (region
    # servers are a shared resource; see repro.cluster.cluster).
    hbase_read_bps: float = 0.5 * GB
    hbase_write_bps: float = 0.8 * GB
    hbase_op_latency_s: float = 1.6e-6      # amortized per put/get (batched)
    hbase_scan_row_latency_s: float = 1.6e-7

    # MapReduce overheads.
    job_startup_s: float = 8.0
    task_overhead_s: float = 1.0
    shuffle_bps: float = 0.8 * GB
    cpu_row_cost_s: float = 0.4e-6        # per row of operator processing
    #: extra per-row cost of the UNION READ merge path (the Attached-Table
    #: "function invocation is inevitable" overhead the paper measures in
    #: Figure 4, present even when the Attached Table is empty).
    unionread_row_cost_s: float = 0.5e-6

    # Fault tolerance: per-task retry with exponential backoff, plus
    # speculative re-execution of stragglers (Hadoop's mapred.map.tasks.
    # speculative.execution).  Backoff seconds are charged to the ledger
    # so recovery is visible in the simulated time model.
    max_task_attempts: int = 4
    retry_backoff_s: float = 1.0
    speculative_execution: bool = True
    #: a task is a straggler when its duration exceeds this multiple of
    #: the job's median task duration.
    speculative_threshold: float = 3.0

    # Real-parallelism knobs (repro.parallel): how many OS threads
    # execute task attempts concurrently, plus the byte budgets of the
    # wall-clock caches.  None of these change any simulated quantity —
    # results, ledger charges and sim_seconds are byte-identical for
    # every ``workers`` value and cache state (docs/INTERNALS.md §6).
    workers: int = 1
    orc_cache_bytes: int = 64 * MB
    delta_cache_bytes: int = 16 * MB

    # Simulated-scale multipliers (see module docstring).
    byte_scale: float = 1.0
    op_scale: float = 1.0

    extra: dict = field(default_factory=dict)

    @property
    def total_map_slots(self):
        return self.nodes * self.map_slots_per_node

    @property
    def total_reduce_slots(self):
        return self.nodes * self.reduce_slots_per_node

    def per_slot_rate(self, aggregate_bps, slots=None):
        """Throughput a single task sees when the cluster is saturated."""
        slots = slots or self.total_map_slots
        return aggregate_bps / max(1, slots)

    @classmethod
    def paper_grid_cluster(cls, **overrides):
        """26-node cluster used for the State Grid experiments (Sec. VI-A)."""
        params = dict(name="grid-26node", nodes=25)
        params.update(overrides)
        return cls(**params)

    @classmethod
    def paper_tpch_cluster(cls, **overrides):
        """10-node cluster used for the TPC-H experiments (Sec. VI-B)."""
        params = dict(name="tpch-10node", nodes=9)
        params.update(overrides)
        return cls(**params)

    @classmethod
    def laptop(cls, **overrides):
        """A tiny single-node profile for unit tests (no scaling)."""
        params = dict(
            name="laptop",
            nodes=1,
            map_slots_per_node=2,
            reduce_slots_per_node=1,
            job_startup_s=0.5,
            task_overhead_s=0.05,
        )
        params.update(overrides)
        return cls(**params)
