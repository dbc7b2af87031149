"""Bench environment builders: scaled sessions per experiment.

Each experiment runs on a fresh session (the paper resets the system
between runs).  Data is generated at laptop scale; the cluster profile's
``byte_scale``/``op_scale`` are then set to the paper-to-generated ratio
so reported *simulated* seconds land at paper magnitude.

The bench cluster is a 4-worker profile (24 map slots / 8 reduce slots)
with *effective* device rates — raw hardware rates discounted for the
MapReduce overheads a 2014 Hadoop cluster actually saw.
"""

from dataclasses import dataclass

from repro.cluster import ClusterProfile
from repro.common.units import GB, MB
from repro.hive import HiveSession
from repro.workloads import smartgrid, tpch

#: assumed on-disk bytes per row in the paper's datasets.
GRID_PAPER_ROW_BYTES = 175      # 64 GB over ~365 M rows (Table II)
TPCH_PAPER_ROW_BYTES = 128      # 23 GB over 180 M lineitem rows


@dataclass(frozen=True)
class BenchScale:
    """How much data to generate relative to the paper."""

    name: str
    tpch_orders: int
    grid_fraction: float

    def grid_rows(self, table):
        return smartgrid.scaled_rows(table, self.grid_fraction)


SCALES = {
    "tiny": BenchScale(name="tiny", tpch_orders=250, grid_fraction=2e-5),
    "small": BenchScale(name="small", tpch_orders=900, grid_fraction=8e-5),
    "medium": BenchScale(name="medium", tpch_orders=2500,
                         grid_fraction=2.5e-4),
}

#: wall-clock worker threads for every bench session (``--workers``).
#: Simulated output is byte-identical for any value (repro.parallel).
WORKERS = 1


def set_workers(workers):
    """Set the pool width used by every subsequently built session."""
    global WORKERS
    WORKERS = max(1, int(workers))


def _new_session(profile_name):
    return HiveSession(profile=bench_profile(profile_name))


def bench_profile(name="bench"):
    """Effective-rate cluster profile used for every experiment."""
    return ClusterProfile(
        name=name,
        nodes=4,
        map_slots_per_node=6,
        reduce_slots_per_node=2,
        hdfs_read_bps=0.4 * GB,
        hdfs_write_bps=0.25 * GB,
        hbase_read_bps=80 * MB,
        hbase_write_bps=100 * MB,
        shuffle_bps=0.2 * GB,
        job_startup_s=8.0,
        task_overhead_s=1.0,
        workers=WORKERS,
    )


def _storage_properties(storage, n_rows, profile_extra=None):
    """Table properties sized so scans parallelize over the bench slots."""
    rows_per_file = max(50, -(-n_rows // 24))       # ceil(n / 24 slots)
    stripe_rows = max(50, rows_per_file // 4)
    props = {"orc.rows_per_file": rows_per_file,
             "orc.stripe_rows": stripe_rows}
    props.update(profile_extra or {})
    return props


# ----------------------------------------------------------------------
# TPC-H environments.
# ----------------------------------------------------------------------
def tpch_session(storage, scale, mode=None, tables=("lineitem", "orders"),
                 read_factor=None):
    """Fresh session with the TPC-H tables loaded under ``storage``."""
    session = _new_session("tpch-bench")
    est_lineitems = scale.tpch_orders * 4
    extra = {}
    if mode is not None:
        extra["dualtable.mode"] = mode
    if read_factor is not None:
        extra["dualtable.read_factor"] = read_factor
    properties = _storage_properties(storage, est_lineitems, extra)
    counts = tpch.load_tpch(session, scale.tpch_orders, storage=storage,
                            properties=properties, tables=tables)
    _apply_tpch_scaling(session, counts)
    return session


def _apply_tpch_scaling(session, counts):
    profile = session.cluster.profile
    actual_rows = counts.get("lineitem") or next(iter(counts.values()))
    paper_rows = (tpch.PAPER_LINEITEM_ROWS if "lineitem" in counts
                  else tpch.PAPER_ORDERS_ROWS)
    table = "lineitem" if "lineitem" in counts else "orders"
    actual_bytes = max(1, session.table(table).handler.data_bytes())
    profile.op_scale = paper_rows / actual_rows
    profile.byte_scale = (paper_rows * TPCH_PAPER_ROW_BYTES) / actual_bytes


# ----------------------------------------------------------------------
# Grid environments.
# ----------------------------------------------------------------------
def grid_session(storage, scale, tables, mode=None, read_factor=None,
                 scaling_table=None):
    """Fresh session with the given grid tables loaded under ``storage``."""
    session = _new_session("grid-bench")
    extra = {}
    if mode is not None:
        extra["dualtable.mode"] = mode
    if read_factor is not None:
        extra["dualtable.read_factor"] = read_factor
    counts = {}
    for table in tables:
        n = scale.grid_rows(table)
        properties = _storage_properties(storage, n, extra)
        counts[table] = smartgrid.load_grid_table(
            session, table, n, storage=storage, properties=properties)
    _apply_grid_scaling(session, counts, scaling_table or tables[0])
    return session


def _apply_grid_scaling(session, counts, scaling_table):
    profile = session.cluster.profile
    actual_rows = counts[scaling_table]
    paper_rows = smartgrid.PAPER_ROW_COUNTS[scaling_table]
    actual_bytes = max(1, session.table(scaling_table).handler.data_bytes())
    profile.op_scale = paper_rows / actual_rows
    profile.byte_scale = (paper_rows * GRID_PAPER_ROW_BYTES) / actual_bytes


def profiled_experiment(experiment_fn, scale):
    """Run one experiment under a process-wide trace collector.

    Every cluster the experiment builds internally gets its tracer
    force-enabled; returns ``(result, trace_doc, metrics_registry)``.
    """
    from repro import obs

    with obs.profiling() as collector:
        result = experiment_fn(scale=scale)
    return result, collector.trace_document(), collector.merged_metrics()


def resolve_scale(scale):
    if isinstance(scale, BenchScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError("unknown scale %r (have: %s)"
                         % (scale, ", ".join(SCALES))) from None
