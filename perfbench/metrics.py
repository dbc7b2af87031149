"""The benchmark's metric tables: names, units, directions, bounds.

``BENCHMARK.json`` lists the same names (``tests/test_harness.py`` holds
the two together).  Two kinds of metric:

* ``t`` — timed on the wall clock and scaled to machine speed 1.0 (see
  ``harness.py``); differs run to run, judged by a relative bound on
  medians;
* ``x`` — exact: simulated seconds and ledger bytes.  With one client
  and no timers they repeat bit for bit for one seed, so ``compare.py``
  holds them to 1e-9; the bound in ``BENCHMARK.json`` is wider only
  because the driver compares runs of *different* seeds.

The driver's contract wants every end-to-end metric on every workload,
so ``END_TO_END`` holds the metrics all four workloads have; the
workload-specific headline numbers (``HEADLINE``) are printed with the
per-layer metrics and keep their own bound in ``compare.py``.
"""

from collections import namedtuple
from statistics import median, quantiles

from perfbench.trace import LAYERS, UNTRACED

Metric = namedtuple("Metric", "name unit better kind bound help")

EXACT_BOUND = 1e-9

END_TO_END = [
    Metric("setup_s", "s", "lower", "t", 0.25,
           "imports + median over the repetitions of building the "
           "workload's initial state (DDL, load, pre-dirty)"),
    Metric("wall_s", "s", "lower", "t", 0.20,
           "wall seconds of the measured region at machine speed 1.0: sum "
           "over its statements of each one's fastest scaled execution"),
    Metric("peak_rss_mb", "MB", "lower", "t", 0.15,
           "ru_maxrss of the workload process"),
    Metric("sim_s", "s", "lower", "x", 0.06,
           "simulated seconds charged in the measured region"),
    Metric("write_mb", "MB", "lower", "x", 0.06,
           "ledger hdfs.write + hdfs.replicate + hbase.write bytes of "
           "the measured region, compactions included"),
    Metric("read_mb", "MB", "lower", "x", 0.06,
           "ledger hdfs.read + hbase.scan + hbase.read bytes of the "
           "measured region"),
]

#: workload-specific end-to-end numbers (0 where a workload has none).
HEADLINE = [
    Metric("dml_p50_ms", "ms", "lower", "t", 0.10,
           "median wall latency of UPDATE/DELETE statements"),
    Metric("lookup_p50_ms", "ms", "lower", "t", 0.10,
           "median wall latency of PK point reads"),
    Metric("lookup_p95_ms", "ms", "lower", "t", 0.10,
           "p95 wall latency of PK point reads"),
    Metric("scan_warm_rows_per_s", "rows/s", "higher", "t", 0.10,
           "master rows scanned / wall over the five query shapes, "
           "median of the warm rounds"),
    Metric("scan_cold_rows_per_s", "rows/s", "higher", "t", 0.10,
           "same, caches cleared before every statement"),
    Metric("scan_clean_rows_per_s", "rows/s", "higher", "t", 0.10,
           "same, after COMPACT (zero deltas)"),
    Metric("compact_s", "s", "lower", "t", 0.10,
           "wall seconds of the COMPACT statements"),
    Metric("write_bytes_per_dml_row", "B/row", "lower", "x", EXACT_BOUND,
           "ledger write bytes / rows updated or deleted"),
    Metric("read_bytes_per_row", "B/row", "lower", "x", EXACT_BOUND,
           "ledger read bytes / rows returned by SELECTs"),
    Metric("fail_ratio", "ratio", "lower", "x", EXACT_BOUND,
           "statements that raised or disagreed with the row model / "
           "statements attempted"),
    Metric("raw_wall_s", "s", "lower", "t", None,
           "wall seconds of the measured region as the clock read them: "
           "mean over the repetitions, not scaled"),
    Metric("cpu_s", "s", "lower", "t", None,
           "CPU seconds of the measured region, mean over the repetitions"),
    Metric("steal_ratio", "ratio", "lower", "t", None,
           "(wall - cpu) / wall over every execution: the share of the "
           "measured region the process was not running"),
    Metric("machine_speed", "ratio", "higher", "t", None,
           "PROBE_REF / median probe: 1.0 is the reference box when quiet"),
]

STMT_KINDS = ["upd_in", "del_in", "upd_range", "upd_point", "scan", "filter",
              "agg", "join", "topk", "lookup", "range_read",
              "compact_partial", "compact_full"]
DML_KINDS = ("upd_in", "del_in", "upd_range", "upd_point")
PK_READ_KINDS = ("lookup", "range_read")
COMPACT_KINDS = ("compact_partial", "compact_full")


def _layer(name, unit, better="lower", help=""):
    return Metric(name, unit, better, "layer", None, help)


#: read from cluster.metrics.counters / ledger in the untraced run.
COUNTERS = [
    _layer("parallel.cache.orc_hit_ratio", "ratio", "higher"),
    _layer("parallel.cache.delta_hit_ratio", "ratio", "higher"),
    _layer("parallel.cache.orc_evictions", "count"),
    _layer("parallel.cache.orc_used_mb", "MB"),
    _layer("core.union_read.rows", "count"),
    _layer("core.union_read.dirty_batch_ratio", "ratio"),
    _layer("core.union_read.deltas_applied", "count"),
    _layer("core.lookup.plan_ratio", "ratio", "higher"),
    _layer("core.lookup.rows_examined_per_row", "rows/row"),
    _layer("mapreduce.jobs", "count"),
    _layer("mapreduce.tasks_per_stmt", "count"),
    _layer("hdfs.read_bytes", "B"),
    _layer("hdfs.write_bytes", "B"),
    _layer("hbase.scan_bytes", "B"),
    _layer("hbase.write_bytes", "B"),
    _layer("hbase.ops", "count"),
    _layer("core.attached.space_ratio", "ratio"),
    _layer("core.cost_model.rel_error_p95", "ratio"),
]

STMT_STATS = [
    _layer("stmt.%s.%s" % (kind, stat), unit)
    for kind in STMT_KINDS
    for stat, unit in (("n", "count"), ("p50_ms", "ms"), ("p95_ms", "ms"))]

#: from the traced pass.
TRACED = [
    _layer("%s.%s" % (layer, stat), unit)
    for layer in LAYERS + [UNTRACED]
    for stat, unit in (("self_s", "s"), ("calls", "count"))
] + [_layer("trace.overhead_ratio", "ratio")]

PER_LAYER = HEADLINE + COUNTERS + STMT_STATS + TRACED

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))        # ceil(n * q)
    return ordered[int(rank) - 1]


def spread(values):
    """``(median, q1, q3)``; the quartiles are the driver's
    ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return median(values), q1, q3
