"""Tests for repro.obs: tracer spans, metrics registry, trace export."""

import json

import pytest

from repro import obs
from repro.advisor.profiles import build_profile
from repro.cluster import Cluster, ClusterProfile
from repro.hive import HiveSession
from repro.obs.export import (load_trace, span_event, tracer_trace,
                              validate_trace, write_trace)
from repro.obs.registry import (Histogram, MetricsRegistry, bucket_index,
                                bucket_upper_bound)


@pytest.fixture
def dual_session():
    s = HiveSession(profile=ClusterProfile.laptop())
    s.execute("CREATE TABLE dt (id int, day string, v double) "
              "STORED AS DUALTABLE")
    s.load_rows("dt", [(i, "2013-07-%02d" % (1 + i % 20), float(i))
                       for i in range(400)])
    return s


# ----------------------------------------------------------------------
# Metrics registry.
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.incr("a")
        reg.incr("a", 4)
        reg.gauge("g", 7.5)
        assert reg.counter("a") == 5
        assert reg.snapshot()["gauges"]["g"] == 7.5

    def test_histogram_stats(self):
        hist = Histogram()
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.mean == 2.0
        assert hist.vmin == 1.0 and hist.vmax == 3.0

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.incr("x", 2)
        b.incr("x", 3)
        b.observe("h", 1.0)
        a.merge(b)
        assert a.counter("x") == 5
        assert a.histogram("h").count == 1

    def test_rows_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.incr("z.counter")
        reg.gauge("a.gauge", 1)
        reg.observe("m.hist", 2.0)
        rows = reg.rows()
        assert [r[0] for r in rows] == ["a.gauge", "m.hist", "z.counter"]
        assert {r[1] for r in rows} == {"gauge", "histogram", "counter"}

    def test_reset(self):
        reg = MetricsRegistry()
        reg.incr("x")
        reg.reset()
        assert reg.counter("x") == 0

    def test_bucket_index_brackets_value(self):
        # Every positive value lands in the bucket whose upper bound is
        # the smallest 10**(i/5) >= value.
        for value in (1e-6, 0.004, 0.99, 1.0, 1.0001, 7.3, 1e4):
            i = bucket_index(value)
            assert value <= bucket_upper_bound(i) * (1 + 1e-12)
            assert value > bucket_upper_bound(i - 1) * (1 - 1e-12)
        assert bucket_index(0.0) is None
        assert bucket_index(-3.0) is None

    def test_quantiles_hit_bucket_upper_bounds(self):
        hist = Histogram()
        for v in (0.001, 0.01, 0.1, 1.0, 10.0):
            hist.observe(v)
        # p50 -> rank 3 of 5 -> the 0.1 bucket's upper bound.
        assert hist.p50 == pytest.approx(bucket_upper_bound(
            bucket_index(0.1)))
        assert hist.p99 == pytest.approx(bucket_upper_bound(
            bucket_index(10.0)))

    def test_quantiles_insensitive_to_observation_order(self):
        values = [0.003, 7.0, 0.2, 0.2, 55.0, 0.0, 1.0, 0.03]
        a, b = Histogram(), Histogram()
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        # Merge order must not matter either (worker merge path).
        c, d = Histogram(), Histogram()
        for v in values[:4]:
            c.observe(v)
        for v in values[4:]:
            d.observe(v)
        c.merge(d)
        for h in (b, c):
            assert (h.p50, h.p95, h.p99) == (a.p50, a.p95, a.p99)
            assert h.buckets == a.buckets
            assert (h.count, h.vmin, h.vmax) == (a.count, a.vmin, a.vmax)
            # Float addition is not associative, so only the running
            # total is approximate across orders.
            assert h.total == pytest.approx(a.total)

    @pytest.mark.parametrize("seed", range(12))
    def test_merge_order_independence_property(self, seed):
        """Property: partition any observation stream into per-worker
        partial histograms, merge the partials in ANY order, and the
        quantiles (plus count/min/max/buckets) come out identical to the
        single-histogram reference — the per-shard/per-worker metrics
        merge path can never smear a percentile."""
        import itertools
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 200)
        values = [0.0 if rng.random() < 0.1
                  else 10 ** rng.uniform(-6, 4) for _ in range(n)]
        reference = Histogram()
        for v in values:
            reference.observe(v)
        # Split into k partials at random cut points.
        k = rng.randint(1, 6)
        cuts = sorted(rng.randint(0, n) for _ in range(k - 1))
        parts = []
        for lo, hi in zip([0] + cuts, cuts + [n]):
            part = Histogram()
            for v in values[lo:hi]:
                part.observe(v)
            parts.append(part)
        orders = (list(itertools.permutations(range(len(parts))))
                  if len(parts) <= 3
                  else [rng.sample(range(len(parts)), len(parts))
                        for _ in range(6)])
        for order in orders:
            merged = Histogram()
            for index in order:
                merged.merge(parts[index])
            assert (merged.p50, merged.p95, merged.p99) \
                == (reference.p50, reference.p95, reference.p99), order
            assert merged.buckets == reference.buckets
            assert (merged.count, merged.vmin, merged.vmax) \
                == (reference.count, reference.vmin, reference.vmax)

    def test_rows_like_glob(self):
        reg = MetricsRegistry()
        reg.incr("dualtable.scans.t1")
        reg.incr("dualtable.scans.t2")
        reg.incr("mapreduce.jobs")
        reg.observe("statement.seconds", 0.5)
        # Bare prefix gets an implicit trailing *.
        names = [r[0] for r in reg.rows(like="dualtable.")]
        assert names == ["dualtable.scans.t1", "dualtable.scans.t2"]
        # Explicit glob is used verbatim.
        names = [r[0] for r in reg.rows(like="*.seconds")]
        assert names == ["statement.seconds"]
        assert reg.rows(like="nothing.*") == []

    def test_reset_gauges_by_prefix(self):
        reg = MetricsRegistry()
        reg.gauge("server.inflight", 3)
        reg.gauge("server.queue_depth", 2)
        reg.gauge("dualtable.attached_bytes.t", 10)
        reg.reset_gauges("server.")
        gauges = reg.snapshot()["gauges"]
        assert "server.inflight" not in gauges
        assert gauges["dualtable.attached_bytes.t"] == 10


# ----------------------------------------------------------------------
# Tracer.
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_returns_null_span_and_charges_nothing(self):
        cluster = Cluster(ClusterProfile.laptop())
        span = cluster.tracer.span("phase", "x")
        assert span is obs.NULL_SPAN
        with span:
            span.annotate(anything=1)
        assert cluster.ledger.total_seconds == 0.0
        assert cluster.tracer.spans == []

    def test_span_captures_charges_and_nesting(self):
        cluster = Cluster(ClusterProfile.laptop())
        cluster.tracer.enable()
        with cluster.tracer.span("statement", "outer") as outer:
            cluster.charge_hdfs_write(10 * 1024 * 1024)
            with cluster.tracer.span("phase", "inner") as inner:
                cluster.charge_hbase_read(1024 * 1024)
        assert inner.parent_id == outer.span_id
        assert inner.hbase_seconds > 0
        assert outer.seconds > inner.seconds
        assert outer.start_s <= inner.start_s <= inner.end_s <= outer.end_s
        assert [s.name for s in cluster.tracer.spans] == ["inner", "outer"]

    def test_disabled_tracing_does_not_change_costs(self):
        def run(trace):
            s = HiveSession(profile=ClusterProfile.laptop())
            if trace:
                s.cluster.tracer.enable()
            s.execute("CREATE TABLE t (a int, b string) "
                      "STORED AS DUALTABLE")
            s.load_rows("t", [(i, "v%d" % i) for i in range(300)])
            s.execute("UPDATE t SET b = 'x' WHERE a < 30")
            s.execute("SELECT count(*) FROM t WHERE b = 'x'")
            return s.cluster.ledger.total_seconds

        assert run(trace=False) == run(trace=True)

    def test_statement_trace_has_full_hierarchy(self, dual_session):
        tracer = dual_session.cluster.tracer
        tracer.enable()
        dual_session.execute("UPDATE dt SET v = 0 WHERE id < 40")
        kinds = {s.kind for s in tracer.spans}
        assert {"statement", "job", "task", "phase"} <= kinds
        stmt = [s for s in tracer.spans if s.kind == "statement"]
        assert len(stmt) == 1 and stmt[0].name == "update"
        assert "update" in stmt[0].attrs["plan"]
        jobs = [s for s in tracer.spans if s.kind == "job"]
        assert all(j.parent_id for j in jobs)

    def test_clear(self):
        cluster = Cluster(ClusterProfile.laptop())
        cluster.tracer.enable()
        with cluster.tracer.span("phase", "x"):
            pass
        cluster.tracer.clear()
        assert cluster.tracer.spans == []


# ----------------------------------------------------------------------
# Session-level metrics.
# ----------------------------------------------------------------------
class TestSessionMetrics:
    def test_plan_choice_and_audit_recorded(self, dual_session):
        result = dual_session.execute("UPDATE dt SET v = 1 WHERE id < 10")
        metrics = dual_session.cluster.metrics
        plan = result.detail["plan"]
        assert metrics.counter("dualtable.plan.%s" % plan) == 1
        assert metrics.counter("costmodel.audits") == 1
        assert metrics.histogram("costmodel.rel_error").count == 1
        audit = result.detail["audit"]
        assert audit["plan"] == plan
        assert audit["observed_seconds"] == pytest.approx(
            result.sim_seconds)
        assert audit["rel_error"] >= 0

    def test_statement_counters(self, dual_session):
        before = dual_session.cluster.metrics.counter("session.statements")
        dual_session.execute("SELECT count(*) FROM dt")
        metrics = dual_session.cluster.metrics
        assert metrics.counter("session.statements") == before + 1
        assert metrics.counter("session.statements.select") >= 1
        assert metrics.counter("mapreduce.jobs") >= 1
        assert metrics.counter("mapreduce.tasks") >= 1

    def test_unionread_and_compact_metrics(self):
        s = HiveSession(profile=ClusterProfile.laptop())
        s.execute("CREATE TABLE et (id int, v double) STORED AS DUALTABLE "
                  "TBLPROPERTIES ('dualtable.mode' = 'edit')")
        s.load_rows("et", [(i, float(i)) for i in range(300)])
        s.execute("UPDATE et SET v = 9 WHERE id < 5")
        s.execute("SELECT count(*) FROM et WHERE v = 9")
        metrics = s.cluster.metrics
        assert metrics.counter("unionread.files") > 0
        assert metrics.counter("unionread.deltas_applied") > 0
        s.execute("COMPACT TABLE et")
        assert metrics.counter("dualtable.compacts") == 1
        assert metrics.histogram("dualtable.compact.folded_bytes") \
                      .count == 1
        assert metrics.snapshot()["gauges"][
            "dualtable.attached_bytes.et"] == 0
        # PARTIAL counts per table too (the advisor's compact count).
        s.execute("UPDATE et SET v = 8 WHERE id < 5")
        s.execute("COMPACT TABLE et PARTIAL")
        assert metrics.counter("dualtable.compacts") == 2
        assert metrics.counter("dualtable.compacts.partial") == 1
        assert build_profile(s, "et").compacts == 2

    def test_clock_advances_by_statement_seconds(self, dual_session):
        start = dual_session.cluster.clock.now
        result = dual_session.execute("SELECT count(*) FROM dt")
        assert dual_session.cluster.clock.now == pytest.approx(
            start + result.sim_seconds)

    def test_show_metrics_statement(self, dual_session):
        dual_session.execute("SELECT count(*) FROM dt")
        result = dual_session.execute("SHOW METRICS")
        assert result.names == ["metric", "type", "value"]
        names = [row[0] for row in result.rows]
        assert "session.statements" in names
        assert "mapreduce.jobs" in names

    def test_show_metrics_like_filters_and_sorts(self, dual_session):
        dual_session.execute("SELECT count(*) FROM dt")
        dual_session.execute("UPDATE dt SET v = 0 WHERE id = 1")
        result = dual_session.execute("SHOW METRICS LIKE 'dualtable.'")
        names = [row[0] for row in result.rows]
        assert names == sorted(names)
        assert names and all(n.startswith("dualtable.") for n in names)
        # The filtered view is exactly the matching slice of the
        # unfiltered, deterministically-sorted listing.
        everything = dual_session.execute("SHOW METRICS").rows
        assert [r for r in everything
                if r[0].startswith("dualtable.")] == result.rows

    def test_statement_latency_histograms(self, dual_session):
        dual_session.execute("SELECT count(*) FROM dt")
        dual_session.execute("UPDATE dt SET v = 1 WHERE id = 2")
        metrics = dual_session.cluster.metrics
        overall = metrics.histogram("statement.seconds")
        assert overall.count >= 2
        assert metrics.histogram("statement.seconds.select").count == 1
        assert metrics.histogram("statement.seconds.update").count == 1
        assert overall.p95 >= overall.p50 > 0

    def test_fault_firings_counted(self):
        from repro.faults import Fault, FaultPlan

        session = HiveSession(profile=ClusterProfile.laptop())
        session.execute("CREATE TABLE t (a int)")
        session.load_rows("t", [(i,) for i in range(50)])
        session.cluster.faults.install(FaultPlan([
            Fault(point="mapreduce.map", nth_hit=1, kind="crash")]))
        session.execute("SELECT count(*) FROM t")
        metrics = session.cluster.metrics
        assert metrics.counter("faults.fired") >= 1
        assert metrics.counter("faults.fired.crash") >= 1
        assert metrics.counter("mapreduce.task_retries") >= 1


# ----------------------------------------------------------------------
# Export + validation.
# ----------------------------------------------------------------------
class TestExport:
    def test_span_event_fields(self):
        cluster = Cluster(ClusterProfile.laptop())
        cluster.tracer.enable()
        with cluster.tracer.span("phase", "x", color="red"):
            cluster.charge_hdfs_read(1024)
        event = span_event(cluster.tracer.spans[0], pid=1, tid=1)
        assert event["ph"] == "X" and event["name"] == "x"
        assert event["cat"] == "phase"
        assert event["args"]["color"] == "red"
        assert event["args"]["bytes"] == 1024
        assert event["dur"] >= 0

    def test_roundtrip_and_validate(self, dual_session, tmp_path):
        tracer = dual_session.cluster.tracer
        tracer.enable()
        dual_session.execute("UPDATE dt SET v = 2 WHERE id < 80")
        doc = tracer_trace(
            tracer, metrics=dual_session.cluster.metrics.snapshot())
        path = tmp_path / "t.trace.json"
        write_trace(str(path), doc)
        loaded = load_trace(str(path))
        errors = validate_trace(
            loaded,
            require_kinds=("statement", "job", "task", "substrate"))
        assert errors == []

    def test_validate_catches_orphans_and_bad_nesting(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0,
             "dur": 10.0, "cat": "task",
             "args": {"span_id": 1, "parent_id": 99}},
        ]}
        errors = validate_trace(doc)
        assert any("parent" in e for e in errors)

    def test_validate_catches_time_escape(self):
        doc = {"traceEvents": [
            {"name": "p", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0,
             "dur": 5.0, "cat": "job",
             "args": {"span_id": 1, "parent_id": None}},
            {"name": "c", "ph": "X", "pid": 1, "tid": 1, "ts": 2.0,
             "dur": 10.0, "cat": "task",
             "args": {"span_id": 2, "parent_id": 1}},
        ]}
        errors = validate_trace(doc)
        assert any("contain" in e or "extends" in e for e in errors)

    def test_profiling_collector_adopts_new_clusters(self):
        with obs.profiling() as collector:
            session = HiveSession(profile=ClusterProfile.laptop())
            assert session.cluster.tracer.enabled
            session.execute("CREATE TABLE t (a int)")
            session.load_rows("t", [(1,), (2,)])
            session.execute("SELECT count(*) FROM t")
        assert obs.active_collector() is None
        assert collector.span_count() > 0
        doc = collector.trace_document()
        assert validate_trace(doc) == []
        merged = collector.merged_metrics()
        assert merged.counter("session.statements") >= 2

    def test_trace_json_serializable(self, dual_session):
        tracer = dual_session.cluster.tracer
        tracer.enable()
        dual_session.execute("SELECT count(*) FROM dt")
        doc = tracer_trace(tracer)
        json.dumps(doc)  # must not raise
