"""Tests for the cluster substrate: clock, ledger, profile, charging."""

import pytest

from repro.cluster import Cluster, ClusterProfile, MetricsLedger
from repro.cluster.clock import SimClock
from repro.cluster.ledger import Charge
from repro.common.units import GB, MB


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(2.5)
        clock.advance(1.5)
        assert clock.now == 4.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_reset(self):
        clock = SimClock(10)
        clock.advance(5)
        clock.reset()
        assert clock.now == 0.0


class TestLedger:
    def _charge(self, subsystem="hdfs", op="read", nbytes=100, seconds=1.0):
        return Charge(subsystem=subsystem, op=op, nbytes=nbytes, nops=1,
                      seconds=seconds)

    def test_record_accumulates(self):
        ledger = MetricsLedger()
        ledger.record(self._charge())
        ledger.record(self._charge())
        assert ledger.bytes_for("hdfs", "read") == 200
        assert ledger.seconds_for("hdfs", "read") == 2.0
        assert ledger.total_seconds == 2.0

    def test_subsystem_rollup(self):
        ledger = MetricsLedger()
        ledger.record(self._charge(op="read"))
        ledger.record(self._charge(op="write"))
        assert ledger.bytes_for("hdfs") == 200
        assert ledger.ops_for("hdfs") == 2

    def test_scope_captures_only_active_window(self):
        ledger = MetricsLedger()
        ledger.record(self._charge())
        scope = ledger.push_scope("s")
        ledger.record(self._charge(seconds=3.0))
        ledger.pop_scope(scope)
        ledger.record(self._charge())
        assert scope.seconds == 3.0
        assert ledger.total_seconds == 5.0

    def test_nested_scopes_both_capture(self):
        ledger = MetricsLedger()
        outer = ledger.push_scope("outer")
        inner = ledger.push_scope("inner")
        ledger.record(self._charge(seconds=2.0))
        ledger.pop_scope(inner)
        ledger.record(self._charge(seconds=1.0))
        ledger.pop_scope(outer)
        assert inner.seconds == 2.0
        assert outer.seconds == 3.0

    def test_scope_lifo_enforced(self):
        ledger = MetricsLedger()
        outer = ledger.push_scope("outer")
        ledger.push_scope("inner")
        with pytest.raises(ValueError):
            ledger.pop_scope(outer)

    def test_scope_separates_hbase_seconds(self):
        ledger = MetricsLedger()
        scope = ledger.push_scope("s")
        ledger.record(self._charge(subsystem="hdfs", seconds=1.0))
        ledger.record(self._charge(subsystem="hbase", seconds=2.0))
        ledger.pop_scope(scope)
        assert scope.hbase_seconds == 2.0
        assert scope.parallel_seconds == 1.0
        assert scope.seconds == 3.0

    def test_reset(self):
        ledger = MetricsLedger()
        ledger.record(self._charge())
        ledger.reset()
        assert ledger.total_seconds == 0.0
        assert ledger.bytes_for("hdfs") == 0

    def test_snapshot(self):
        ledger = MetricsLedger()
        ledger.record(self._charge())
        snap = ledger.snapshot()
        assert snap["total_seconds"] == 1.0
        assert snap["bytes"][("hdfs", "read")] == 100

    def test_diff_since_snapshot_drops_zero_keys(self):
        ledger = MetricsLedger()
        ledger.record(self._charge(op="read"))
        before = ledger.snapshot()
        ledger.record(self._charge(op="write", nbytes=50, seconds=0.5))
        delta = ledger.diff(before)
        assert delta["total_seconds"] == 0.5
        assert delta["bytes"] == {("hdfs", "write"): 50}
        assert ("hdfs", "read") not in delta["seconds"]

    def test_scope_lookup_by_label(self):
        ledger = MetricsLedger()
        outer = ledger.push_scope("job")
        inner = ledger.push_scope("job")
        assert ledger.scope("job") is inner
        assert ledger.scope("missing") is None
        ledger.pop_scope(inner)
        assert ledger.scope("job") is outer
        assert ledger.active_scope_labels() == ["job"]

    def test_attached_scope_detaches_out_of_order(self):
        ledger = MetricsLedger()
        pushed = ledger.push_scope("task")
        span = ledger.attach_scope("span:x")
        ledger.record(self._charge(seconds=2.0))
        # attached scope above a pushed one does not break LIFO popping
        ledger.pop_scope(pushed)
        assert span.seconds == 2.0
        ledger.detach_scope(span)
        ledger.detach_scope(span)  # idempotent
        assert ledger.active_scope_labels() == []

    def test_attached_scope_tracks_hbase_split(self):
        ledger = MetricsLedger()
        span = ledger.attach_scope("span:hb")
        ledger.record(self._charge(subsystem="hbase", seconds=3.0))
        ledger.record(self._charge(subsystem="hdfs", seconds=1.0))
        ledger.detach_scope(span)
        assert span.hbase_seconds == 3.0
        assert span.parallel_seconds == 1.0


class TestProfile:
    def test_slot_totals(self):
        profile = ClusterProfile(nodes=9, map_slots_per_node=6,
                                 reduce_slots_per_node=2)
        assert profile.total_map_slots == 54
        assert profile.total_reduce_slots == 18

    def test_per_slot_rate(self):
        profile = ClusterProfile(nodes=2, map_slots_per_node=5)
        assert profile.per_slot_rate(100.0) == 10.0

    def test_factories(self):
        assert ClusterProfile.paper_grid_cluster().nodes == 25
        assert ClusterProfile.paper_tpch_cluster().nodes == 9
        assert ClusterProfile.laptop().nodes == 1

    def test_factory_overrides(self):
        profile = ClusterProfile.paper_grid_cluster(nodes=3)
        assert profile.nodes == 3


class TestClusterCharging:
    def test_hdfs_read_rate(self):
        profile = ClusterProfile(nodes=1, map_slots_per_node=1,
                                 hdfs_read_bps=100 * MB)
        cluster = Cluster(profile)
        charge = cluster.charge_hdfs_read(100 * MB)
        assert charge.seconds == pytest.approx(1.0)

    def test_hdfs_per_slot_division(self):
        profile = ClusterProfile(nodes=2, map_slots_per_node=5,
                                 hdfs_read_bps=100 * MB)
        cluster = Cluster(profile)
        charge = cluster.charge_hdfs_read(10 * MB)
        assert charge.seconds == pytest.approx(1.0)   # 10 slots share

    def test_hbase_uses_aggregate_rate(self):
        profile = ClusterProfile(nodes=4, map_slots_per_node=6,
                                 hbase_write_bps=100 * MB,
                                 hbase_op_latency_s=0.0)
        cluster = Cluster(profile)
        charge = cluster.charge_hbase_write(100 * MB)
        assert charge.seconds == pytest.approx(1.0)

    def test_byte_scale_multiplies_time_not_bytes(self):
        profile = ClusterProfile(nodes=1, map_slots_per_node=1,
                                 hdfs_read_bps=100 * MB, byte_scale=10.0)
        cluster = Cluster(profile)
        charge = cluster.charge_hdfs_read(100 * MB)
        assert charge.seconds == pytest.approx(10.0)
        assert cluster.ledger.bytes_for("hdfs", "read") == 100 * MB

    def test_op_scale_multiplies_op_latency(self):
        profile = ClusterProfile(hbase_write_bps=1 * GB,
                                 hbase_op_latency_s=1e-3, op_scale=10.0)
        cluster = Cluster(profile)
        charge = cluster.charge_hbase_write(0, nops=5)
        assert charge.seconds == pytest.approx(5 * 10 * 1e-3)

    def test_cpu_rows(self):
        profile = ClusterProfile(cpu_row_cost_s=1e-6)
        cluster = Cluster(profile)
        charge = cluster.charge_cpu_rows(1_000_000)
        assert charge.seconds == pytest.approx(1.0)

    def test_fixed_charge(self):
        cluster = Cluster(ClusterProfile())
        cluster.charge_fixed("mapreduce", "job_startup", 8.0)
        assert cluster.ledger.seconds_for("mapreduce",
                                          "job_startup") == 8.0

    def test_cost_scope_context_manager(self):
        cluster = Cluster(ClusterProfile.laptop())
        with cluster.cost_scope("x") as scope:
            cluster.charge_fixed("cpu", "misc", 2.0)
        assert scope.seconds == 2.0

    def test_reset_accounting(self):
        cluster = Cluster(ClusterProfile.laptop())
        cluster.charge_fixed("cpu", "misc", 2.0)
        cluster.reset_accounting()
        assert cluster.ledger.total_seconds == 0.0
