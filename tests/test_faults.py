"""Unit tests for the fault-injection subsystem itself."""

import pytest

from repro.common.errors import FaultInjectedError
from repro.common.rng import make_rng
from repro.faults import (INJECTION_POINTS, POINT_KINDS, Fault,
                          FaultInjector, FaultPlan)


class TestInjectorMechanics:
    def test_noop_without_plan(self):
        injector = FaultInjector()
        assert injector.hit("hbase.put") is None
        assert injector.hit_count("hbase.put") == 0   # not even counted

    def test_fires_at_exact_nth_hit(self):
        injector = FaultInjector()
        injector.install(FaultPlan([Fault("hbase.put", nth_hit=3)]))
        injector.hit("hbase.put")
        injector.hit("hbase.put")
        with pytest.raises(FaultInjectedError) as err:
            injector.hit("hbase.put")
        assert err.value.point == "hbase.put"
        assert err.value.nth_hit == 3
        assert not err.value.fatal

    def test_fires_at_most_once(self):
        injector = FaultInjector()
        injector.install(FaultPlan([Fault("mapreduce.map", nth_hit=1)]))
        with pytest.raises(FaultInjectedError):
            injector.hit("mapreduce.map")
        for _ in range(10):
            assert injector.hit("mapreduce.map") is None
        assert len(injector.fired) == 1

    def test_kill_is_fatal_crash_is_not(self):
        injector = FaultInjector()
        injector.install(FaultPlan([
            Fault("dualtable.compact.swap", nth_hit=1, kind="kill"),
            Fault("mapreduce.map", nth_hit=1, kind="crash"),
        ]))
        with pytest.raises(FaultInjectedError) as err:
            injector.hit("dualtable.compact.swap")
        assert err.value.fatal
        with pytest.raises(FaultInjectedError) as err:
            injector.hit("mapreduce.map")
        assert not err.value.fatal

    def test_action_kinds_run_bound_action(self):
        injector = FaultInjector()
        killed = []
        injector.bind("datanode_loss", killed.append)
        fault = Fault("hdfs.write_block", nth_hit=1, kind="datanode_loss")
        injector.install(FaultPlan([fault]))
        returned = injector.hit("hdfs.write_block")
        assert returned is fault        # non-raising kinds return the fault
        assert killed == [fault]

    def test_region_crash_runs_action_then_raises(self):
        injector = FaultInjector()
        crashed = []
        injector.bind("region_crash", crashed.append)
        injector.install(FaultPlan([
            Fault("hbase.put", nth_hit=1, kind="region_crash")]))
        with pytest.raises(FaultInjectedError):
            injector.hit("hbase.put")
        assert len(crashed) == 1

    def test_slow_faults_do_not_raise(self):
        injector = FaultInjector()
        injector.install(FaultPlan([
            Fault("mapreduce.map", nth_hit=1, kind="slow", factor=4.0)]))
        fault = injector.hit("mapreduce.map")
        assert fault.kind == "slow"
        assert fault.factor == 4.0

    def test_pause_suppresses_hits_entirely(self):
        injector = FaultInjector()
        injector.install(FaultPlan([Fault("hbase.put", nth_hit=1)]))
        with injector.paused():
            assert injector.hit("hbase.put") is None
        # Paused hits are not counted either: the fault still fires at
        # the first *observed* hit.
        with pytest.raises(FaultInjectedError):
            injector.hit("hbase.put")

    def test_install_resets_counters(self):
        injector = FaultInjector()
        injector.install(FaultPlan([Fault("hbase.put", nth_hit=2)]))
        injector.hit("hbase.put")
        injector.install(FaultPlan([Fault("hbase.put", nth_hit=2)]))
        injector.hit("hbase.put")
        with pytest.raises(FaultInjectedError):
            injector.hit("hbase.put")


class TestFaultPlans:
    def test_random_plan_is_deterministic_per_seed(self):
        plan_a = FaultPlan.random(make_rng("chaos", 7))
        plan_b = FaultPlan.random(make_rng("chaos", 7))
        assert plan_a.faults == plan_b.faults

    def test_random_plans_differ_across_seeds(self):
        plans = [FaultPlan.random(make_rng("chaos", s)).faults
                 for s in range(20)]
        assert any(p != plans[0] for p in plans[1:])

    def test_random_plan_uses_known_points_and_kinds(self):
        for seed in range(30):
            for fault in FaultPlan.random(make_rng("chaos", seed)):
                assert fault.point in INJECTION_POINTS
                assert fault.kind in POINT_KINDS[fault.point]
                assert fault.nth_hit >= 1


class TestPointRegistry:
    """The 2PC fault points are declared once, by the protocols; the
    chaos registries keep literal keys (``repro.faults`` cannot import
    ``repro.core``) and must agree with them."""

    def test_every_declared_2pc_step_is_a_registered_point(self):
        from repro.core.store import FULL_COMPACT, PARTIAL_COMPACT
        from repro.faults.chaos import SHARD_CHAOS_POINTS
        from repro.shard.sharded import rebalance_kind

        for kind in (FULL_COMPACT, PARTIAL_COMPACT):
            assert set(kind.steps) <= set(POINT_KINDS)
        assert set(rebalance_kind(4).steps) <= set(SHARD_CHAOS_POINTS)

    def test_chaos_registries_are_frozen(self):
        """Seeded schedules draw from these sorted keys: any change
        reshuffles every chaos seed's plan."""
        from repro.faults.chaos import SHARD_CHAOS_POINTS

        assert INJECTION_POINTS == (
            "dualtable.autocompact.tick", "dualtable.compact.cleanup",
            "dualtable.compact.manifest",
            "dualtable.compact.partial.delta_drop",
            "dualtable.compact.partial.manifest",
            "dualtable.compact.partial.swap",
            "dualtable.compact.partial.write", "dualtable.compact.swap",
            "dualtable.compact.swap2", "dualtable.compact.truncate",
            "dualtable.compact.write", "dualtable.dml.publish",
            "dualtable.dml.stage", "hbase.delete", "hbase.put",
            "hdfs.write_block", "mapreduce.map", "mapreduce.reduce")
        assert tuple(sorted(SHARD_CHAOS_POINTS)) == (
            "dualtable.rebalance.apply", "dualtable.rebalance.cleanup",
            "dualtable.rebalance.manifest", "dualtable.rebalance.spill",
            "hbase.put", "lookup.hbase_probe")
