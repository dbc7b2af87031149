"""Tests for the MapReduce engine: execution, shuffle, makespan model."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterProfile
from repro.common.errors import TaskFailedError
from repro.mapreduce import InputSplit, Job, JobRunner, stable_hash
from repro.mapreduce.runner import _makespan


@pytest.fixture
def runner():
    return JobRunner(Cluster(ClusterProfile.laptop()))


def _splits(n_splits=4, per_split=50):
    return [InputSplit(payload=list(range(i * per_split,
                                          (i + 1) * per_split)),
                       size_bytes=per_split * 8, label="s%d" % i)
            for i in range(n_splits)]


class _Record:
    """An output record that, unlike a list or tuple, takes a weakref."""


class TestExecution:
    def test_map_only_preserves_split_order(self, runner):
        job = Job("scan", _splits(), lambda s, ctx: iter(s.payload), None)
        result = runner.run(job)
        assert result.outputs == list(range(200))
        assert result.num_map_tasks == 4
        assert result.num_reduce_tasks == 0

    def test_wordcount_style_aggregation(self, runner):
        def map_fn(split, ctx):
            for v in split.payload:
                yield v % 5, 1

        def reduce_fn(key, values, ctx):
            yield key, sum(values)

        result = runner.run(Job("count", _splits(), map_fn, reduce_fn,
                                num_reducers=3))
        assert sorted(result.outputs) == [(i, 40) for i in range(5)]

    def test_counters_aggregated(self, runner):
        def map_fn(split, ctx):
            for v in split.payload:
                ctx.incr("seen")
                yield v % 2, v

        def reduce_fn(key, values, ctx):
            ctx.incr("groups")
            yield key

        result = runner.run(Job("c", _splits(), map_fn, reduce_fn))
        assert result.counters["seen"] == 200
        assert result.counters["groups"] == 2

    def test_combiner_reduces_shuffle_volume(self, runner):
        def map_fn(split, ctx):
            for v in split.payload:
                yield v % 2, 1

        def combiner(key, values, ctx):
            yield key, sum(values)

        def reduce_fn(key, values, ctx):
            yield key, sum(values)

        plain = runner.run(Job("plain", _splits(), map_fn, reduce_fn))
        combined = runner.run(Job("comb", _splits(), map_fn, reduce_fn,
                                  combiner_fn=combiner))
        assert sorted(plain.outputs) == sorted(combined.outputs)
        assert combined.shuffle_bytes < plain.shuffle_bytes

    def test_map_failure_wrapped(self, runner):
        def bad_map(split, ctx):
            raise ValueError("boom")
            yield  # pragma: no cover

        with pytest.raises(TaskFailedError, match="map task 0"):
            runner.run(Job("bad", _splits(1), bad_map, None))

    def test_reduce_failure_wrapped(self, runner):
        def map_fn(split, ctx):
            yield 1, 1

        def bad_reduce(key, values, ctx):
            raise RuntimeError("kaput")
            yield  # pragma: no cover

        with pytest.raises(TaskFailedError, match="reduce task"):
            runner.run(Job("bad", _splits(1), map_fn, bad_reduce))

    def test_empty_splits(self, runner):
        result = runner.run(Job("empty", [], lambda s, c: iter(()), None))
        assert result.outputs == []
        assert result.num_map_tasks == 0

    def test_history_recorded(self, runner):
        """The runner records no history: a finished job's output records
        live as long as the caller holds its result, map-only or reduced."""
        map_only = Job("scan", _splits(2, 3),
                       lambda s, c: (_Record() for _ in s.payload), None)
        reduced = Job("agg", _splits(2, 3),
                      lambda s, c: ((v % 2, v) for v in s.payload),
                      lambda key, values, ctx: iter([_Record()]))
        for job, n_records in ((map_only, 6), (reduced, 2)):
            result = runner.run(job)
            refs = [weakref.ref(record) for record in result.outputs]
            assert len(refs) == n_records
            gc.collect()
            assert all(ref() is not None for ref in refs)
            del result
            gc.collect()
            assert [ref() for ref in refs] == [None] * n_records
        assert not hasattr(runner, "history")

    def test_history_consistent_after_failure(self, runner):
        """A failed job between two good ones leaves the results the
        caller holds intact, and nothing of either outlives its result."""
        def bad_map(split, ctx):
            raise ValueError("boom")
            yield  # pragma: no cover

        def record_job(name):
            return Job(name, _splits(1, 3),
                       lambda s, c: (_Record() for _ in s.payload), None)

        ok = runner.run(record_job("ok"))
        with pytest.raises(TaskFailedError):
            runner.run(Job("bad", _splits(1), bad_map, None))
        after = runner.run(record_job("after"))
        assert [ok.name, after.name] == ["ok", "after"]
        refs = [weakref.ref(record)
                for record in ok.outputs + after.outputs]
        gc.collect()
        assert len(refs) == 6 and all(ref() is not None for ref in refs)
        del ok, after
        gc.collect()
        assert [ref() for ref in refs] == [None] * 6

    def test_map_failure_chains_cause_and_names_task(self, runner):
        def bad_map(split, ctx):
            raise ValueError("boom")
            yield  # pragma: no cover

        with pytest.raises(TaskFailedError) as err:
            runner.run(Job("badjob", _splits(2), bad_map, None))
        assert isinstance(err.value.__cause__, ValueError)
        assert "map task 0 of badjob" in str(err.value)
        assert "boom" in str(err.value)

    def test_reduce_failure_names_key_and_chains_cause(self, runner):
        def map_fn(split, ctx):
            yield "k", 1

        def bad_reduce(key, values, ctx):
            raise RuntimeError("kaput")
            yield  # pragma: no cover

        with pytest.raises(TaskFailedError) as err:
            runner.run(Job("badjob", _splits(1), map_fn, bad_reduce))
        assert isinstance(err.value.__cause__, RuntimeError)
        assert "'k'" in str(err.value)

    def test_mixed_type_reduce_keys_sort_deterministically(self, runner):
        """Python 3 cannot order int vs str keys; the runner must."""
        def map_fn(split, ctx):
            yield 2, "int-key"
            yield "b", "str-key"
            yield (1, "x"), "tuple-key"
            yield None, "none-key"

        def reduce_fn(key, values, ctx):
            yield key, len(list(values))

        result = runner.run(Job("mixed", _splits(2), map_fn, reduce_fn,
                                num_reducers=1))
        assert len(result.outputs) == 4
        # Deterministic across runs: keys grouped by (type name, repr).
        again = runner.run(Job("mixed2", _splits(2), map_fn, reduce_fn,
                               num_reducers=1))
        assert result.outputs == again.outputs


class TestTiming:
    def test_job_includes_startup(self, runner):
        result = runner.run(Job("t", _splits(1),
                                lambda s, c: iter(()), None))
        assert result.sim_seconds >= runner.cluster.profile.job_startup_s

    def test_more_io_means_longer_job(self):
        cluster = Cluster(ClusterProfile.laptop())
        runner = JobRunner(cluster)

        def cheap(split, ctx):
            return iter(())

        def expensive(split, ctx):
            ctx.cluster.charge_hdfs_read(10_000_000)
            return iter(())

        fast = runner.run(Job("fast", _splits(2), cheap, None))
        slow = runner.run(Job("slow", _splits(2), expensive, None))
        assert slow.sim_seconds > fast.sim_seconds

    def test_hbase_time_serialized_not_parallelized(self):
        """HBase charges add to the job serially (shared region servers)."""
        profile = ClusterProfile(name="t", nodes=4,
                                 map_slots_per_node=6,
                                 job_startup_s=0.0, task_overhead_s=0.0,
                                 hbase_write_bps=1024 * 1024,
                                 hbase_op_latency_s=0.0)
        runner = JobRunner(Cluster(profile))

        def map_fn(split, ctx):
            ctx.cluster.charge_hbase_write(1024 * 1024)    # 1s each
            return iter(())

        result = runner.run(Job("hb", _splits(8), map_fn, None))
        # 8 tasks x 1s of HBase time: parallel would be ~1s; serialized is 8.
        assert result.sim_seconds == pytest.approx(8.0, abs=0.2)

    def test_hdfs_time_parallelized_over_slots(self):
        profile = ClusterProfile(name="t", nodes=4,
                                 map_slots_per_node=2,
                                 job_startup_s=0.0, task_overhead_s=0.0,
                                 hdfs_read_bps=8 * 1024 * 1024)
        runner = JobRunner(Cluster(profile))

        def map_fn(split, ctx):
            # 1 MB at a per-slot rate of 1 MB/s -> 1s per task.
            ctx.cluster.charge_hdfs_read(1024 * 1024)
            return iter(())

        result = runner.run(Job("io", _splits(8), map_fn, None))
        # 8 tasks over 8 slots in one wave -> ~1s.
        assert result.sim_seconds == pytest.approx(1.0, abs=0.2)


class TestMakespan:
    def test_single_slot_is_sum(self):
        assert _makespan([1.0, 2.0, 3.0], 1) == 6.0

    def test_enough_slots_is_max(self):
        assert _makespan([1.0, 2.0, 3.0], 3) == 3.0

    def test_two_slots_greedy(self):
        # FIFO onto earliest-free slot: [3] and [1,2] -> makespan 3.
        assert _makespan([3.0, 1.0, 2.0], 2) == 3.0

    def test_empty(self):
        assert _makespan([], 4) == 0.0


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))

    def test_distinct(self):
        values = {stable_hash(("key", i)) for i in range(100)}
        assert len(values) > 90

    def test_handles_mixed_types(self):
        for key in (None, 1.5, "x", (1, "a", None), True):
            assert isinstance(stable_hash(key), int)

    def test_int_str_none_keys_hash_as_they_always_did(self):
        """Shard layouts and reducer assignment of existing data must not
        move: only bool / integral-float keys were re-homed."""
        pinned = {5: 2226203566, -1: 808273962, "x": 2159005666,
                  None: 3751981041, ("a", 1): 2745452491,
                  (None, "k", 7): 2166387969, 2 ** 40: 1057089833,
                  1.5: 2270993338, (1.5, "a"): 3452302210}
        for key, value in pinned.items():
            assert stable_hash(key) == value, key

    def test_bulk_hashes_equal_one_call_per_key(self):
        from repro.mapreduce.job import stable_hashes
        for keys in ([], [5, -1, 0, 2 ** 70, 7], [1, 1.0, True, 2],
                     ["x", "\udc80", "é"], [None, 1.5, ("a", 1), 3],
                     [float("nan"), 4]):
            assert stable_hashes(keys) == [stable_hash(k) for k in keys]

    def test_equal_keys_of_different_type_hash_equal(self):
        assert stable_hash(1) == stable_hash(1.0) == stable_hash(True)
        assert stable_hash(0) == stable_hash(-0.0) == stable_hash(False)
        assert stable_hash((1, "a")) == stable_hash((1.0, "a")) \
            == stable_hash((True, "a"))
        assert stable_hash(((2.0,), None)) == stable_hash(((2,), None))
        assert stable_hash(1e300) == stable_hash(int(1e300))
        for odd in (float("inf"), float("-inf"), float("nan")):
            assert isinstance(stable_hash(odd), int)
        assert stable_hash("1") != stable_hash(1)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_equality(self, data):
        """``a == b`` implies ``stable_hash(a) == stable_hash(b)``."""
        scalar = st.one_of(
            st.integers(-3, 3), st.booleans(),
            st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, 0.5, 1e16]),
            st.integers(-2 ** 70, 2 ** 70),
            st.floats(allow_nan=False), st.sampled_from(["", "1", "a"]))
        key = st.recursive(scalar, lambda inner: st.lists(
            inner, max_size=3).map(tuple), max_leaves=6)
        a = data.draw(key)

        def variants(value):
            if isinstance(value, tuple):
                return st.tuples(*map(variants, value))
            same = [value]
            if isinstance(value, (bool, int, float)):
                same += [kind(value) for kind in (int, float, bool)
                         if value == value and abs(value) != float("inf")
                         and kind(value) == value]
            return st.sampled_from(same)

        b = data.draw(variants(a))
        assert a == b
        assert stable_hash(a) == stable_hash(b)

    def test_join_on_int_equals_double_does_not_depend_on_reducers(self):
        """Regression: with 18 reducers ``a.x = b.y`` over int 1..8 and
        double 1.0..8.0 returned 0 rows (8 with one reducer), because
        ``repr(1) != repr(1.0)`` partitioned the two sides apart."""
        from repro.hive import HiveSession

        for profile in (ClusterProfile.paper_tpch_cluster(),
                        ClusterProfile.laptop()):
            session = HiveSession(profile=profile)
            session.execute("CREATE TABLE a (x int)")
            session.execute("CREATE TABLE b (y double)")
            session.load_rows("a", [(i,) for i in range(1, 9)])
            session.load_rows("b", [(float(i),) for i in range(1, 9)])
            rows = session.execute(
                "SELECT a.x, b.y FROM a JOIN b ON a.x = b.y").rows
            assert sorted(rows) == [(i, float(i)) for i in range(1, 9)]
