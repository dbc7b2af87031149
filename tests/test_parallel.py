"""Unit tests for repro.parallel: pool, capture/replay, cache, gating."""

import threading

import pytest

from repro.cluster import Cluster, ClusterProfile
from repro.common.errors import TaskFailedError
from repro.faults import Fault, FaultPlan
from repro.mapreduce import InputSplit, Job, JobRunner
from repro.obs import MetricsRegistry
from repro.parallel import (ByteBudgetLRU, TaskRecorder, WorkerPool,
                            in_worker, parallel_map)


def make_cluster(workers=1):
    return Cluster(profile=ClusterProfile.laptop(workers=workers))


class TestWorkerPool:
    def test_results_in_submission_order(self):
        pool = WorkerPool(4)
        try:
            outcomes = pool.map([lambda i=i: i * i for i in range(20)])
            assert [o.unwrap() for o in outcomes] == [i * i
                                                     for i in range(20)]
        finally:
            pool.close()

    def test_serial_pool_runs_inline(self):
        pool = WorkerPool(1)
        assert not pool.parallel
        seen = []
        pool.map([lambda: seen.append(threading.current_thread().name)])
        assert seen == [threading.main_thread().name]

    def test_errors_are_outcomes_not_crashes(self):
        pool = WorkerPool(3)
        try:
            outcomes = pool.map([lambda: 1,
                                 lambda: 1 // 0,
                                 lambda: 3])
            assert outcomes[0].unwrap() == 1
            assert isinstance(outcomes[1].error, ZeroDivisionError)
            assert outcomes[2].unwrap() == 3
            with pytest.raises(ZeroDivisionError):
                outcomes[1].unwrap()
        finally:
            pool.close()

    def test_workers_are_tagged(self):
        pool = WorkerPool(2)
        try:
            assert not in_worker()
            flags = [o.unwrap()
                     for o in pool.map([in_worker, in_worker])]
            assert flags == [True, True]
            assert not in_worker()
        finally:
            pool.close()

    def test_nested_map_runs_inline(self):
        pool = WorkerPool(2)

        def outer():
            inner = [o.unwrap() for o in pool.map(
                [lambda: in_worker(), lambda: in_worker()])]
            return inner

        try:
            outcomes = pool.map([outer, outer])
            # Nested fan-out runs on the worker thread itself (still
            # tagged), never waits on fresh pool slots.
            assert [o.unwrap() for o in outcomes] == [[True, True]] * 2
        finally:
            pool.close()


class TestCaptureReplay:
    def test_capture_buffers_charges_then_replay_applies(self):
        cluster = make_cluster()
        with cluster.capture() as recorder:
            cluster.charge_hdfs_read(1000)
            cluster.metrics.incr("x.events", 2)
        assert cluster.ledger.total_seconds == 0.0
        assert cluster.metrics.counter("x.events") == 0
        assert len(recorder.charges) == 1
        recorder.replay(cluster)
        assert cluster.ledger.total_seconds > 0.0
        assert cluster.metrics.counter("x.events") == 2

    def test_replay_lands_in_active_scope(self):
        cluster = make_cluster()
        with cluster.capture() as recorder:
            cluster.charge_hdfs_read(4096)
        with cluster.cost_scope("t") as scope:
            recorder.replay(cluster)
        assert scope.seconds == pytest.approx(
            cluster.ledger.total_seconds)

    def test_nested_capture_bubbles_one_level(self):
        cluster = make_cluster()
        with cluster.capture() as outer:
            with cluster.capture() as inner:
                cluster.charge_hdfs_read(100)
            assert len(inner.charges) == 1 and not outer.charges
            inner.replay(cluster)
            assert len(outer.charges) == 1
        assert cluster.ledger.total_seconds == 0.0

    def test_capture_is_per_thread(self):
        cluster = make_cluster()
        seen = {}

        def worker():
            cluster.charge_hdfs_read(100)
            seen["seconds"] = cluster.ledger.total_seconds

        with cluster.capture() as recorder:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The other thread had no capture: its charge went straight to
        # the ledger; the main thread's recorder stayed empty.
        assert seen["seconds"] > 0.0
        assert not recorder.charges

    def test_replay_preserves_metric_event_kinds(self):
        cluster = make_cluster()
        with cluster.capture() as recorder:
            cluster.metrics.incr("c", 3)
            cluster.metrics.gauge("g", 7)
            cluster.metrics.observe("h", 1.5)
        recorder.replay(cluster)
        assert cluster.metrics.counter("c") == 3
        assert cluster.metrics.gauges["g"] == 7
        assert cluster.metrics.histogram("h").count == 1


class TestByteBudgetLRU:
    def test_hit_miss_and_counters(self):
        metrics = MetricsRegistry()
        cache = ByteBudgetLRU(100, metrics=metrics, name="cache.t")
        assert cache.get(("a",)) is None
        cache.put(("a",), "value", 10)
        assert cache.get(("a",)) == "value"
        assert metrics.counter("cache.t.misses") == 1
        assert metrics.counter("cache.t.hits") == 1

    def test_evicts_lru_past_budget(self):
        metrics = MetricsRegistry()
        cache = ByteBudgetLRU(100, metrics=metrics, name="cache.t")
        cache.put(("a",), 1, 40)
        cache.put(("b",), 2, 40)
        cache.get(("a",))               # refresh a; b is now LRU
        cache.put(("c",), 3, 40)
        assert ("b",) not in cache
        assert ("a",) in cache and ("c",) in cache
        assert metrics.counter("cache.t.evictions") == 1
        assert cache.used_bytes == 80

    def test_oversized_value_not_stored(self):
        cache = ByteBudgetLRU(10)
        cache.put(("big",), "x", 11)
        assert len(cache) == 0

    def test_zero_budget_stores_nothing(self):
        cache = ByteBudgetLRU(0)
        cache.put(("a",), 1, 1)
        assert cache.get(("a",)) is None

    def test_invalidate_group_by_prefix(self):
        metrics = MetricsRegistry()
        cache = ByteBudgetLRU(1000, metrics=metrics, name="cache.t")
        cache.put(("/w/t1/master/f1", "footer"), 1, 10)
        cache.put(("/w/t1/master/f2", "footer"), 2, 10)
        cache.put(("/w/t2/master/f1", "footer"), 3, 10)
        assert cache.invalidate_group("/w/t1/master") == 2
        assert ("/w/t2/master/f1", "footer") in cache
        assert cache.used_bytes == 10
        assert metrics.counter("cache.t.invalidations") == 2

    def test_invalidate_group_non_string_tag_by_equality(self):
        cache = ByteBudgetLRU(1000)
        cache.put((7, "x"), 1, 10)
        cache.put((77, "x"), 2, 10)
        assert cache.invalidate_group(7) == 1
        assert (77, "x") in cache

    def test_oversized_refresh_supersedes_the_old_entry(self):
        """``put(k, small)``; ``put(k, huge)`` used to return before
        touching ``k``, so ``get(k)`` kept serving the stale value."""
        cache = ByteBudgetLRU(10)
        cache.put(("t", "b", 1, "x"), "old", 4)
        cache.put(("t", "b", 1, "x"), "new, too big to keep", 11)
        assert cache.get(("t", "b", 1, "x")) is None
        assert len(cache) == 0 and cache.used_bytes == 0
        assert cache._by_prefix == {}

    def test_invalidate_prefix_drops_one_file_only(self):
        metrics = MetricsRegistry()
        cache = ByteBudgetLRU(1000, metrics=metrics, name="cache.t")
        for file_id in (1, 2):
            cache.put(("t", "hbase", file_id, "deltas"), file_id, 10)
            cache.put(("t", "hbase", file_id, "pk-dirty", 0), False, 10)
        cache.put(("t", "stripe-index", "/w/t/f1", 99), "index", 10)
        assert cache.invalidate_prefix(("t", "hbase", 1)) == 2
        assert metrics.counter("cache.t.invalidations") == 2
        assert cache.invalidate_prefix(("t", "hbase", 1)) == 0
        assert cache.invalidate_prefix(("t", "hbase")) == 0    # not a file
        assert sorted(cache._entries) == [
            ("t", "hbase", 2, "deltas"), ("t", "hbase", 2, "pk-dirty", 0),
            ("t", "stripe-index", "/w/t/f1", 99)]
        assert cache.used_bytes == 30

    def test_prefix_index_follows_every_way_an_entry_leaves(self):
        def indexed(cache):
            return sorted(key for keys in cache._by_prefix.values()
                          for key in keys)

        cache = ByteBudgetLRU(40)
        for i in range(6):                      # evicts as it goes
            cache.put(("t", "b", i % 3, i), i, 10)
            assert indexed(cache) == sorted(cache._entries)
        cache.put(("t", "b", 2, 5), "again", 10)            # refresh
        cache.put(("p", 1), "short key", 5)
        assert indexed(cache) == sorted(cache._entries)
        cache.invalidate_prefix(("t", "b", 2))
        assert indexed(cache) == sorted(cache._entries)
        cache.invalidate_group("t")
        assert indexed(cache) == sorted(cache._entries) == [("p", 1)]
        cache.clear()
        assert cache._by_prefix == {} and cache.used_bytes == 0

    def test_index_and_byte_count_hold_under_concurrent_use(self):
        """Eight threads put, read, evict and invalidate over the same
        few files; a lost update would leave the prefix index or the
        byte count out of step with the entries."""
        import sys
        import time

        cache = ByteBudgetLRU(600)
        deadline = time.monotonic() + 1.0
        errors = []

        def work(seed):
            try:
                i = seed
                while time.monotonic() < deadline:
                    i += 7
                    key = ("t", "b", i % 5, i % 11)
                    cache.put(key, i, 10 + i % 50)
                    cache.get(("t", "b", (i + 1) % 5, i % 11))
                    if i % 13 == 0:
                        cache.invalidate_prefix(("t", "b", i % 5))
                    if i % 101 == 0:
                        cache.invalidate_group("t")
                    if i % 211 == 0:
                        cache.clear()
            except Exception as exc:           # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.used_bytes == sum(n for _, n in cache._entries.values())
        assert cache.used_bytes <= cache.budget_bytes
        assert sorted(key for keys in cache._by_prefix.values()
                      for key in keys) == sorted(cache._entries)
        assert all(cache._by_prefix.values())

    def test_clear(self):
        cache = ByteBudgetLRU(1000)
        cache.put(("a",), 1, 10)
        assert cache.clear() == 1
        assert len(cache) == 0 and cache.used_bytes == 0


class TestParallelMap:
    def test_matches_inline_results_and_charges(self):
        serial = make_cluster(workers=1)
        parallel = make_cluster(workers=4)
        items = list(range(8))

        def work(cluster):
            def fn(i):
                cluster.charge_hdfs_read(100 * (i + 1))
                cluster.metrics.incr("work.items")
                return i * 2
            return fn

        assert parallel_map(serial, work(serial), items) \
            == parallel_map(parallel, work(parallel), items) \
            == [i * 2 for i in items]
        assert parallel.ledger.snapshot() == serial.ledger.snapshot()
        assert parallel.metrics.counter("work.items") == len(items)

    def test_error_falls_back_to_inline_without_double_charges(self):
        cluster = make_cluster(workers=4)

        def fn(i):
            cluster.charge_hdfs_read(100)
            if i == 5:
                raise ValueError("boom")
            return i

        with pytest.raises(ValueError):
            parallel_map(cluster, fn, range(8))
        # Only the inline re-run's charges applied: items 0..5 charged
        # once each before the raise (captured charges were discarded).
        key = ("hdfs", "read")
        assert cluster.ledger.bytes_by_key[key] == 600


class TestRunnerParallelGating:
    def _word_count_job(self, n_splits=6):
        splits = [InputSplit(payload=list(range(i, i + 3)), label=str(i))
                  for i in range(n_splits)]

        def map_fn(split, ctx):
            ctx.incr("mapped")
            for value in split.payload:
                yield value % 2, value

        def reduce_fn(key, values, ctx):
            yield key, sum(values)

        return Job(name="wc", splits=splits, map_fn=map_fn,
                   reduce_fn=reduce_fn, num_reducers=2)

    def _run(self, cluster, job=None):
        runner = JobRunner(cluster)
        result = runner.run(job or self._word_count_job())
        return result

    def test_parallel_result_identical_to_serial(self):
        serial = self._run(make_cluster(workers=1))
        parallel = self._run(make_cluster(workers=4))
        assert sorted(parallel.outputs) == sorted(serial.outputs)
        assert parallel.outputs == serial.outputs
        assert parallel.sim_seconds == serial.sim_seconds
        assert parallel.counters == serial.counters

    def test_parallel_ledger_identical_to_serial(self):
        c1, c4 = make_cluster(1), make_cluster(4)
        self._run(c1)
        self._run(c4)
        assert c4.ledger.snapshot() == c1.ledger.snapshot()
        assert c4.metrics.counters == c1.metrics.counters

    def test_job_can_opt_out_of_parallelism(self):
        cluster = make_cluster(workers=4)
        names = []

        def map_fn(split, ctx):
            names.append(threading.current_thread().name)
            return ()

        job = Job(name="serial-only",
                  splits=[InputSplit(payload=i) for i in range(4)],
                  map_fn=map_fn, reduce_fn=None,
                  properties={"parallel": False})
        JobRunner(cluster).run(job)
        assert set(names) == {threading.main_thread().name}

    def test_armed_faults_disable_parallelism(self):
        cluster = make_cluster(workers=4)
        cluster.faults.install(FaultPlan([
            Fault("hbase.put", nth_hit=10**9)]))
        names = []

        def map_fn(split, ctx):
            names.append(threading.current_thread().name)
            return ()

        job = Job(name="faulty",
                  splits=[InputSplit(payload=i) for i in range(4)],
                  map_fn=map_fn, reduce_fn=None)
        JobRunner(cluster).run(job)
        assert set(names) == {threading.main_thread().name}

    def test_worker_failure_falls_back_to_serial_retry_path(self):
        cluster = make_cluster(workers=4)
        attempts = []

        def map_fn(split, ctx):
            attempts.append(split.payload)
            if split.payload == 2:
                raise RuntimeError("always broken")
            return ()

        job = Job(name="broken",
                  splits=[InputSplit(payload=i) for i in range(4)],
                  map_fn=map_fn, reduce_fn=None)
        with pytest.raises(TaskFailedError) as err:
            JobRunner(cluster).run(job)
        assert "map task 2" in str(err.value)
        # The serial rerun retried the broken task max_task_attempts
        # times, exactly as a workers=1 run would.
        serial = make_cluster(workers=1)
        serial_attempts = []

        def serial_map_fn(split, ctx):
            serial_attempts.append(split.payload)
            if split.payload == 2:
                raise RuntimeError("always broken")
            return ()

        with pytest.raises(TaskFailedError):
            JobRunner(serial).run(Job(
                name="broken",
                splits=[InputSplit(payload=i) for i in range(4)],
                map_fn=serial_map_fn, reduce_fn=None))
        # Parallel ran one extra sweep (the abandoned concurrent pass).
        assert attempts[len(attempts) - len(serial_attempts):] \
            == serial_attempts
        assert cluster.ledger.snapshot() == serial.ledger.snapshot()

    def test_pool_resizes_with_profile(self):
        cluster = make_cluster(workers=1)
        assert cluster.pool.workers == 1
        cluster.profile.workers = 4
        assert cluster.pool.workers == 4
