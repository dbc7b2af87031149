"""Task retry, backoff accounting, and speculative execution."""

import gc
import weakref

import pytest

from repro.cluster import Cluster, ClusterProfile
from repro.common.errors import FaultInjectedError, TaskFailedError
from repro.faults import Fault, FaultPlan
from repro.mapreduce import InputSplit, Job, JobRunner


def _splits(n_splits=4, per_split=20):
    return [InputSplit(payload=list(range(i * per_split,
                                          (i + 1) * per_split)),
                       size_bytes=per_split * 8, label="s%d" % i)
            for i in range(n_splits)]


def _runner(**overrides):
    return JobRunner(Cluster(ClusterProfile.laptop(**overrides)))


def _scan_job(name="scan", n_splits=4):
    return Job(name, _splits(n_splits), lambda s, ctx: iter(s.payload), None)


class TestRetry:
    def test_injected_crash_is_retried_to_success(self):
        runner = _runner()
        runner.cluster.faults.install(FaultPlan([
            Fault("mapreduce.map", nth_hit=2, kind="crash")]))
        result = runner.run(_scan_job())
        assert result.outputs == list(range(80))
        assert result.counters["task_retries"] == 1

    def test_retry_makes_sim_seconds_strictly_greater(self):
        """Acceptance criterion: recovery is visible in the time model."""
        clean = _runner().run(_scan_job())
        runner = _runner()
        runner.cluster.faults.install(FaultPlan([
            Fault("mapreduce.map", nth_hit=2, kind="crash")]))
        faulty = runner.run(_scan_job())
        assert faulty.outputs == clean.outputs
        assert faulty.sim_seconds > clean.sim_seconds
        # ...by roughly the first backoff step.
        backoff = runner.cluster.profile.retry_backoff_s
        assert faulty.sim_seconds - clean.sim_seconds >= 0.99 * backoff

    def test_backoff_charged_to_ledger(self):
        runner = _runner()
        runner.cluster.faults.install(FaultPlan([
            Fault("mapreduce.map", nth_hit=1, kind="crash")]))
        runner.run(_scan_job())
        ledger = runner.cluster.ledger
        assert ledger.seconds_for("mapreduce", "retry_backoff") == \
            pytest.approx(runner.cluster.profile.retry_backoff_s)

    def test_backoff_is_exponential(self):
        runner = _runner()
        # Same task fails on its first two attempts.
        runner.cluster.faults.install(FaultPlan([
            Fault("mapreduce.map", nth_hit=1, kind="crash"),
            Fault("mapreduce.map", nth_hit=2, kind="crash")]))
        runner.run(_scan_job(n_splits=1))
        base = runner.cluster.profile.retry_backoff_s
        assert runner.cluster.ledger.seconds_for(
            "mapreduce", "retry_backoff") == pytest.approx(base + 2 * base)

    def test_permanent_failure_exhausts_attempts(self):
        runner = _runner()
        calls = []

        def bad_map(split, ctx):
            calls.append(1)
            raise ValueError("boom")

        with pytest.raises(TaskFailedError, match="map task 0 of bad"):
            runner.run(Job("bad", _splits(1), bad_map, None))
        assert len(calls) == runner.cluster.profile.max_task_attempts

    def test_fatal_kill_is_not_retried(self):
        runner = _runner()
        runner.cluster.faults.install(FaultPlan([
            Fault("mapreduce.map", nth_hit=1, kind="kill")]))
        calls = []

        def map_fn(split, ctx):
            calls.append(1)
            return iter(())

        with pytest.raises(TaskFailedError) as err:
            runner.run(Job("killed", _splits(1), map_fn, None))
        assert isinstance(err.value.__cause__, FaultInjectedError)
        assert err.value.__cause__.fatal
        assert calls == []    # the kill fired before the attempt body ran

    def test_reduce_attempts_are_retried_too(self):
        runner = _runner()
        runner.cluster.faults.install(FaultPlan([
            Fault("mapreduce.reduce", nth_hit=1, kind="crash")]))

        def map_fn(split, ctx):
            for v in split.payload:
                yield v % 3, v

        def reduce_fn(key, values, ctx):
            yield key, sum(values)

        result = runner.run(Job("agg", _splits(), map_fn, reduce_fn))
        assert len(result.outputs) == 3
        assert result.counters["task_retries"] == 1

    def test_retried_task_counters_not_double_counted(self):
        runner = _runner()
        runner.cluster.faults.install(FaultPlan([
            Fault("mapreduce.map", nth_hit=1, kind="crash")]))

        def map_fn(split, ctx):
            for v in split.payload:
                ctx.incr("seen")
                yield v

        result = runner.run(Job("cnt", _splits(), map_fn, None))
        # 4 splits x 20 rows, counted once despite the retried attempt.
        assert result.counters["seen"] == 80

    def test_failed_job_not_recorded_in_history(self):
        """Every attempt of a failed job emits a record before it fails;
        the runner keeps none of them once the error is dropped."""
        class Record:
            pass

        refs = []

        def flaky_map(split, ctx):
            record = Record()
            refs.append(weakref.ref(record))
            yield record
            raise ValueError("boom")

        runner = _runner()
        ok = runner.run(_scan_job("ok"))
        with pytest.raises(TaskFailedError) as err:
            runner.run(Job("bad", _splits(1), flaky_map, None))
        assert len(refs) == runner.cluster.profile.max_task_attempts
        del err
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        assert ok.outputs == list(range(80))
        assert not hasattr(runner, "history")


class TestSpeculation:
    @staticmethod
    def _profile(**overrides):
        params = dict(name="t", nodes=1, map_slots_per_node=8,
                      job_startup_s=0.0, task_overhead_s=0.0,
                      hdfs_read_bps=8 * 1024 * 1024)
        params.update(overrides)
        return ClusterProfile(**params)

    def test_straggler_clamped_by_speculative_copy(self):
        runner = JobRunner(Cluster(self._profile()))
        runner.cluster.faults.install(FaultPlan([
            Fault("mapreduce.map", nth_hit=1, kind="slow", factor=16.0)]))

        def map_fn(split, ctx):
            ctx.cluster.charge_hdfs_read(1024 * 1024)   # 1s per task
            return iter(())

        result = runner.run(Job("spec", _splits(8), map_fn, None))
        # The straggler would run 16s; the backup copy finishes around
        # the 1s median instead of dominating the makespan.
        assert result.sim_seconds < 4.0
        assert result.counters["speculative_tasks"] == 1
        assert runner.cluster.ledger.seconds_for(
            "mapreduce", "speculative") > 0

    def test_speculation_disabled_leaves_straggler(self):
        runner = JobRunner(Cluster(
            self._profile(speculative_execution=False)))
        runner.cluster.faults.install(FaultPlan([
            Fault("mapreduce.map", nth_hit=1, kind="slow", factor=16.0)]))

        def map_fn(split, ctx):
            ctx.cluster.charge_hdfs_read(1024 * 1024)
            return iter(())

        result = runner.run(Job("nospec", _splits(8), map_fn, None))
        assert result.sim_seconds == pytest.approx(16.0, abs=0.5)

    def test_speculation_never_clamps_retry_penalty(self):
        """Failed-attempt work + backoff stay in the task duration."""
        profile = self._profile()
        clean = JobRunner(Cluster(profile))

        def map_fn(split, ctx):
            ctx.cluster.charge_hdfs_read(1024 * 1024)
            return iter(())

        baseline = clean.run(Job("base", _splits(8), map_fn, None))
        runner = JobRunner(Cluster(profile))
        runner.cluster.faults.install(FaultPlan([
            Fault("mapreduce.map", nth_hit=1, kind="crash")]))
        faulty = runner.run(Job("retry", _splits(8), map_fn, None))
        assert faulty.sim_seconds >= (baseline.sim_seconds
                                      + profile.retry_backoff_s)
