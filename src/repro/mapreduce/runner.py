"""Deterministic MapReduce execution with a makespan-based time model.

Every task runs for real (Python functions over real data) inside a cost
scope, so its simulated duration is the sum of the I/O it charged plus CPU
row costs and a fixed task overhead.  The job's simulated run time is the
*makespan* of greedily list-scheduling those task durations onto the
cluster's map and reduce slots — the same "waves of tasks over slots"
shape real Hadoop exhibits — plus the job startup cost.

Fault tolerance mirrors Hadoop's task layer:

* a failed task attempt is retried up to ``profile.max_task_attempts``
  times with exponential backoff; the failed attempt's work *and* the
  backoff are charged to the ledger and added to the task's duration, so
  recovery is visible in a job's ``sim_seconds``;
* fatal injected faults (``kill`` — the client JVM dying) are never
  absorbed: they wrap into :class:`TaskFailedError` immediately;
* speculative execution launches a backup attempt for straggler tasks
  (duration above ``speculative_threshold`` × the job's median) and takes
  the earlier finisher, charging the duplicate work.

Injection points: ``mapreduce.map`` / ``mapreduce.reduce`` fire at the
start of every task attempt.

Parallel execution (``profile.workers > 1``): task attempts run
concurrently on the cluster's worker pool, each charging into a private
:class:`~repro.parallel.TaskRecorder`; the coordinator then replays the
recorders **in task order** inside per-task cost scopes, so results,
ledger charges and ``sim_seconds`` are byte-identical to the serial
path (docs/INTERNALS.md §6).  The pool is bypassed whenever semantics
are defined by global serial order: an active fault plan (faults fire on
global hit counts), an enabled tracer (span nesting), jobs marked
``properties={"parallel": False}`` (map functions that mutate shared
state in place, e.g. the HBase baselines), or any worker-thread failure
(the serial retry machinery then reruns the job from scratch — captured
charges from the abandoned parallel attempt are discarded, never
applied).
"""

import heapq
from collections import defaultdict
from itertools import chain

from repro.common.errors import FaultInjectedError, TaskFailedError
from repro.common.retry import RetryPolicy
from repro.mapreduce.job import (JobResult, TaskContext,
                                 estimate_record_bytes, stable_hash)
from repro.parallel import in_worker


def _makespan(durations, slots):
    """Greedy list-scheduling makespan of ``durations`` over ``slots``."""
    if not durations:
        return 0.0
    slots = max(1, slots)
    heap = [0.0] * min(slots, len(durations))
    heapq.heapify(heap)
    for duration in durations:
        start = heapq.heappop(heap)
        heapq.heappush(heap, start + duration)
    return max(heap)


def _reduce_sort_key(key):
    """Deterministic ordering for mixed-type reduce keys.

    ``repr`` alone interleaves types by their textual form ("10" < "b'a'"
    < "9"), so a retried partition with an extra key type could visit
    keys in a different relative order; grouping by type name first keeps
    the visit order stable under any key mix.
    """
    return (type(key).__name__, repr(key))


def _is_fatal(exc):
    return isinstance(exc, FaultInjectedError) and exc.fatal


class JobRunner:
    """Runs jobs against one simulated cluster."""

    def __init__(self, cluster):
        self.cluster = cluster

    def run(self, job):
        profile = self.cluster.profile
        counters = defaultdict(int)
        with self.cluster.tracer.span("job", job.name,
                                      splits=len(job.splits)) as job_span:
            with self.cluster.cost_scope("job:%s" % job.name) as job_scope:
                self.cluster.charge_fixed("mapreduce", "job_startup",
                                          profile.job_startup_s)
                map_entries, map_outputs = self._run_maps(job, counters)
                if job.is_map_only:
                    outputs = list(chain.from_iterable(
                        records for _, records in map_outputs))
                    shuffle_seconds = 0.0
                    shuffle_bytes = 0
                    reduce_entries = []
                else:
                    (shuffle_seconds, shuffle_bytes, reduce_entries,
                     outputs) = self._run_reduces(job, map_outputs, counters)

            map_durations = self._finish_durations(map_entries, counters)
            reduce_durations = self._finish_durations(reduce_entries,
                                                      counters)
            # A sharded table spreads its splits over ``shard_fanout``
            # independent region servers, each bringing its own task slots
            # and HBase region: the makespan sees fanout× the slots and
            # the (otherwise serial) HBase time is paid per-server.  Only
            # the time model changes — every task still runs and charges
            # the ledger exactly as on one server.
            fanout = max(1, int(job.properties.get("shard_fanout", 1)))
            map_seconds = _makespan(map_durations,
                                    profile.total_map_slots * fanout)
            reduce_seconds = _makespan(reduce_durations,
                                       profile.total_reduce_slots * fanout)
            # HBase region servers are a shared resource: the job pays its
            # total HBase time serially, on top of the parallel task phases.
            sim_seconds = (profile.job_startup_s + map_seconds
                           + shuffle_seconds + reduce_seconds
                           + job_scope.hbase_seconds / fanout)
            job_span.annotate(
                sim_seconds=round(sim_seconds, 6),
                map_seconds=round(map_seconds, 6),
                shuffle_seconds=round(shuffle_seconds, 6),
                reduce_seconds=round(reduce_seconds, 6),
                map_tasks=len(map_durations),
                reduce_tasks=len(reduce_durations),
                shuffle_bytes=shuffle_bytes,
                task_retries=counters.get("task_retries", 0),
                speculative_tasks=counters.get("speculative_tasks", 0))
        metrics = self.cluster.metrics
        metrics.incr("mapreduce.jobs")
        metrics.incr("mapreduce.tasks",
                     len(map_durations) + len(reduce_durations))
        if counters.get("task_retries"):
            metrics.incr("mapreduce.task_retries", counters["task_retries"])
        if counters.get("speculative_tasks"):
            metrics.incr("mapreduce.speculative_tasks",
                         counters["speculative_tasks"])
        return JobResult(
            name=job.name,
            outputs=outputs,
            sim_seconds=sim_seconds,
            map_seconds=map_seconds,
            shuffle_seconds=shuffle_seconds,
            reduce_seconds=reduce_seconds,
            num_map_tasks=len(map_durations),
            num_reduce_tasks=len(reduce_durations),
            shuffle_bytes=shuffle_bytes,
            counters=dict(counters),
        )

    # ------------------------------------------------------------------
    # Task attempts: retry with charged backoff.
    # ------------------------------------------------------------------
    def _run_attempts(self, job, task_type, index, attempt_fn, counters,
                      describe):
        """Run one task to success, retrying failed attempts.

        Returns ``(output, base_seconds, penalty_seconds, ctx)`` where
        ``base_seconds`` is the successful attempt's duration (the part
        speculative execution can clamp) and ``penalty_seconds`` is the
        accumulated failed-attempt work plus backoff (it cannot: the
        retries really happened).
        """
        profile = self.cluster.profile
        policy = RetryPolicy.from_profile(profile)
        point = "mapreduce.%s" % task_type
        penalty = 0.0
        for attempt in policy.attempts():
            ctx = TaskContext(self.cluster, task_type, index)
            scope_label = "%s-%d.%d" % (task_type, index, attempt)
            with self.cluster.tracer.span(
                    "task", scope_label, job=job.name, task_type=task_type,
                    task=index, attempt=attempt) as span:
                with self.cluster.cost_scope(scope_label) as scope:
                    try:
                        fault = self.cluster.faults.hit(
                            point, job=job.name, task=index, attempt=attempt)
                        output = attempt_fn(ctx)
                    except Exception as exc:
                        failed = (scope.parallel_seconds
                                  + profile.task_overhead_s)
                        span.annotate(outcome="failed", error=str(exc))
                        if _is_fatal(exc) or policy.is_last(attempt):
                            raise TaskFailedError(describe(exc)) from exc
                        backoff = policy.backoff(attempt)
                        self.cluster.charge_fixed(
                            "mapreduce", "retry_backoff", backoff)
                        penalty += failed + backoff
                        counters["task_retries"] += 1
                        continue
                base = scope.parallel_seconds + profile.task_overhead_s
                if fault is not None and fault.kind == "slow":
                    extra = base * (fault.factor - 1.0)
                    self.cluster.charge_fixed("mapreduce", "straggler", extra)
                    base += extra
                span.annotate(outcome="ok", base_seconds=round(base, 6),
                              penalty_seconds=round(penalty, 6))
            return output, base, penalty, ctx
        raise AssertionError("unreachable: final attempt raises")

    # ------------------------------------------------------------------
    # Task dispatch: parallel capture/replay, or the serial retry loop.
    # ------------------------------------------------------------------
    def _execute_tasks(self, job, task_type, specs, counters):
        """Run ``(index, attempt_fn, describe)`` specs to completion.

        Returns ``[(output, base, penalty, ctx), ...]`` in spec order.
        """
        results = self._try_parallel(job, task_type, specs)
        if results is None:
            results = [
                self._run_attempts(job, task_type, index, attempt_fn,
                                   counters, describe)
                for index, attempt_fn, describe in specs]
        return results

    def _try_parallel(self, job, task_type, specs):
        """Run all specs concurrently; None means "use the serial path".

        Workers execute the attempt functions under per-task capture; the
        coordinator then replays each task's recorder in task order inside
        the same span/scope structure the serial path builds, so ledger
        contents, scope attribution and task durations are byte-identical.
        If any worker raised, every recorder is discarded unapplied and
        the caller reruns serially — the retry machinery then observes the
        exact charge sequence it would have seen without a pool.
        """
        cluster = self.cluster
        pool = cluster.pool
        if (len(specs) <= 1 or not pool.parallel or in_worker()
                or not job.properties.get("parallel", True)
                or cluster.faults.armed or cluster.tracer.enabled):
            return None

        def make_thunk(index, attempt_fn):
            def thunk():
                ctx = TaskContext(cluster, task_type, index)
                with cluster.capture() as recorder:
                    output = attempt_fn(ctx)
                return output, recorder, ctx
            return thunk

        outcomes = pool.map([make_thunk(index, attempt_fn)
                             for index, attempt_fn, _ in specs])
        if any(outcome.error is not None for outcome in outcomes):
            return None
        profile = cluster.profile
        results = []
        for (index, _, _), outcome in zip(specs, outcomes):
            output, recorder, ctx = outcome.value
            scope_label = "%s-%d.%d" % (task_type, index, 1)
            with cluster.tracer.span(
                    "task", scope_label, job=job.name, task_type=task_type,
                    task=index, attempt=1) as span:
                with cluster.cost_scope(scope_label) as scope:
                    recorder.replay(cluster)
                base = scope.parallel_seconds + profile.task_overhead_s
                span.annotate(outcome="ok", base_seconds=round(base, 6),
                              penalty_seconds=0.0)
            results.append((output, base, 0.0, ctx))
        return results

    def _finish_durations(self, entries, counters):
        """(base, penalty) pairs -> per-task durations, with speculation.

        A straggler (base duration far above the job's median) gets a
        speculative backup attempt: the task effectively finishes at
        ~median time, the duplicate work is charged, and the retry
        penalty — real failed work — is never clamped.
        """
        profile = self.cluster.profile
        bases = [base for base, _ in entries]
        durations = []
        speculate = (profile.speculative_execution and len(entries) >= 2)
        median = sorted(bases)[len(bases) // 2] if speculate else 0.0
        for base, penalty in entries:
            if speculate and median > 0.0 \
                    and base > profile.speculative_threshold * median:
                backup = median + profile.task_overhead_s
                if backup < base:
                    self.cluster.charge_fixed("mapreduce", "speculative",
                                              backup)
                    counters["speculative_tasks"] += 1
                    base = backup
            durations.append(base + penalty)
        return durations

    # ------------------------------------------------------------------
    def _run_maps(self, job, counters):
        specs = []
        for index, split in enumerate(job.splits):
            def attempt_fn(ctx, split=split):
                records = list(job.map_fn(split, ctx))
                self.cluster.charge_cpu_rows(len(records))
                if job.combiner_fn is not None and not job.is_map_only:
                    records = self._combine(job, records, ctx)
                return records

            def describe(exc, index=index):
                return ("map task %d of %s failed: %s"
                        % (index, job.name, exc))

            specs.append((index, attempt_fn, describe))
        entries = []
        outputs = []
        results = self._execute_tasks(job, "map", specs, counters)
        for (index, _, _), (records, base, penalty, ctx) in zip(specs,
                                                                results):
            entries.append((base, penalty))
            outputs.append((index, records))
            for key, val in ctx.counters.items():
                counters[key] += val
        return entries, outputs

    def _combine(self, job, records, ctx):
        grouped = defaultdict(list)
        for key, value in records:
            grouped[key].append(value)
        combined = []
        for key in grouped:
            combined.extend(job.combiner_fn(key, grouped[key], ctx))
        return combined

    # ------------------------------------------------------------------
    def _run_reduces(self, job, map_outputs, counters):
        num_reducers = max(1, job.num_reducers)
        partitions = [defaultdict(list) for _ in range(num_reducers)]
        # key -> its value list inside its partition: ``stable_hash``
        # runs once per distinct key.  Exact because it agrees with
        # ``==`` — keys this dict merges share a partition slot anyway.
        values_of = {}
        for _, records in map_outputs:
            for key, value in records:
                try:
                    values_of[key].append(value)
                except KeyError:
                    values = partitions[stable_hash(key) % num_reducers][key]
                    values_of[key] = values
                    values.append(value)
        all_records = list(chain.from_iterable(
            records for _, records in map_outputs))
        shuffle_bytes = estimate_record_bytes(all_records)
        charge = self.cluster.charge_shuffle(shuffle_bytes)
        self.cluster.charge_cpu_rows(len(all_records))  # sort cost
        shuffle_seconds = charge.seconds

        specs = []
        for index, partition in enumerate(partitions):
            if not partition and num_reducers > 1:
                continue
            failing = {}

            def attempt_fn(ctx, partition=partition, failing=failing):
                task_out = []
                for key in sorted(partition, key=_reduce_sort_key):
                    failing["key"] = key
                    task_out.extend(job.reduce_fn(key, partition[key], ctx))
                self.cluster.charge_cpu_rows(len(task_out))
                return task_out

            def describe(exc, index=index, failing=failing):
                return ("reduce task %d of %s failed at key %r: %s"
                        % (index, job.name, failing.get("key"), exc))

            specs.append((index, attempt_fn, describe))
        entries = []
        outputs = []
        for task_out, base, penalty, ctx in self._execute_tasks(
                job, "reduce", specs, counters):
            entries.append((base, penalty))
            outputs.extend(task_out)
            for key, val in ctx.counters.items():
                counters[key] += val
        return shuffle_seconds, shuffle_bytes, entries, outputs
