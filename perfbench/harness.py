"""One pass over one workload: set up, run the statement list, check
every result against the model, and turn what was seen into metrics.

Closed loop, one client, one thread.  Each statement is timed alone
with ``time.perf_counter`` (and ``time.process_time`` for CPU); the
collector runs between statements and is disabled inside them, so a
collection caused by one statement's garbage never lands in another's
latency.  Oracle checks, cache clears and counter reads happen outside
the timed interval.

The machines this runs on (2-vCPU microVMs) slow every CPU-bound
program down by 20-50 % for a tenth of a second to tens of seconds at a
time, with no steal time to show for it.  Two measures keep that out of
the numbers.  A fixed piece of interpreter work, the *probe*, is timed
between statements and, on a timer, inside long ones (its own time is
taken back out); every latency is scaled by the speed the probes within
``PROBE_WINDOW`` of the statement saw (``PROBE_REF`` seconds per probe
is speed 1.0).  And the whole list runs ``REPETITIONS`` times from a
fresh set-up, each statement keeping the median of its scaled
executions, which are seconds apart.
"""

import gc
import hashlib
from bisect import bisect_left
import math
import resource
import signal
import time
from statistics import median

from perfbench import metrics as M
from perfbench.workloads import rows_digest, statements_digest

REPETITIONS = 3
WRITE_KEYS = (("hdfs", "write"), ("hdfs", "replicate"), ("hbase", "write"))
READ_KEYS = (("hdfs", "read"), ("hbase", "scan"), ("hbase", "read"))
#: seconds the probe takes at speed 1.0 (a quiet run on the reference
#: box).  Frozen: changing it, or ``probe``, rescales every timed metric.
PROBE_REF = 0.0077
#: a probe runs before a statement once this much statement time has
#: passed since the last one, so short statements share one.
PROBE_EVERY = 0.1
#: inside a statement the probe runs on a timer with this period.
PROBE_INSIDE = 0.25
#: a statement's speed is the mean over the probes this close to it.
PROBE_WINDOW = 0.3
#: what must repeat bit for bit when one seed's list runs again.
EXACT_KEYS = ("results_digest", "bytes", "hbase_ops", "counters",
              "space_ratios", "rel_error_p95", "orc_used_mb")


def run_repetitions(workload, plan, repetitions=REPETITIONS, recorder=None):
    """Set up and measure the same list ``repetitions`` times.

    Each statement keeps the median of its (speed-scaled) executions,
    which are seconds apart.  The repetitions also are the determinism
    check (everything in ``EXACT_KEYS`` and every statement's simulated
    seconds must repeat exactly) and give ``setup_s`` its median.
    Returns ``(seen, [scaled set-up seconds])``.
    """
    passes, setup_seconds = [], []
    for _ in range(repetitions):
        gc.collect()
        before = probe()
        start = time.perf_counter()
        context = workload.setup(plan)
        seconds = time.perf_counter() - start
        setup_seconds.append(seconds * PROBE_REF * 2 / (before + probe()))
        if recorder is not None:
            recorder.reset()
        try:
            passes.append(measure(context, plan, recorder))
        finally:
            context.close()
        del context
    seen = passes[0]
    seen["attempted"] = sum(len(p["samples"]) for p in passes)
    seen["raw_wall"] = sum(s["wall"] for p in passes for s in p["samples"])
    seen["raw_cpu"] = sum(s["cpu"] for p in passes for s in p["samples"])
    seen["probes"] = [x for p in passes for x in p["probes"]]
    seen["repetitions"] = repetitions
    for i, sample in enumerate(seen["samples"]):
        sample["scaled"] = median(p["samples"][i]["scaled"] for p in passes)
    for other in passes[1:]:
        seen["failures"] += other["failures"]
        differs = [key for key in EXACT_KEYS if other[key] != seen[key]]
        if [s["sim"] for s in other["samples"]] != [s["sim"] for s in
                                                    seen["samples"]]:
            differs.append("simulated seconds")
        if differs:
            seen["failures"].append("a repetition differs in "
                                    + ", ".join(differs))
    return seen, setup_seconds


def probe():
    """Seconds a fixed piece of interpreter work takes right now."""
    start = time.perf_counter()
    rows = [(i, "g%d" % (i % 5), i * 7 % 1000, i / 8.0)
            for i in range(20000)]
    acc = {}
    for _, grp, v, w in rows:
        if v < 400 and w >= 0:
            acc[grp] = acc.get(grp, 0) + v
    rows.sort(key=lambda row: row[2])
    return time.perf_counter() - start


class Probes:
    """The probes of one pass, in time order."""

    def __init__(self):
        self.starts, self.seconds, self.cpu = [], [], []

    def take(self, signum=None, frame=None):
        """Run one probe now.  Also the SIGALRM handler: Python runs a
        handler between two bytecodes of the main thread, so a probe lies
        wholly inside or wholly outside a timed interval."""
        cpu, start = time.process_time(), time.perf_counter()
        self.seconds.append(probe())
        self.starts.append(start)
        self.cpu.append(time.process_time() - cpu)

    def inside(self, start, end):
        """``(wall, cpu)`` seconds the probes inside [start, end] took."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return sum(self.seconds[lo:hi]), sum(self.cpu[lo:hi])

    def around(self, start, end):
        """Mean probe seconds near [start, end]: every probe within
        ``PROBE_WINDOW`` of it, and always the nearest on either side."""
        lo = bisect_left(self.starts, start - PROBE_WINDOW)
        hi = bisect_left(self.starts, end + PROBE_WINDOW)
        lo = min(lo, max(0, bisect_left(self.starts, start) - 1))
        hi = max(hi, min(len(self.starts), bisect_left(self.starts, end) + 1))
        return sum(self.seconds[lo:hi]) / (hi - lo)


def _verify(check, result, digest):
    """None if ``result`` agrees with the model, else what differs.
    ``digest`` is ``rows_digest(result.rows)`` for a read."""
    how, expected = check
    if how == "affected":
        ok = result.affected == expected
        return None if ok else "affected %r, model says %r" % (
            result.affected, expected)
    if how == "figure":
        cells = [c for row in result.rows for c in row
                 if isinstance(c, float)]
        ok = result.rows and result.sim_seconds > 0 \
            and all(math.isfinite(c) and c >= 0 for c in cells)
        return None if ok else "empty or non-finite figure"
    if how == "digest":
        ok = (digest, len(result.rows)) == expected
        return None if ok else "%d rows differ from the model's %d" % (
            len(result.rows), expected[1])
    got = result.rows if how == "ordered" else sorted(result.rows)
    return None if got == expected else "%d rows, model has %d: %r vs %r" % (
        len(got), len(expected), got[:3], expected[:3])


def _ledger_bytes(accounts):
    total = {}
    for ledger, _ in accounts:
        for key, value in ledger.bytes_by_key.items():
            total[key] = total.get(key, 0) + value
    return total


def _counters(accounts):
    total = {}
    for _, registry in accounts:
        for key, value in registry.counters.items():
            total[key] = total.get(key, 0) + value
    return total


def _delta(after, before):
    return {key: value - before.get(key, 0) for key, value in after.items()}


def measure(context, plan, recorder=None):
    """Run ``plan.statements``; returns the pass's raw observations."""
    cluster = context.cluster          # None when the workload owns many
    accounts = context.accounts        # -> [(ledger, metrics registry)]
    samples = []                       # one dict per statement
    failures = []
    results = hashlib.sha256()
    space_ratios = []
    bytes_before = _ledger_bytes(accounts())
    ops_before = _hbase_ops(accounts())
    counters_before = _counters(accounts())
    probes = Probes()
    since_probe = PROBE_EVERY
    # The traced pass reports where time goes, not how much: no timer
    # there, so no probe lands inside a span.
    period = PROBE_INSIDE if recorder is None else 0.0
    previous_handler = signal.signal(signal.SIGALRM, probes.take)
    gc.collect()
    gc.freeze()                        # keep set-up objects out of every collect
    for index, stmt in enumerate(plan.statements, 1):
        if stmt.cold:
            cluster.orc_cache.clear()
            cluster.delta_cache.clear()
        if stmt.kind == "compact_full":
            handler = context.handler()
            space_ratios.append(handler.attached.size_bytes
                                / max(1, handler.master.data_bytes()))
        scanned = cluster.metrics.counter("unionread.rows") if cluster else 0
        gc.collect()
        gc.disable()
        if since_probe >= PROBE_EVERY:
            probes.take()
            since_probe = 0.0
        if recorder is not None:
            recorder.begin_statement(index, stmt.kind)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            result, error = context.execute(stmt.sql), None
        except Exception as exc:      # a failed statement is a metric
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        wall1, cpu1 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        probe_wall, probe_cpu = probes.inside(wall0, wall1)
        if recorder is not None:
            recorder.end_statement()
        gc.enable()
        since_probe += wall1 - wall0
        sample = {"kind": stmt.kind, "phase": stmt.phase,
                  "wall": wall1 - wall0 - probe_wall,
                  "cpu": cpu1 - cpu0 - probe_cpu, "at": (wall0, wall1),
                  "sim": 0.0, "returned": 0, "scanned": 0}
        samples.append(sample)
        # A read's rows are hashed once, for the oracle and the digest.
        is_read = stmt.check is not None and stmt.check[0] != "affected"
        digest = rows_digest(result.rows) if is_read and not error else None
        if error is None and stmt.check is not None:
            error = _verify(stmt.check, result, digest)
        if error is not None:
            failures.append("#%d %s: %s" % (index, stmt.sql[:60], error))
            continue
        sample["sim"] = result.sim_seconds
        if is_read:
            sample["returned"] = len(result.rows)
            results.update(digest.encode())
        else:
            results.update(repr(result.affected).encode())
        if cluster:
            sample["scanned"] = (cluster.metrics.counter("unionread.rows")
                                 - scanned)
    probes.take()
    signal.signal(signal.SIGALRM, previous_handler)
    gc.unfreeze()
    for sample in samples:
        sample["scaled"] = (sample["wall"] * PROBE_REF
                            / probes.around(*sample.pop("at")))
    rel_error = _merged_histogram(accounts(), "costmodel.rel_error")
    return {
        "samples": samples,
        "probes": probes.seconds,
        "failures": failures,
        "results_digest": results.hexdigest(),
        "statements_digest": statements_digest(plan.statements),
        "bytes": _delta(_ledger_bytes(accounts()), bytes_before),
        "hbase_ops": _hbase_ops(accounts()) - ops_before,
        "counters": _delta(_counters(accounts()), counters_before),
        "space_ratios": space_ratios,
        "rel_error_p95": rel_error.quantile(0.95) if rel_error else 0.0,
        "orc_used_mb": (cluster.orc_cache.used_bytes / 1e6) if cluster else 0,
    }


def _hbase_ops(accounts):
    return sum(ledger.ops_for("hbase") for ledger, _ in accounts)


def _merged_histogram(accounts, name):
    from repro.obs import Histogram
    merged = None
    for _, registry in accounts:
        hist = registry.histogram(name)
        if hist is not None:
            if merged is None:
                merged = Histogram()
            merged.merge(hist)
    return merged


def _ratio(a, b):
    return a / b if b else 0.0


def _round_rates(samples, phase):
    """Rows scanned / wall per round of ``phase`` (all five shapes)."""
    rounds = {}
    for s in samples:
        if s["phase"].startswith(phase + ":"):
            acc = rounds.setdefault(s["phase"], [0, 0.0])
            acc[0] += s["scanned"]
            acc[1] += s["scaled"]
    return [rows / wall for rows, wall in rounds.values()]


def summarize(seen, setup_seconds, import_seconds):
    """All untraced metrics of one pass, by name."""
    samples = seen["samples"]
    by_kind = {}
    for s in samples:
        by_kind.setdefault(s["kind"], []).append(s["scaled"] * 1e3)
    wall = sum(s["scaled"] for s in samples)
    raw_wall, raw_cpu = seen["raw_wall"], seen["raw_cpu"]
    nbytes, counters = seen["bytes"], seen["counters"]
    written = sum(nbytes.get(key, 0) for key in WRITE_KEYS)
    read = sum(nbytes.get(key, 0) for key in READ_KEYS)
    dml = [ms for kind in M.DML_KINDS for ms in by_kind.get(kind, [])]
    lookups = by_kind.get("lookup", [])
    pk_reads = [s for s in samples if s["kind"] in M.PK_READ_KINDS]
    returned = sum(s["returned"] for s in samples)
    out = {
        "setup_s": import_seconds + median(setup_seconds),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_s": sum(s["sim"] for s in samples),
        "write_mb": written / 1e6,
        "read_mb": read / 1e6,
        # workload-specific headline numbers
        "dml_p50_ms": median(dml) if dml else 0.0,
        "lookup_p50_ms": median(lookups) if lookups else 0.0,
        "lookup_p95_ms": M.percentile(lookups, 0.95) if lookups else 0.0,
        "compact_s": sum(ms for kind in M.COMPACT_KINDS
                         for ms in by_kind.get(kind, [])) / 1e3,
        "write_bytes_per_dml_row": _ratio(
            written, counters.get("udtf.updates", 0)
            + counters.get("udtf.deletes", 0)),
        "read_bytes_per_row": _ratio(read, returned),
        "fail_ratio": len(seen["failures"]) / seen["attempted"],
        "raw_wall_s": raw_wall / seen["repetitions"],
        "cpu_s": raw_cpu / seen["repetitions"],
        "steal_ratio": _ratio(raw_wall - raw_cpu, raw_wall),
        "machine_speed": PROBE_REF / median(seen["probes"]),
    }
    for phase in ("warm", "cold", "clean"):
        rates = _round_rates(samples, phase)
        out["scan_%s_rows_per_s" % phase] = median(rates) if rates else 0.0
    # untraced per-layer counters
    hits = {c: (counters.get("cache.%s.hits" % c, 0),
                counters.get("cache.%s.misses" % c, 0))
            for c in ("orc", "delta")}
    dirty = (counters.get("unionread.batches_overlay", 0)
             + counters.get("unionread.batches_row_fallback", 0))
    out.update({
        "parallel.cache.orc_hit_ratio": _ratio(hits["orc"][0],
                                               sum(hits["orc"])),
        "parallel.cache.delta_hit_ratio": _ratio(hits["delta"][0],
                                                 sum(hits["delta"])),
        "parallel.cache.orc_evictions": counters.get("cache.orc.evictions",
                                                     0),
        "parallel.cache.orc_used_mb": seen["orc_used_mb"],
        "core.union_read.rows": counters.get("unionread.rows", 0),
        "core.union_read.dirty_batch_ratio": _ratio(
            dirty, dirty + counters.get("unionread.batches_fast", 0)),
        "core.union_read.deltas_applied": counters.get(
            "unionread.deltas_applied", 0),
        "core.lookup.plan_ratio": _ratio(
            counters.get("dualtable.plan.lookup", 0), len(pk_reads)),
        "core.lookup.rows_examined_per_row": _ratio(
            sum(s["scanned"] for s in pk_reads),
            sum(s["returned"] for s in pk_reads)),
        "mapreduce.jobs": counters.get("mapreduce.jobs", 0),
        "mapreduce.tasks_per_stmt": _ratio(
            counters.get("mapreduce.tasks", 0), len(samples)),
        "hdfs.read_bytes": nbytes.get(("hdfs", "read"), 0),
        "hdfs.write_bytes": nbytes.get(("hdfs", "write"), 0),
        "hbase.scan_bytes": nbytes.get(("hbase", "scan"), 0),
        "hbase.write_bytes": nbytes.get(("hbase", "write"), 0),
        "hbase.ops": seen["hbase_ops"],
        "core.attached.space_ratio": (
            sum(seen["space_ratios"]) / len(seen["space_ratios"])
            if seen["space_ratios"] else 0.0),
        "core.cost_model.rel_error_p95": seen["rel_error_p95"],
    })
    for kind in M.STMT_KINDS:
        values = by_kind.get(kind, [])
        out["stmt.%s.n" % kind] = len(values)
        out["stmt.%s.p50_ms" % kind] = median(values) if values else 0.0
        out["stmt.%s.p95_ms" % kind] = (M.percentile(values, 0.95)
                                        if values else 0.0)
    return out
