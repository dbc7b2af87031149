#!/usr/bin/env python
"""LOOKUP-plan benchmark: point-read latency + bytes vs the scan plan.

Replays one seeded workload of PRIMARY-KEY point / small-range / IN
queries over a 20 000-row DualTable, once per plan (`lookup` forced vs
`scan` forced), measuring per-query simulated latency and per-query
ledger bytes.  Gates (``--check``):

* **identity** — every query returns byte-identical rows across both
  plans and worker-pool widths 1 / 4;
* **latency** — scan p50 / lookup p50 ≥ ``--min-ratio`` (default 20);
* **bytes** — total scan bytes / total lookup bytes ≥ ``--min-ratio``.

Usage::

    PYTHONPATH=src python scripts/bench_lookup.py [--check]
        [--rows 20000] [--queries 60] [--seed 20260808]
        [--min-ratio 20] [--out BENCH_lookup.json]

Exits non-zero if ``--check`` and any gate fails.
"""

import argparse
import json
import math
import random
import sys
import time

from repro.cluster import ClusterProfile
from repro.hive import HiveSession


def build_queries(rng, n, rows):
    """A seeded operational mix: 60% points, 25% BETWEEN, 15% IN."""
    queries = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.60:
            queries.append("SELECT v, name FROM t WHERE k = %d"
                           % rng.randrange(rows))
        elif roll < 0.85:
            lo = rng.randrange(rows - 50)
            queries.append(
                "SELECT v, name FROM t WHERE k BETWEEN %d AND %d"
                % (lo, lo + rng.randint(1, 50)))
        else:
            keys = sorted({rng.randrange(rows)
                           for _ in range(rng.randint(2, 5))})
            queries.append("SELECT v, name FROM t WHERE k IN (%s)"
                           % ", ".join(str(k) for k in keys))
    return queries


def build_session(args, workers):
    # ``workers`` is the thread pool; the simulated cluster stays one node.
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers))
    session.execute(
        "CREATE TABLE t (k int, v int, name string, PRIMARY KEY (k)) "
        "STORED AS dualtable TBLPROPERTIES "
        "('orc.rows_per_file' = '%d', 'orc.stripe_rows' = '%d', "
        "'dualtable.mode' = 'edit')"
        % (args.rows_per_file, args.stripe_rows))
    session.load_rows(
        "t", [(i, i * 10, "name-%06d" % i) for i in range(args.rows)])
    # Live deltas so the benchmark pays the attached-table probe too.
    session.execute("UPDATE t SET v = -1 WHERE k BETWEEN 100 AND 140")
    session.execute("DELETE FROM t WHERE k BETWEEN 300 AND 305")
    return session


def run_config(args, queries, plan, workers):
    session = build_session(args, workers)
    session.execute("SET dualtable.plan = %s" % plan)
    latencies, bytes_per_query, transcript = [], [], []
    start = time.perf_counter()
    for sql in queries:
        before = session.cluster.ledger.snapshot()
        result = session.execute(sql)
        delta = session.cluster.ledger.diff(before)
        latencies.append(result.sim_seconds)
        bytes_per_query.append(sum(delta["bytes"].values()))
        transcript.append((sql, tuple(sorted(result.rows))))
    return {
        "plan": plan, "workers": workers,
        "latencies": latencies, "bytes": bytes_per_query,
        "transcript": transcript,
        "wall_s": round(time.perf_counter() - start, 3),
    }


def quantile(values, q):
    """Deterministic rank quantile (no interpolation, no numpy)."""
    ordered = sorted(values)
    rank = max(1, int(math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def summarize(run):
    return {
        "plan": run["plan"], "workers": run["workers"],
        "queries": len(run["latencies"]),
        "p50_s": quantile(run["latencies"], 0.50),
        "p99_s": quantile(run["latencies"], 0.99),
        "total_sim_s": sum(run["latencies"]),
        "total_bytes": sum(run["bytes"]),
        "wall_s": run["wall_s"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="LOOKUP vs scan plan point-read benchmark")
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument("--rows-per-file", type=int, default=1_000)
    parser.add_argument("--stripe-rows", type=int, default=100)
    parser.add_argument("--queries", type=int, default=60)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--min-ratio", type=float, default=20.0)
    parser.add_argument("--check", action="store_true",
                        help="enforce the identity and ratio gates")
    parser.add_argument("--out", default="BENCH_lookup.json")
    args = parser.parse_args(argv)

    queries = build_queries(random.Random(args.seed), args.queries,
                            args.rows)
    configs = [(plan, workers)
               for plan in ("lookup", "scan")
               for workers in (1, 4)]
    runs = {config: run_config(args, queries, *config)
            for config in configs}

    failures = []
    baseline = runs[configs[0]]["transcript"]
    for config, run in runs.items():
        if run["transcript"] != baseline:
            failures.append("rows diverge: %r vs %r"
                            % (config, configs[0]))
    summaries = [summarize(runs[config]) for config in configs]
    for summary in summaries:
        print("%-6s workers=%d: p50=%.6fs p99=%.6fs "
              "total=%.3fs bytes=%d wall=%.2fs"
              % (summary["plan"], summary["workers"],
                 summary["p50_s"], summary["p99_s"],
                 summary["total_sim_s"], summary["total_bytes"],
                 summary["wall_s"]))

    lookup = summarize(runs[("lookup", 1)])
    scan = summarize(runs[("scan", 1)])
    latency_ratio = scan["p50_s"] / max(lookup["p50_s"], 1e-12)
    bytes_ratio = scan["total_bytes"] / max(lookup["total_bytes"], 1)
    print("scan/lookup p50 latency ratio: %.1fx  (p99: %.1fx)"
          % (latency_ratio, scan["p99_s"] / max(lookup["p99_s"], 1e-12)))
    print("scan/lookup bytes ratio:       %.1fx" % bytes_ratio)
    if args.check:
        if latency_ratio < args.min_ratio:
            failures.append("latency ratio %.1fx below gate %.0fx"
                            % (latency_ratio, args.min_ratio))
        if bytes_ratio < args.min_ratio:
            failures.append("bytes ratio %.1fx below gate %.0fx"
                            % (bytes_ratio, args.min_ratio))

    report = {
        "config": vars(args).copy(),
        "summaries": summaries,
        "latency_ratio_p50": latency_ratio,
        "bytes_ratio": bytes_ratio,
        "failures": failures,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, default=str)
    print("wrote %s" % args.out)
    if failures:
        for failure in failures:
            print("FAIL:", failure, file=sys.stderr)
        return 1
    if args.check:
        print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
