#!/usr/bin/env python
"""Sharded scale-out benchmark: identity, scatter-gather speedup, routing.

Three phases over ``SHARDED BY (k) INTO n`` DualTables:

* **identity** — one mixed scan/DML/point workload replayed at shards
  1/4/8 x workers 1/4 must produce identical rows, ledger bytes/ops (seconds to the identity grain) and non-cache
  counters (the :mod:`repro.shard.identity` fingerprint — the same gate
  ``tests/test_shard.py`` enforces);
* **speedup** — full-table scans at 4 shards with ``workers=4`` must
  finish in at most 1/``--min-speedup`` of the 1-shard simulated time
  (scatter-gather widens map slots by the shard fan-out);
* **routing** — every seeded PRIMARY-KEY point query under ``SET
  dualtable.plan = lookup`` must route to exactly the owning shard:
  one shard's ``shard.lookups`` counter moves per query and every
  candidate file in the plan lives under that shard's master directory
  (per-query bytes charged on exactly one shard).

Usage::

    PYTHONPATH=src python scripts/bench_shard.py [--check]
        [--rows 8000] [--identity-rows 240] [--queries 24]
        [--seed 20260808] [--min-speedup 2.0] [--out BENCH_shard.json]

Exits non-zero if ``--check`` and any gate fails.
"""

import argparse
import json
import random
import sys
import time

from repro.cluster import ClusterProfile
from repro.hive import HiveSession
from repro.hive.parser import parse
from repro.hive.pushdown import extract_ranges
from repro.shard.identity import identity_fingerprint

IDENTITY_WORKLOAD = [
    "SELECT count(*), sum(v) FROM t",
    "UPDATE t SET v = 999 WHERE k < 40",
    "SELECT count(*), sum(v) FROM t WHERE v = 999",
    "DELETE FROM t WHERE k >= %(hi)d",
    "SELECT k, v FROM t WHERE k = 0",
    "SELECT grp, count(*), sum(v) FROM t GROUP BY grp ORDER BY grp",
    "SELECT count(*), sum(v) FROM t",
]


def build_session(shards, rows, workers=1, rows_per_file=50):
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers))
    session.execute(
        "CREATE TABLE t (k int, grp string, v int) PRIMARY KEY (k) "
        "STORED AS dualtable SHARDED BY (k) INTO %d "
        "TBLPROPERTIES ('orc.rows_per_file' = '%d')"
        % (shards, rows_per_file))
    session.load_rows("t", [(i, "g%d" % (i % 5), i % 11)
                            for i in range(rows)])
    return session


# ----------------------------------------------------------------------
# Phase 1: shard-count identity.
# ----------------------------------------------------------------------
def run_identity_config(shards, workers, rows):
    session = build_session(shards, rows, workers=workers,
                            rows_per_file=10)
    transcript = []
    for template in IDENTITY_WORKLOAD:
        sql = template % {"hi": int(rows * 0.8)} \
            if "%(" in template else template
        result = session.execute(sql)
        transcript.append((sql, result.rows))
    return identity_fingerprint(session, transcript)


def identity_phase(args, failures):
    configs = [(shards, workers)
               for shards in (1, 4, 8)
               for workers in (1, 4)]
    start = time.perf_counter()
    baseline = run_identity_config(*configs[0], args.identity_rows)
    checked = []
    for config in configs[1:]:
        got = run_identity_config(*config, args.identity_rows)
        parts = [label for label, a, b
                 in zip(("rows", "ledger", "counters"), baseline, got)
                 if a != b]
        ok = not parts
        if not ok:
            failures.append("identity broken at shards=%d workers=%d: "
                            "%s differ" % (*config, ", ".join(parts)))
        checked.append({"shards": config[0], "workers": config[1],
                        "identical": ok})
        print("identity shards=%d workers=%d %s"
              % (*config, "OK" if ok else "MISMATCH"))
    return {"configs": checked,
            "statements": len(IDENTITY_WORKLOAD),
            "wall_s": round(time.perf_counter() - start, 3)}


# ----------------------------------------------------------------------
# Phase 2: scatter-gather scan speedup.
# ----------------------------------------------------------------------
def speedup_phase(args, failures):
    scans = ["SELECT count(*), sum(v) FROM t",
             "SELECT grp, count(*), sum(v) FROM t GROUP BY grp "
             "ORDER BY grp",
             "SELECT count(*) FROM t WHERE v < 6"]
    start = time.perf_counter()
    sim_by_shards = {}
    rows_by_shards = {}
    for shards in (1, 4, 8):
        session = build_session(shards, args.rows, workers=4)
        sim = 0.0
        transcript = []
        for sql in scans:
            result = session.execute(sql)
            sim += result.sim_seconds
            transcript.append(result.rows)
        sim_by_shards[shards] = sim
        rows_by_shards[shards] = transcript
        print("scan shards=%d workers=4: %.3f simulated seconds"
              % (shards, sim))
    if rows_by_shards[4] != rows_by_shards[1] \
            or rows_by_shards[8] != rows_by_shards[1]:
        failures.append("speedup phase: scan rows diverge across shards")
    speedup4 = sim_by_shards[1] / max(sim_by_shards[4], 1e-12)
    speedup8 = sim_by_shards[1] / max(sim_by_shards[8], 1e-12)
    print("scatter-gather speedup: %.2fx at 4 shards, %.2fx at 8"
          % (speedup4, speedup8))
    if args.check and speedup4 < args.min_speedup:
        failures.append("scan speedup %.2fx at 4 shards below gate %.1fx"
                        % (speedup4, args.min_speedup))
    return {"scan_sim_seconds": {str(k): v
                                 for k, v in sim_by_shards.items()},
            "speedup_4_shards": speedup4,
            "speedup_8_shards": speedup8,
            "wall_s": round(time.perf_counter() - start, 3)}


# ----------------------------------------------------------------------
# Phase 3: LOOKUP single-shard routing.
# ----------------------------------------------------------------------
def routing_phase(args, failures):
    start = time.perf_counter()
    session = build_session(4, args.rows, workers=4)
    handler = session.metastore.table("t").handler
    metrics = session.cluster.metrics
    session.execute("SET dualtable.plan = lookup")
    rng = random.Random(args.seed)
    keys = [rng.randrange(args.rows) for _ in range(args.queries)]
    routed, multi_shard, wrong_files = 0, 0, 0
    latencies = []
    for key in keys:
        expect = handler.shard_map.shard_of(key)
        ranges = extract_ranges(
            parse("SELECT v FROM t WHERE k = %d" % key).where)
        plan = handler.plan_lookup(ranges, hit_faults=False)
        prefix = handler.children[expect].master.location + "/"
        if plan is None or any(not f["path"].startswith(prefix)
                               for f in plan.files):
            wrong_files += 1
        before = [metrics.counter("shard.lookups.t.%d" % s)
                  for s in range(4)]
        result = session.execute("SELECT v FROM t WHERE k = %d" % key)
        after = [metrics.counter("shard.lookups.t.%d" % s)
                 for s in range(4)]
        moved = [s for s in range(4) if after[s] != before[s]]
        latencies.append(result.sim_seconds)
        if moved == [expect] and result.detail.get("shard") == expect:
            routed += 1
        else:
            multi_shard += 1
    print("lookup routing: %d/%d routed to the single owning shard"
          % (routed, len(keys)))
    if multi_shard or wrong_files:
        failures.append("lookup routing broken: %d multi-shard charges, "
                        "%d plans with foreign files"
                        % (multi_shard, wrong_files))
    return {"queries": len(keys), "routed_single_shard": routed,
            "plans_with_foreign_files": wrong_files,
            "mean_sim_s": sum(latencies) / max(1, len(latencies)),
            "wall_s": round(time.perf_counter() - start, 3)}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Sharded DualTable identity / speedup / routing "
                    "benchmark")
    parser.add_argument("--rows", type=int, default=8_000)
    parser.add_argument("--identity-rows", type=int, default=240)
    parser.add_argument("--queries", type=int, default=24)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--check", action="store_true",
                        help="enforce the identity/speedup/routing gates")
    parser.add_argument("--out", default="BENCH_shard.json")
    args = parser.parse_args(argv)

    failures = []
    report = {
        "config": vars(args).copy(),
        "identity": identity_phase(args, failures),
        "speedup": speedup_phase(args, failures),
        "routing": routing_phase(args, failures),
    }
    report["failures"] = failures
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
