"""Chaos harness: DML scripts under seeded fault schedules + an oracle.

One *chaos schedule* is a fully deterministic experiment derived from a
seed and a table *flavour* (a :data:`FLAVOURS` row: a plain, a PRIMARY
KEY or a sharded PRIMARY KEY table).  It builds a small DualTable and a
``{k: v}`` dict — the replay oracle — draws a fault plan and a statement
script, and runs the script.  A statement that *returns* is committed
and applied to the oracle.  One that *raises* runs
:meth:`DualTableHandler.recover` with injection paused; it is applied
only if its redo log was durable and rolled forward.

Every flavour is held to the same five invariants:

1. after every statement, ``SELECT k, v`` (the UNION READ path) equals
   the oracle exactly;
2. a forced LOOKUP returns the oracle's rows, and if a LOOKUP-point
   fault fired inside it, its plan is the scan (``select(...)``);
3. a statement fails only if a non-LOOKUP fault fired inside it;
4. on a PRIMARY KEY table, a committed UPDATE / DELETE runs a job if
   and only if a LOOKUP fault fired inside it (EDIT-by-key otherwise);
5. at the end, the table's LOOKUP fallback counter equals the number of
   LOOKUP faults fired, and two more ``recover()`` calls leave the
   table state (files, rows, every child's attached cells, the shard
   assignment) unchanged.

Any failure reproduces from its seed and flavour alone.
"""

from collections import namedtuple

from repro.common.errors import ReproError
from repro.common.rng import make_rng
from repro.faults.injector import Fault, FaultPlan

#: injection points armed for *concurrent* chaos.  Deliberately a
#: separate tuple (not an extension of POINT_KINDS): the ``dml`` flavour
#: draws points via ``rng.choice`` over POINT_KINDS, so growing that
#: dict would silently reshuffle every existing seed.
SERVER_CHAOS_POINTS = (
    "mapreduce.map",
    "hbase.put",
    "hdfs.write_block",
    "dualtable.dml.stage",
    "dualtable.dml.publish",
)

#: injection points armed for *sharded* chaos.  A separate dict (same
#: rationale as SERVER_CHAOS_POINTS): ``region_crash`` on the LOOKUP
#: probe and the EditBatch puts simulates a region server dying
#: mid-query / mid-commit (replica failover = WAL replay on the next
#: access), while the ``kill`` kinds land inside the rebalance 2PC so
#: both roll-forward and roll-back recovery run under random schedules.
SHARD_CHAOS_POINTS = {
    "lookup.hbase_probe": ("region_crash",),
    "hbase.put": ("region_crash",),
    "dualtable.rebalance.spill": ("kill", "crash"),
    "dualtable.rebalance.manifest": ("kill", "crash"),
    "dualtable.rebalance.apply": ("kill", "crash"),
    "dualtable.rebalance.cleanup": ("kill",),
}


def _lookup_points():
    # Lazy: repro.faults must not import repro.core at import time.
    from repro.core.lookup import LOOKUP_CHAOS_POINTS
    return LOOKUP_CHAOS_POINTS


#: one table flavour.  ``label`` seeds the RNG; ``table`` is the CREATE
#: TABLE body; ``points`` returns the fault registry to draw from (None:
#: ``FaultPlan.random`` over POINT_KINDS); ``mix`` is the statement mix
#: as ``(roll bound, op, range-width divisor)`` rows.
Flavour = namedtuple("Flavour", "label statements table points mix")

_PK = "(k int, v int, PRIMARY KEY (k)) STORED AS DUALTABLE"

#: every chaos flavour.  Labels, counts, registries and mixes are what
#: seeds draw from: changing any of them reshuffles those seeds.
FLAVOURS = {
    "dml": Flavour("chaos", 6, "(k int, v int) STORED AS DUALTABLE", None,
                   ((0.45, "update", 3), (0.70, "delete", 6),
                    (1.0, "compact", None))),
    "lookup": Flavour("lookup-chaos", 10, _PK, _lookup_points,
                      ((0.5, "lookup", None), (0.75, "update", 4),
                       (0.9, "delete_key", None), (1.0, "compact", None))),
    "shard": Flavour("shard-chaos", 12, _PK + " SHARDED BY (k) INTO 4",
                     lambda: SHARD_CHAOS_POINTS,
                     ((0.4, "lookup", None), (0.65, "update", 4),
                      (0.8, "delete_key", None), (1.0, "rebalance", None))),
}

_SQL = {
    "lookup": "SELECT k, v FROM t WHERE k = {lo}",
    "update": "UPDATE t SET v = v + {delta} WHERE k >= {lo} AND k < {hi}",
    "delete": "DELETE FROM t WHERE k >= {lo} AND k < {hi}",
    "delete_key": "DELETE FROM t WHERE k = {lo}",
    "compact": "COMPACT TABLE t{partial}",
    "rebalance": "ALTER TABLE t REBALANCE",
}


def build_chaos_session(table, num_rows=48, rows_per_file=12):
    """A small DualTable session shaped for fault testing.

    Three workers (so datanode losses leave live replicas) and several
    master files (so jobs have multiple tasks to crash); ``table`` is a
    :data:`FLAVOURS` CREATE TABLE body.  Returns ``(session, oracle)``.
    """
    from repro.cluster import ClusterProfile
    from repro.hive import HiveSession

    session = HiveSession(profile=ClusterProfile.laptop(nodes=3))
    session.execute(
        "CREATE TABLE t %s TBLPROPERTIES ('orc.rows_per_file' = '%d', "
        "'orc.stripe_rows' = '6')" % (table, rows_per_file))
    rows = [(i, i * 10) for i in range(num_rows)]
    session.load_rows("t", rows)
    return session, dict(rows)


def make_plan(rng, points):
    """The fault draw: ``FaultPlan.random`` over POINT_KINDS when
    ``points`` is None, else 1-3 faults of (point, kind, ``nth_hit``
    1-4) over the ``{point: kinds}`` registry."""
    if points is None:
        return FaultPlan.random(rng, max_faults=3, max_hit=10)
    faults = []
    for _ in range(rng.randint(1, 3)):
        point = rng.choice(sorted(points))
        kind = rng.choice(points[point])
        faults.append(Fault(point=point, nth_hit=rng.randint(1, 4),
                            kind=kind))
    return FaultPlan(faults)


def make_ops(rng, mix, num_rows, n_statements):
    """A random statement script drawn from ``mix``.

    Returns ``[(op, sql, lo, hi, delta)]``: the op touches the keys
    ``lo <= k < hi``.  No draw depends on execution, so drawing the
    whole script first leaves every seed where it was.
    """
    ops = []
    for _ in range(n_statements):
        roll = rng.random()
        op, width = next((op, width) for bound, op, width in mix
                         if roll < bound)
        lo = hi = delta = 0
        partial = ""
        if width is not None:
            lo = rng.randrange(num_rows)
            hi = min(num_rows,
                     lo + rng.randint(1, max(2, num_rows // width)))
            if op == "update":
                delta = rng.randint(1, 99)
        elif op in ("lookup", "delete_key"):
            lo = rng.randrange(num_rows)
            hi = lo + 1
        elif op == "compact" and rng.random() < 0.5:
            # Half the compactions are incremental, so the partial 2PC
            # fault points get hit under random schedules too.
            partial = " PARTIAL"
        sql = _SQL[op].format(lo=lo, hi=hi, delta=delta, partial=partial)
        ops.append((op, sql, lo, hi, delta))
    return ops


def apply_op(oracle, op, lo, hi, delta):
    """Replay one committed statement on the ``{k: v}`` oracle."""
    for k in [k for k in oracle if lo <= k < hi]:
        if op == "update":
            oracle[k] += delta
        elif op in ("delete", "delete_key"):
            del oracle[k]


def verify_against_oracle(session, oracle):
    """UNION READ == dict replay, with injection paused."""
    with session.cluster.faults.paused():
        rows = session.execute("SELECT k, v FROM t ORDER BY k").rows
    expected = sorted(oracle.items())
    assert rows == expected, (
        "UNION READ diverged from oracle: %r != %r" % (rows, expected))


def table_state(session):
    """A comparable snapshot of the full logical + physical table state:
    files, rows, every shard's attached cells, the shard assignment."""
    handler = session.table("t").handler
    with session.cluster.faults.paused():
        files = tuple(path for shard in handler.shards
                      for path in shard.master.file_paths())
        rows = tuple(session.execute("SELECT k, v FROM t ORDER BY k").rows)
        attached = tuple(
            (shard.name, rid, delta.deleted,
             tuple(sorted(delta.updates.items())))
            for shard in handler.shards
            for rid, delta in shard.attached.scan_range())
    router = handler.router
    assignment = (tuple(router.shard_map.assignment) if router.bucketed
                  else None)
    return files, rows, attached, assignment


def run_chaos_schedule(seed, flavour="dml", num_rows=48):
    """Run one seeded schedule of ``flavour`` end-to-end; returns a
    summary dict.

    Raises AssertionError (with the seed in hand) on any violation of
    the module's invariants 1-5.
    """
    from repro.core.lookup import LOOKUP_CHAOS_POINTS

    spec = FLAVOURS[flavour]
    rng = make_rng(spec.label, seed)
    session, oracle = build_chaos_session(spec.table, num_rows=num_rows)
    handler = session.table("t").handler
    faults = session.cluster.faults
    plan = make_plan(rng, spec.points and spec.points())
    ops = make_ops(rng, spec.mix, num_rows, spec.statements)
    faults.install(plan)
    summary = {"seed": seed, "statements": len(ops), "failed": 0,
               "rolled_forward": 0, "lookups": 0, "keyed_dml": 0,
               "fallbacks": 0, "rebalances": 0, "fired": []}
    try:
        for op, sql, lo, hi, delta in ops:
            mark = len(faults.fired)
            if op == "lookup":
                session.execute("SET dualtable.plan = lookup")
            try:
                result = session.execute(sql)
            except ReproError:
                result = None
            finally:
                if op == "lookup":
                    session.execute("SET dualtable.plan = cost")
            points = {f.point for f, _ in faults.fired[mark:]}
            lookup_fault = bool(points & LOOKUP_CHAOS_POINTS.keys())
            committed = result is not None
            if result is None:
                assert points - LOOKUP_CHAOS_POINTS.keys(), (
                    "seed %r: %r failed with no fault inside it"
                    % (seed, sql))
                summary["failed"] += 1
                with faults.paused():
                    outcome = handler.recover()
                committed = any(o == "rolled_forward"
                                for _, o in outcome["dml"])
                summary["rolled_forward"] += committed
            elif op == "lookup":
                expected = [(lo, oracle[lo])] if lo in oracle else []
                assert result.rows == expected, (
                    "seed %r: lookup k=%d returned %r, oracle %r"
                    % (seed, lo, result.rows, expected))
                assert not lookup_fault or result.plan.startswith(
                    "select("), ("seed %r: faulted lookup reported plan %r"
                                 % (seed, result.plan))
                summary["lookups"] += 1
            elif op == "rebalance":
                summary["rebalances"] += 1
            elif op != "compact" and handler.primary_key is not None:
                assert bool(result.jobs) == lookup_fault, (
                    "seed %r: %r ran %d job(s)"
                    % (seed, sql, len(result.jobs)))
                summary["keyed_dml"] += 1
            if committed:
                apply_op(oracle, op, lo, hi, delta)
            verify_against_oracle(session, oracle)
    finally:
        summary["fired"] = [(f.point, f.kind) for f, _ in faults.fired]
        faults.uninstall()
    fired_lookup = sum(point in LOOKUP_CHAOS_POINTS
                       for point, _ in summary["fired"])
    summary["fallbacks"] = session.cluster.metrics.counters.get(
        "dualtable.plan.lookup_fallback.t", 0)
    assert summary["fallbacks"] == fired_lookup, (
        "seed %r: %d LOOKUP faults fired but %d fallbacks recorded"
        % (seed, fired_lookup, summary["fallbacks"]))
    verify_against_oracle(session, oracle)
    before = table_state(session)
    handler.recover()
    once = table_state(session)
    handler.recover()
    twice = table_state(session)
    assert before == once == twice, (
        "recover() is not idempotent for seed %r" % seed)
    return summary


def run_server_chaos_schedule(seed, statements=40, clients=8, accounts=12,
                              concurrency=4):
    """One seeded *concurrent* chaos experiment; returns a summary dict.

    Derives from the seed: an open-loop ledger schedule over ``clients``
    sessions, 1–3 session kills landing mid-flight, and a random fault
    plan over :data:`SERVER_CHAOS_POINTS` (task crashes, region-server
    crashes, datanode losses, mid-stage and mid-publish kills).  Then
    asserts the server's robustness bar:

    * **zero lost writes** — every statement the server reported
      committed is present in the final ``SUM(v)``;
    * **zero phantom writes** — no aborted/killed statement leaked
      edits;
    * **no orphaned transaction state** — the redo-log directory and
      COMPACT 2PC paths are empty once the run settles;
    * **recover() is idempotent** — running recovery twice more changes
      nothing.

    Any failure reproduces from the seed alone.
    """
    # Imported lazily: repro.server imports the Hive stack, and this
    # module is also used by lightweight fault-injection tests.
    from repro.server.driver import (build_ledger_server, ledger_arrivals,
                                     ledger_totals, run_open_loop)

    rng = make_rng("server-chaos", seed)
    server = build_ledger_server(accounts=accounts, seed=seed,
                                 concurrency=concurrency)
    arrivals = ledger_arrivals(server, clients=clients,
                               statements=statements, accounts=accounts,
                               seed=seed)
    kills = []
    for _ in range(rng.randint(1, 3)):
        anchor = arrivals[rng.randrange(len(arrivals))]
        kills.append((anchor.time + rng.random() * 0.5,
                      anchor.session.id))
    plan = FaultPlan.random(rng, max_faults=3, max_hit=8,
                            points=SERVER_CHAOS_POINTS)
    faults = server.cluster.faults
    faults.install(plan)
    try:
        summary = run_open_loop(server, arrivals, kills=kills)
    finally:
        fired = [(f.point, f.kind) for f, _ in faults.fired]
        faults.uninstall()
    summary["seed"] = seed
    summary["kills"] = len(kills)
    summary["fired"] = fired
    assert summary["lost_writes"] == 0, (
        "seed %r lost %d committed write units"
        % (seed, summary["lost_writes"]))
    assert summary["phantom_writes"] == 0, (
        "seed %r leaked %d uncommitted write units"
        % (seed, summary["phantom_writes"]))
    handler = server.engine.table("ledger").handler
    fs = server.engine.fs
    staged = (list(fs.list_files(handler.txn_dir))
              if fs.exists(handler.txn_dir) else [])
    assert not staged, "seed %r left orphaned redo logs: %r" % (seed, staged)
    for path in (path for shard in handler.shards
                 for path in shard.compaction.paths):
        assert not fs.exists(path), (
            "seed %r left orphaned COMPACT state at %s" % (seed, path))
    total_once, _ = ledger_totals(server.engine)
    handler.recover()
    total_twice, _ = ledger_totals(server.engine)
    handler.recover()
    total_thrice, _ = ledger_totals(server.engine)
    assert total_once == total_twice == total_thrice, (
        "recover() is not idempotent for seed %r" % seed)
    return summary
