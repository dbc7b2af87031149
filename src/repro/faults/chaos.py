"""Chaos harness: DML scripts under seeded fault schedules + an oracle.

One *chaos schedule* is a fully deterministic experiment derived from a
single integer seed:

1. build a small DualTable (3-worker laptop profile, several master
   files) and a plain ``{k: v}`` dict — the replay oracle;
2. install a :meth:`FaultPlan.random` schedule on the cluster's
   injector (task crashes, region-server crashes, datanode losses,
   mid-COMPACT and mid-commit kills, stragglers);
3. run a random script of UPDATE / DELETE / COMPACT statements.  A
   statement that *returns* is committed and is applied to the oracle.
   A statement that *raises* triggers :meth:`DualTableHandler.recover`
   (with injection paused — recovery runs after the fault storm): if
   its redo log was durable the statement rolled forward and is applied
   to the oracle, otherwise it rolled back and is not;
4. after every statement — and once more at the end — assert that
   ``SELECT k, v`` (the UNION READ path) equals the oracle exactly, and
   that a second ``recover()`` leaves the table byte-identical
   (idempotence).

Any failure reproduces from its seed alone.
"""

from repro.common.errors import ReproError
from repro.common.rng import make_rng
from repro.faults.injector import Fault, FaultPlan


def build_chaos_session(num_rows=48, rows_per_file=12):
    """A small DualTable session shaped for fault testing.

    Three workers (so datanode losses leave live replicas) and several
    master files (so jobs have multiple tasks to crash).  Returns
    ``(session, oracle)``.
    """
    from repro.cluster import ClusterProfile
    from repro.hive import HiveSession

    profile = ClusterProfile.laptop(num_workers=3)
    session = HiveSession(profile=profile)
    session.execute(
        "CREATE TABLE t (k int, v int) STORED AS DUALTABLE "
        "TBLPROPERTIES ('orc.rows_per_file' = '%d', "
        "'orc.stripe_rows' = '6')" % rows_per_file)
    rows = [(i, i * 10) for i in range(num_rows)]
    session.load_rows("t", rows)
    return session, dict(rows)


def make_ops(rng, num_rows, n_statements):
    """A random statement script with matching oracle-apply closures.

    Returns ``[(kind, sql, apply_fn_or_None)]``.
    """
    ops = []
    for _ in range(n_statements):
        roll = rng.random()
        if roll < 0.45:
            lo = rng.randrange(num_rows)
            hi = min(num_rows, lo + rng.randint(1, max(2, num_rows // 3)))
            delta = rng.randint(1, 99)
            sql = ("UPDATE t SET v = v + %d WHERE k >= %d AND k < %d"
                   % (delta, lo, hi))

            def apply_fn(oracle, lo=lo, hi=hi, delta=delta):
                for k in oracle:
                    if lo <= k < hi:
                        oracle[k] += delta

            ops.append(("update", sql, apply_fn))
        elif roll < 0.70:
            lo = rng.randrange(num_rows)
            hi = min(num_rows, lo + rng.randint(1, max(2, num_rows // 6)))
            sql = "DELETE FROM t WHERE k >= %d AND k < %d" % (lo, hi)

            def apply_fn(oracle, lo=lo, hi=hi):
                for k in [k for k in oracle if lo <= k < hi]:
                    del oracle[k]

            ops.append(("delete", sql, apply_fn))
        else:
            # Half the compactions are incremental, so the partial 2PC
            # fault points get hit under random schedules too.
            sql = ("COMPACT TABLE t PARTIAL" if rng.random() < 0.5
                   else "COMPACT TABLE t")
            ops.append(("compact", sql, None))
    return ops


def verify_against_oracle(session, oracle):
    """UNION READ == dict replay, with injection paused."""
    with session.cluster.faults.paused():
        rows = session.execute("SELECT k, v FROM t ORDER BY k").rows
    expected = sorted(oracle.items())
    assert rows == expected, (
        "UNION READ diverged from oracle: %r != %r" % (rows, expected))


def table_state(session):
    """A comparable snapshot of the full logical + physical table state."""
    handler = session.table("t").handler
    with session.cluster.faults.paused():
        files = tuple(handler.master.file_paths())
        rows = tuple(session.execute("SELECT k, v FROM t ORDER BY k").rows)
        attached = tuple(
            (rid, delta.deleted, tuple(sorted(delta.updates.items())))
            for rid, delta in handler.attached.scan_range())
    return files, rows, attached


#: injection points armed for *concurrent* chaos.  Deliberately a
#: separate tuple (not an extension of POINT_KINDS): the serial
#: schedules above draw points via ``rng.choice`` over POINT_KINDS, so
#: growing that dict would silently reshuffle every existing seed.
SERVER_CHAOS_POINTS = (
    "mapreduce.map",
    "hbase.put",
    "hdfs.write_block",
    "dualtable.dml.stage",
    "dualtable.dml.publish",
)


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
    for path in handler.compaction.paths:
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


def build_lookup_chaos_session(num_rows=48, rows_per_file=12):
    """A PRIMARY KEY DualTable session shaped for LOOKUP fault testing."""
    from repro.cluster import ClusterProfile
    from repro.hive import HiveSession

    profile = ClusterProfile.laptop(num_workers=3)
    session = HiveSession(profile=profile)
    session.execute(
        "CREATE TABLE t (k int, v int, PRIMARY KEY (k)) "
        "STORED AS DUALTABLE "
        "TBLPROPERTIES ('orc.rows_per_file' = '%d', "
        "'orc.stripe_rows' = '6')" % rows_per_file)
    rows = [(i, i * 10) for i in range(num_rows)]
    session.load_rows("t", rows)
    return session, dict(rows)


def run_lookup_chaos_schedule(seed, n_statements=10, num_rows=48):
    """One seeded LOOKUP chaos experiment; returns a summary dict.

    Interleaves forced-LOOKUP point reads (``SET dualtable.plan =
    lookup``) with PK-bounded UPDATE / DELETE statements (EDIT-by-key:
    the same keyed read, staging deltas) and COMPACTs under a random
    fault plan over the LOOKUP injection points (``lookup.index_read``
    crashes, ``lookup.hbase_probe`` crashes and region-server crashes).
    The robustness bar:

    * every statement succeeds — a fault in the keyed read falls back to
      the MR job instead of failing the statement (both LOOKUP points
      fire before the first charged byte, so nothing is double-charged;
      the ledger-equality proof lives in tests/test_lookup.py) and a
      keyed write that fell back staged nothing before its job did;
    * every point read returns exactly the oracle's rows, faults or not;
    * a keyed write launches no job unless a fault fired in it;
    * the fallback counter equals the number of fired LOOKUP faults;
    * the full-scan oracle check passes after every statement.

    Any failure reproduces from its seed alone.
    """
    from repro.core.lookup import LOOKUP_CHAOS_POINTS

    rng = make_rng("lookup-chaos", seed)
    session, oracle = build_lookup_chaos_session(num_rows=num_rows)
    faults = session.cluster.faults
    schedule = []
    for _ in range(rng.randint(1, 3)):
        point = rng.choice(sorted(LOOKUP_CHAOS_POINTS))
        kind = rng.choice(LOOKUP_CHAOS_POINTS[point])
        schedule.append(Fault(point=point, nth_hit=rng.randint(1, 4),
                              kind=kind))
    faults.install(FaultPlan(schedule))
    summary = {"seed": seed, "statements": n_statements, "lookups": 0,
               "keyed_dml": 0, "fallbacks": 0, "fired": []}

    def keyed_dml(sql):
        fired_before = len(faults.fired)
        jobs = session.execute(sql).jobs
        assert bool(jobs) == (len(faults.fired) > fired_before), (
            "seed %r: %r ran %d job(s)" % (seed, sql, len(jobs)))
        summary["keyed_dml"] += 1

    try:
        for _ in range(n_statements):
            roll = rng.random()
            if roll < 0.5:
                k = rng.randrange(num_rows)
                fired_before = len(faults.fired)
                session.execute("SET dualtable.plan = lookup")
                try:
                    result = session.execute(
                        "SELECT k, v FROM t WHERE k = %d" % k)
                finally:
                    session.execute("SET dualtable.plan = cost")
                expected = [(k, oracle[k])] if k in oracle else []
                assert result.rows == expected, (
                    "seed %r: lookup k=%d returned %r, oracle %r"
                    % (seed, k, result.rows, expected))
                if len(faults.fired) > fired_before:
                    # A fault fired mid-lookup: the statement must have
                    # fallen back to the MR scan plan, not failed.
                    assert result.plan.startswith("select("), (
                        "seed %r: faulted lookup reported plan %r"
                        % (seed, result.plan))
                summary["lookups"] += 1
            elif roll < 0.75:
                lo = rng.randrange(num_rows)
                hi = min(num_rows,
                         lo + rng.randint(1, max(2, num_rows // 4)))
                delta = rng.randint(1, 99)
                keyed_dml("UPDATE t SET v = v + %d WHERE k >= %d AND k < %d"
                          % (delta, lo, hi))
                for key in oracle:
                    if lo <= key < hi:
                        oracle[key] += delta
            elif roll < 0.9:
                k = rng.randrange(num_rows)
                keyed_dml("DELETE FROM t WHERE k = %d" % k)
                oracle.pop(k, None)
            else:
                session.execute("COMPACT TABLE t PARTIAL"
                                if rng.random() < 0.5
                                else "COMPACT TABLE t")
            verify_against_oracle(session, oracle)
    finally:
        summary["fired"] = [(f.point, f.kind) for f, _ in faults.fired]
        faults.uninstall()
    fired_lookup = [pair for pair in summary["fired"]
                    if pair[0] in LOOKUP_CHAOS_POINTS]
    fallbacks = session.cluster.metrics.counters.get(
        "dualtable.plan.lookup_fallback.t", 0)
    assert fallbacks == len(fired_lookup), (
        "seed %r: %d LOOKUP faults fired but %d fallbacks recorded"
        % (seed, len(fired_lookup), fallbacks))
    summary["fallbacks"] = fallbacks
    verify_against_oracle(session, oracle)
    return summary


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


def build_shard_chaos_session(num_rows=48, rows_per_file=12, shards=4):
    """A sharded PRIMARY KEY DualTable session shaped for fault testing."""
    from repro.cluster import ClusterProfile
    from repro.hive import HiveSession

    profile = ClusterProfile.laptop(num_workers=3)
    session = HiveSession(profile=profile)
    session.execute(
        "CREATE TABLE t (k int, v int, PRIMARY KEY (k)) "
        "STORED AS DUALTABLE SHARDED BY (k) INTO %d "
        "TBLPROPERTIES ('orc.rows_per_file' = '%d', "
        "'orc.stripe_rows' = '6')" % (shards, rows_per_file))
    rows = [(i, i * 10) for i in range(num_rows)]
    session.load_rows("t", rows)
    return session, dict(rows)


def shard_table_state(session):
    """A comparable snapshot of a sharded table's logical + physical state."""
    handler = session.table("t").handler
    with session.cluster.faults.paused():
        rows = tuple(session.execute("SELECT k, v FROM t ORDER BY k").rows)
        files = tuple(handler.master.file_paths())
        assignment = tuple(handler.shard_map.assignment)
        attached = tuple(
            (child.table.name, rid, delta.deleted,
             tuple(sorted(delta.updates.items())))
            for child in handler.children
            for rid, delta in child.attached.scan_range())
    return files, rows, assignment, attached


def run_shard_chaos_schedule(seed, n_statements=12, num_rows=48, shards=4):
    """One seeded shard-kill chaos experiment; returns a summary dict.

    Interleaves routed point reads, range DML and ``ALTER TABLE ...
    REBALANCE`` under a random fault plan over
    :data:`SHARD_CHAOS_POINTS`.  The robustness bar:

    * a region server killed mid-LOOKUP falls back to the scatter-gather
      scan — the statement still returns exactly the oracle's rows, and
      the next attached access replays the WAL (replica failover);
    * a region server killed mid-commit is absorbed by the EditBatch
      retry loop — the statement commits and the oracle applies;
    * a ``kill`` inside the rebalance 2PC either rolls forward (manifest
      durable) or rolls back (spill only) on ``recover()`` — and since a
      rebalance only *moves* buckets, the oracle is unchanged either
      way, so oracle equality after recovery proves no row was lost or
      duplicated mid-move;
    * the full-scan oracle check passes after every statement and
      ``recover()`` is idempotent at the end.

    Any failure reproduces from its seed alone.
    """
    rng = make_rng("shard-chaos", seed)
    session, oracle = build_shard_chaos_session(num_rows=num_rows,
                                                shards=shards)
    handler = session.table("t").handler
    faults = session.cluster.faults
    schedule = []
    for _ in range(rng.randint(1, 3)):
        point = rng.choice(sorted(SHARD_CHAOS_POINTS))
        kind = rng.choice(SHARD_CHAOS_POINTS[point])
        schedule.append(Fault(point=point, nth_hit=rng.randint(1, 4),
                              kind=kind))
    faults.install(FaultPlan(schedule))
    summary = {"seed": seed, "statements": n_statements, "lookups": 0,
               "rebalances": 0, "failed": 0, "rolled_forward": 0,
               "fired": []}

    def recover_after_failure():
        with faults.paused():
            outcome = handler.recover()
        if any(o == "rolled_forward" for _, o in outcome["dml"]):
            summary["rolled_forward"] += 1
            return True
        return False

    try:
        for _ in range(n_statements):
            roll = rng.random()
            if roll < 0.4:
                k = rng.randrange(num_rows)
                session.execute("SET dualtable.plan = lookup")
                try:
                    result = session.execute(
                        "SELECT k, v FROM t WHERE k = %d" % k)
                finally:
                    session.execute("SET dualtable.plan = cost")
                expected = [(k, oracle[k])] if k in oracle else []
                assert result.rows == expected, (
                    "seed %r: lookup k=%d returned %r, oracle %r"
                    % (seed, k, result.rows, expected))
                summary["lookups"] += 1
            elif roll < 0.65:
                lo = rng.randrange(num_rows)
                hi = min(num_rows,
                         lo + rng.randint(1, max(2, num_rows // 4)))
                delta = rng.randint(1, 99)
                sql = ("UPDATE t SET v = v + %d WHERE k >= %d AND k < %d"
                       % (delta, lo, hi))
                committed = True
                try:
                    session.execute(sql)
                except ReproError:
                    summary["failed"] += 1
                    committed = recover_after_failure()
                if committed:
                    for key in oracle:
                        if lo <= key < hi:
                            oracle[key] += delta
            elif roll < 0.8:
                k = rng.randrange(num_rows)
                committed = True
                try:
                    session.execute("DELETE FROM t WHERE k = %d" % k)
                except ReproError:
                    summary["failed"] += 1
                    committed = recover_after_failure()
                if committed:
                    oracle.pop(k, None)
            else:
                # A rebalance moves one bucket between shards; the
                # logical contents are invariant whether it commits,
                # rolls forward or rolls back.
                try:
                    session.execute("ALTER TABLE t REBALANCE")
                    summary["rebalances"] += 1
                except ReproError:
                    summary["failed"] += 1
                    recover_after_failure()
            verify_against_oracle(session, oracle)
    finally:
        summary["fired"] = [(f.point, f.kind) for f, _ in faults.fired]
        faults.uninstall()
    verify_against_oracle(session, oracle)
    before = shard_table_state(session)
    handler.recover()
    once = shard_table_state(session)
    handler.recover()
    twice = shard_table_state(session)
    assert before == once == twice, (
        "recover() is not idempotent for seed %r" % seed)
    return summary


def run_chaos_schedule(seed, n_statements=6, num_rows=48):
    """Run one seeded schedule end-to-end; returns a summary dict.

    Raises AssertionError (with the seed in hand) on any invariant
    violation.
    """
    rng = make_rng("chaos", seed)
    session, oracle = build_chaos_session(num_rows=num_rows)
    handler = session.table("t").handler
    faults = session.cluster.faults
    plan = FaultPlan.random(rng, max_faults=3, max_hit=10)
    ops = make_ops(rng, num_rows, n_statements)
    faults.install(plan)
    summary = {"seed": seed, "plan": plan, "statements": len(ops),
               "failed": 0, "rolled_forward": 0, "fired": 0}
    try:
        for kind, sql, apply_fn in ops:
            committed = False
            try:
                session.execute(sql)
                committed = True
            except ReproError:
                summary["failed"] += 1
                # Recovery runs after the failure, injection paused.
                with faults.paused():
                    outcome = handler.recover()
                if any(o == "rolled_forward" for _, o in outcome["dml"]):
                    committed = True
                    summary["rolled_forward"] += 1
                # Either way the table must be consistent: roll-forward
                # compactions / rolled-back DML both leave it readable.
            if committed and apply_fn is not None:
                apply_fn(oracle)
            verify_against_oracle(session, oracle)
    finally:
        summary["fired"] = [(f.point, f.kind) for f, _ in faults.fired]
        faults.uninstall()
    # Final invariants: oracle equivalence and recover() idempotence.
    verify_against_oracle(session, oracle)
    before = table_state(session)
    handler.recover()
    once = table_state(session)
    handler.recover()
    twice = table_state(session)
    assert before == once == twice, (
        "recover() is not idempotent for seed %r" % seed)
    return summary
