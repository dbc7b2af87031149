"""Sharded DualTable tests: identity, routing, rebalance, advisor.

The load-bearing contract is *shard-count identity* (INTERNALS §13): a
logical table ``SHARDED BY (k) INTO n`` returns the same rows, charges
the same ledger bytes/ops, and moves the same non-cache counters for
every ``n`` — sharding changes placement and simulated makespan only.
The comparison goes through :mod:`repro.shard.identity`.  The makespan
side of the contract is ``TestScatterGatherSpeedup`` and
``TestCompactSpeedup``.
"""

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import FaultInjectedError
from repro.core.master import FILE_ID_KEY
from repro.faults import Fault, FaultPlan
from repro.hive import HiveSession
from repro.hive import ast_nodes as ast
from repro.hive.parser import parse
from repro.hive.pushdown import ColumnRange
from repro.advisor import WorkloadAdvisor, apply_findings
from repro.server import Arrival, build_ledger_server
from repro.shard import NUM_BUCKETS, ShardMap
from repro.shard.identity import identity_fingerprint

from tests.golden import golden, jsonable


def make_session(shards, workers=1, rows=90, rows_per_file=10):
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers))
    session.execute(
        "CREATE TABLE t (k int, grp string, v int) PRIMARY KEY (k) "
        "STORED AS dualtable SHARDED BY (k) INTO %d "
        "TBLPROPERTIES ('orc.rows_per_file' = '%d')"
        % (shards, rows_per_file))
    session.load_rows("t", [(i, "g%d" % (i % 3), i % 7)
                            for i in range(rows)])
    return session


def handler_of(session, name="t"):
    return session.metastore.table(name).handler


def owner_of(shard_map, key):
    """The shard that owns ``key``'s bucket under ``shard_map``."""
    return shard_map.assignment[ShardMap.bucket_of(key)]


def master_files(handler):
    """``[(path, (file_id, num_rows))]`` of every shard's master files."""
    return [(path, (int(shard.master.meta(path).metadata[FILE_ID_KEY]),
                    shard.master.meta(path).num_rows))
            for shard in handler.shards for path in shard.master.file_paths()]


# ---------------------------------------------------------------------------
# Shard-count identity: INTO 1/4/8 x workers 1/4, against the serial
# single-shard run (``vectorized``) and against what the row engine
# recorded for it (``row``, tests/golden.py).
# ---------------------------------------------------------------------------
IDENTITY_WORKLOAD = [
    "SELECT count(*), sum(v) FROM t",
    "UPDATE t SET v = 999 WHERE k < 20",
    "SELECT count(*), sum(v) FROM t WHERE v = 999",
    "DELETE FROM t WHERE k >= 70",
    "SELECT k, v FROM t WHERE k = 0",
    # keyed statements: EDIT-by-key, an IN-list and a range LOOKUP over
    # shards (a closed int range pins its keys' buckets like an IN list)
    "UPDATE t SET v = v + 100 WHERE k IN (3, 17, 40, 66)",
    "DELETE FROM t WHERE k = 5",
    "UPDATE t SET grp = 'r' WHERE k BETWEEN 30 AND 33",
    "SELECT k, grp, v FROM t WHERE k IN (3, 5, 17, 31)",
    "SELECT k, grp, v FROM t WHERE k > 28 AND k <= 34",
    "SELECT grp, count(*), sum(v) FROM t GROUP BY grp ORDER BY grp",
    "SELECT count(*), sum(v) FROM t",
]


def run_identity(shards, workers=1):
    session = make_session(shards, workers=workers)
    transcript = []
    for sql in IDENTITY_WORKLOAD:
        result = session.execute(sql)
        transcript.append((sql, result.rows))
    return jsonable(identity_fingerprint(session, transcript))


def golden_sections():
    return {"shard_identity": run_identity(1, workers=1)}


@pytest.fixture(scope="module")
def identity_baseline():
    return run_identity(1, workers=1)


class TestShardCountIdentity:
    @pytest.mark.parametrize("shards,workers,engine", [
        (1, 1, "vectorized"),
        (1, 4, "row"),
        (1, 4, "vectorized"),
        (4, 1, "row"),
        (4, 1, "vectorized"),
        (4, 4, "row"),
        (4, 4, "vectorized"),
        (8, 1, "row"),
        (8, 1, "vectorized"),
        (8, 4, "row"),
        (8, 4, "vectorized"),
    ])
    def test_fingerprint_matches_serial_single_shard(
            self, identity_baseline, shards, workers, engine):
        transcript, ledger, counters = run_identity(shards, workers)
        base_transcript, base_ledger, base_counters = (
            golden("shard_identity") if engine == "row"
            else identity_baseline)
        for (sql, rows), (_, expect) in zip(transcript, base_transcript):
            assert rows == expect, sql
        assert ledger == base_ledger
        assert counters == base_counters

    def test_baseline_rerun_is_self_consistent(self, identity_baseline):
        assert run_identity(1, workers=1) == identity_baseline

    def test_physical_file_set_is_shard_count_invariant(self):
        """Bucket-grouped layout: same basenames, sizes and row counts
        for every INTO n — only the owning directory differs."""
        def file_set(shards):
            handler = handler_of(make_session(shards))
            fs = handler.env.fs
            out = []
            for path, (file_id, num_rows) in sorted(
                    master_files(handler),
                    key=lambda f: f[0].rsplit("/", 1)[-1]):
                out.append((path.rsplit("/", 1)[-1], file_id,
                            fs.file_size(path), num_rows))
            return out
        base = file_set(1)
        assert len(base) > 8
        assert file_set(4) == base
        assert file_set(8) == base

    def test_rows_survive_compact_at_every_shard_count(self):
        """COMPACT is one job over the stores it folds, then one manifest
        2PC per store: each store consolidates its own files, so the
        *file layout* after it is placement-dependent — but the logical
        rows must stay identical at every INTO n."""
        def rows_after_compact(shards):
            session = make_session(shards)
            session.execute("UPDATE t SET v = 999 WHERE k < 20")
            session.execute("COMPACT TABLE t")
            return session.execute(
                "SELECT k, grp, v FROM t ORDER BY k").rows
        base = rows_after_compact(1)
        assert len(base) == 90
        assert rows_after_compact(4) == base
        assert rows_after_compact(8) == base


# ---------------------------------------------------------------------------
# Scatter-gather: sharding shortens the simulated makespan of a scan
# and of a COMPACT.  Slots reuse their JVM within a job, so a job's map
# phase is one task start-up plus the I/O of its busiest slot; fan-out
# governs the I/O term, ``map_seconds - task_overhead_s``.
# ---------------------------------------------------------------------------
def map_io_seconds(session, jobs):
    """Each job's map phase less its one task start-up."""
    overhead = session.cluster.profile.task_overhead_s
    return [job.map_seconds - overhead for job in jobs]


def assert_fanout_speedup(io, sim):
    """``io`` / ``sim`` by INTO 1, 4, 8: the I/O term is at least 2x
    shorter at INTO 4 and shorter again at 8, per job, and no
    statement gets slower as shards are added."""
    assert len(io[1]) == len(io[4]) == len(io[8]) > 0
    for one, four, eight in zip(io[1], io[4], io[8]):
        assert one / four >= 2.0, (one, four)
        assert eight < four, (four, eight)
    for one, four, eight in zip(sim[1], sim[4], sim[8]):
        assert one >= four >= eight, (one, four, eight)


class TestScatterGatherSpeedup:
    SCANS = [
        "SELECT count(*), sum(v) FROM t",
        "SELECT grp, count(*), sum(v) FROM t GROUP BY grp ORDER BY grp",
        "SELECT count(*) FROM t WHERE v < 6",
    ]

    def scan(self, shards):
        session = make_session(shards, workers=4, rows=8000,
                               rows_per_file=50)
        # The jobs' schedules: aggregations this small run as local jobs
        # unless the plan is forced.
        session.execute("SET dualtable.plan = scan")
        results = [session.execute(sql) for sql in self.SCANS]
        return (map_io_seconds(session, [job for r in results
                                         for job in r.jobs]),
                [r.sim_seconds for r in results],
                [r.rows for r in results])

    def test_four_shards_scan_at_least_twice_as_fast(self):
        """Four shards widen the map slots four-fold.  Full scans of 192
        files on ``workers=4``: each job's map I/O term is 0.0021 s at
        INTO 1, 0.0005 s at INTO 4 (4.2x) and 0.0003 s at INTO 8; a
        statement takes 0.602 / 0.601 / 0.600 s, its job start-up."""
        io, sim, rows = {}, {}, {}
        for shards in (1, 4, 8):
            io[shards], sim[shards], rows[shards] = self.scan(shards)
        assert rows[4] == rows[1] and rows[8] == rows[1]
        assert_fanout_speedup(io, sim)


class TestCompactSpeedup:
    """A COMPACT is one job over every store it folds, its splits spread
    over one region server per store — the makespan side of COMPACT."""

    def compact(self, shards):
        session = make_session(shards, workers=4, rows=8000,
                               rows_per_file=50)
        session.execute("UPDATE t SET v = -1 WHERE k IN (%s)" % ", ".join(
            str(k) for k in range(0, 8000, 50)))
        result = session.execute("COMPACT TABLE t")
        assert result.detail["rows_written"] == 8000
        assert len(result.jobs) == 1
        return (map_io_seconds(session, result.jobs), [result.sim_seconds],
                session.execute("SELECT k, grp, v FROM t ORDER BY k").rows)

    def test_more_shards_compact_faster(self):
        """Full COMPACT of 8000 rows in 192 files on ``workers=4``: the
        map I/O term is 0.0037 s at INTO 1, 0.0009 s at INTO 4 (4.1x)
        and 0.0005 s at INTO 8; the statement takes 0.554 / 0.551 /
        0.551 s."""
        io, sim, rows = {}, {}, {}
        for shards in (1, 4, 8):
            io[shards], sim[shards], rows[shards] = self.compact(shards)
        assert rows[4] == rows[1] and rows[8] == rows[1]
        assert_fanout_speedup(io, sim)


# ---------------------------------------------------------------------------
# LOOKUP routing: exactly the owning shard is planned, read and charged.
# ---------------------------------------------------------------------------
class TestLookupRouting:
    def test_point_read_routed_to_single_owning_shard(self):
        session = make_session(4)
        handler = handler_of(session)
        key = 17
        owner = owner_of(handler.shard_map, key)
        session.execute("SET dualtable.plan = lookup")
        result = session.execute("SELECT k, v FROM t WHERE k = %d" % key)
        assert result.rows == [(17, 17 % 7)]
        assert result.plan == "lookup"
        assert result.detail["shard"] == owner
        metrics = session.cluster.metrics
        for shard in range(4):
            expect = 1 if shard == owner else 0
            assert metrics.counter("shard.lookups.t.%d" % shard) == expect

    def test_lookup_plan_reads_only_owning_shard_files(self):
        """Every candidate file in the routed plan lives under the
        owning child's master directory — the per-query bytes are
        charged on exactly one shard."""
        session = make_session(4)
        handler = handler_of(session)
        key = 17
        owner = owner_of(handler.shard_map, key)
        plan = handler.plan_lookup(
            {"k": _point_range(session, key)}, hit_faults=False)
        assert plan is not None and plan.shard == owner
        prefix = handler.shards[owner].master.location + "/"
        assert plan.files
        assert all(f["path"].startswith(prefix) for f in plan.files)

    def test_point_read_with_an_equal_float_literal_finds_the_row(self):
        """Regression: ``WHERE k = 5.0`` hashed ``repr(5.0)`` and was
        routed to another shard than the one holding ``k = 5`` — ``[]``
        from the sharded table, ``[(5, 5)]`` from the unsharded one,
        while the UPDATE (a scan) reported one row."""
        for shards in (4, 1):
            session = make_session(shards)
            assert owner_of(handler_of(session).shard_map, 5.0) == \
                owner_of(handler_of(session).shard_map, 5)
            for literal in ("5.0", "5"):
                result = session.execute(
                    "SELECT k, v FROM t WHERE k = %s" % literal)
                assert result.rows == [(5, 5)], (shards, literal)
            session.execute("UPDATE t SET v = 51 WHERE k = 5.0")
            assert sorted(session.execute(
                "SELECT k, v FROM t WHERE k IN (5.0, 6)").rows) == \
                [(5, 51), (6, 6)]

    def test_key_of_another_type_is_not_routed_by_its_hash(self):
        """Regression: ``WHERE k = '9'`` compares equal to ``k = 9`` but
        hashes as a string, so the LOOKUP read another shard and answered
        ``[]`` where the scan answers ``[(9, 2)]``.  Only a key of the
        column's own type pins a shard; anything else is a scan."""
        for shards in (4, 1):
            for literal, want in (("'9'", [(9, 2)]), ("true", [(1, 1)]),
                                  ("'9.0'", [(9, 2)]), ("'x'", [])):
                session = make_session(shards)
                sql = "SELECT k, v FROM t WHERE k = %s" % literal
                result = session.execute(sql)
                session.execute("SET dualtable.plan = scan")
                assert result.rows == session.execute(sql).rows == want, \
                    (shards, literal)
                assert result.plan.startswith("select("), (shards, literal)
        handler = handler_of(make_session(4))
        for value in ("9", True, 9.0, 9):
            point = ColumnRange(low=value, high=value,
                                in_set=frozenset([value]))
            plan = handler.plan_lookup({"k": point}, hit_faults=False)
            assert (plan is not None) == (type(value) is int), value

    def test_open_range_fans_out_to_scan(self):
        session = make_session(4)
        handler = handler_of(session)
        assert handler.plan_lookup(
            {"k": _open_range(session)}, hit_faults=False) is None
        session.execute("SET dualtable.plan = cost")
        result = session.execute("SELECT count(*) FROM t WHERE k < 50")
        assert result.rows == [(50,)]
        assert result.plan.startswith("select(")


def _point_range(session, key):
    from repro.hive.pushdown import extract_ranges
    stmt = parse("SELECT k FROM t WHERE k = %d" % key)
    return extract_ranges(stmt.where)["k"]


def _open_range(session):
    from repro.hive.pushdown import extract_ranges
    stmt = parse("SELECT k FROM t WHERE k < 50")
    return extract_ranges(stmt.where)["k"]


# ---------------------------------------------------------------------------
# SHOW SHARDS / REBALANCE.
# ---------------------------------------------------------------------------
class TestShowShardsAndRebalance:
    def test_show_shards_accounts_for_every_bucket_and_row(self):
        session = make_session(4)
        result = session.execute("SHOW SHARDS t")
        assert result.names == ["shard", "buckets", "files", "rows",
                                "master_bytes", "attached_bytes", "heat"]
        assert len(result.rows) == 4
        assert sum(r[1] for r in result.rows) == NUM_BUCKETS
        assert sum(r[3] for r in result.rows) == 90

    def test_rebalance_is_a_noop_when_heat_is_balanced(self):
        session = make_session(4)
        result = session.execute("ALTER TABLE t REBALANCE")
        assert result.plan == "rebalance-noop"
        assert result.affected == 0

    def test_rebalance_moves_hot_bucket_and_resets_heat(self):
        session = make_session(4)
        handler = handler_of(session)
        hot_key = 17
        src = owner_of(handler.shard_map, hot_key)
        session.execute("SET dualtable.plan = lookup")
        for _ in range(12):
            session.execute("SELECT v FROM t WHERE k = %d" % hot_key)
        session.execute("SET dualtable.plan = cost")
        heats = handler.shard_heats()
        assert heats[src] == 12
        before_rows = session.execute(
            "SELECT k, grp, v FROM t ORDER BY k").rows
        result = session.execute("ALTER TABLE t REBALANCE")
        assert result.plan == "rebalance"
        assert result.detail["src"] == src
        moved_bucket = result.detail["bucket"]
        assert handler.shard_map.assignment[moved_bucket] \
            == result.detail["dst"]
        # Data-neutral: the logical table is unchanged.
        assert session.execute(
            "SELECT k, grp, v FROM t ORDER BY k").rows == before_rows
        # Heat measurement restarts from zero.
        assert handler.shard_heats() == [0] * 4

    @staticmethod
    def rebalance_session():
        """``(session, src, dst)``: deltas on every shard and key 17
        hot, so REBALANCE moves a bucket from key 17's shard to the
        lowest-index other shard, both of them dirty."""
        session = make_session(4)
        shard_map = handler_of(session).shard_map
        keys = [next(k for k in range(90) if owner_of(shard_map, k) == i)
                for i in range(4)]
        session.execute("UPDATE t SET v = -5 WHERE k IN (%s)"
                        % ", ".join(map(str, keys)))
        session.execute("SET dualtable.plan = lookup")
        for _ in range(12):
            session.execute("SELECT v FROM t WHERE k = 17")
        session.execute("SET dualtable.plan = cost")
        src = owner_of(shard_map, 17)
        return session, src, min(set(range(4)) - {src})

    def test_rebalance_folds_both_shards_in_one_job(self):
        """REBALANCE folds ``src`` and ``dst`` in one COMPACT job: what
        it moves and leaves is what folding each shard on its own and
        then rebalancing does, in less simulated time."""
        def outcome(session, result):
            handler = handler_of(session)
            fs = handler.env.fs
            return (result.plan, result.affected, result.detail,
                    list(handler.shard_map.assignment),
                    session.execute("SELECT k, grp, v FROM t ORDER BY k").rows,
                    sorted((path, fs.read_file(path))
                           for path, _ in master_files(handler)))
        session, src, dst = self.rebalance_session()
        result = session.execute("ALTER TABLE t REBALANCE")
        assert (result.detail["src"], result.detail["dst"]) == (src, dst)
        assert result.detail["moved_rows"] > 0
        assert [job.name for job in result.jobs] == ["compact"]

        twin, _, _ = self.rebalance_session()
        handler = handler_of(twin)
        folds = [handler.execute_compact(twin, store=index)
                 for index in (src, dst)]
        assert [len(fold.jobs) for fold in folds] == [1, 1]
        rebalance = twin.execute("ALTER TABLE t REBALANCE")
        assert rebalance.jobs == []
        assert outcome(session, result) == outcome(twin, rebalance)
        assert result.sim_seconds < rebalance.sim_seconds + sum(
            fold.sim_seconds for fold in folds)

    def test_rolled_forward_rebalance_resets_heat(self):
        """recover() finishing a rebalance restarts the heat measurement
        like an uncrashed one, so the next REBALANCE is a no-op."""
        session = make_session(4)
        handler = handler_of(session)
        hot_key = next(k for k in range(90)
                       if owner_of(handler.shard_map, k) == 3)
        session.execute("SET dualtable.plan = lookup")
        for _ in range(20):
            session.execute("SELECT v FROM t WHERE k = %d" % hot_key)
        session.execute("SET dualtable.plan = cost")
        assert handler.shard_heats() == [0, 0, 0, 20]
        session.cluster.faults.install(FaultPlan([
            Fault("dualtable.rebalance.cleanup", nth_hit=1, kind="kill")]))
        with pytest.raises(FaultInjectedError):
            session.execute("ALTER TABLE t REBALANCE")
        session.cluster.faults.uninstall()
        assert handler.recover()["rebalance"] == "rolled_forward"
        assert handler.shard_heats() == [0] * 4
        assert session.execute("ALTER TABLE t REBALANCE").plan \
            == "rebalance-noop"

    def test_rebalance_decision_is_deterministic(self):
        def run_once():
            session = make_session(4)
            session.execute("SET dualtable.plan = lookup")
            for key in (17, 17, 17, 17, 5, 41):
                session.execute("SELECT v FROM t WHERE k = %d" % key)
            session.execute("SET dualtable.plan = cost")
            result = session.execute("ALTER TABLE t REBALANCE")
            handler = handler_of(session)
            return (result.detail, list(handler.shard_map.assignment))
        assert run_once() == run_once()

    def test_shard_map_survives_reopen(self):
        session = make_session(4)
        handler = handler_of(session)
        session.execute("SET dualtable.plan = lookup")
        for _ in range(12):
            session.execute("SELECT v FROM t WHERE k = 17")
        session.execute("SET dualtable.plan = cost")
        session.execute("ALTER TABLE t REBALANCE")
        moved = list(handler.shard_map.assignment)
        assert moved != [b % 4 for b in range(NUM_BUCKETS)]
        reloaded = ShardMap(handler.env.fs, "t", 4)
        assert reloaded.assignment == moved


# ---------------------------------------------------------------------------
# Advisor: shard-skew finding closes the loop through REBALANCE.
# ---------------------------------------------------------------------------
class TestShardSkewAdvisor:
    def _skewed_session(self):
        session = make_session(4)
        handler = handler_of(session)
        hot_key = 17
        session.execute("SET dualtable.plan = lookup")
        for _ in range(12):
            session.execute("SELECT v FROM t WHERE k = %d" % hot_key)
        session.execute("SET dualtable.plan = cost")
        return session, handler, owner_of(handler.shard_map, hot_key)

    def test_skew_surfaces_with_rebalance_remediation(self):
        session, handler, hot = self._skewed_session()
        findings = [f for f in WorkloadAdvisor(session).analyze()
                    if f.code == "shard-skew"]
        assert len(findings) == 1
        finding = findings[0]
        assert finding.subject == "t"
        assert finding.evidence["hot_shard"] == hot
        assert finding.remediation == ["ALTER TABLE t REBALANCE"]

    def test_apply_clears_the_finding(self):
        session, handler, _ = self._skewed_session()
        findings = [f for f in WorkloadAdvisor(session).analyze()
                    if f.code == "shard-skew"]
        applied = apply_findings(session, findings)
        assert [sql for sql, _ in applied] == ["ALTER TABLE t REBALANCE"]
        assert not [f for f in WorkloadAdvisor(session).analyze()
                    if f.code == "shard-skew"]

    def test_balanced_table_stays_quiet(self):
        session = make_session(4)
        assert not [f for f in WorkloadAdvisor(session).analyze()
                    if f.code == "shard-skew"]


# ---------------------------------------------------------------------------
# SQL surface.
# ---------------------------------------------------------------------------
class TestShardSQL:
    def test_create_sharded_parses_into_properties(self):
        stmt = parse("CREATE TABLE t (k int, v int) PRIMARY KEY (k) "
                     "STORED AS dualtable SHARDED BY (k) INTO 8")
        assert stmt.shard_key == "k"
        assert stmt.shard_count == 8
        # The clause is position-flexible: before STORED AS too.
        alt = parse("CREATE TABLE t (k int, v int) PRIMARY KEY (k) "
                    "SHARDED BY (k) INTO 8 STORED AS dualtable")
        assert (alt.shard_key, alt.shard_count) == ("k", 8)

    def test_show_shards_and_rebalance_parse(self):
        assert isinstance(parse("SHOW SHARDS t"), ast.ShowShardsStmt)
        assert isinstance(parse("ALTER TABLE t REBALANCE"),
                          ast.AlterRebalanceStmt)

    def test_sharded_requires_known_key_column(self):
        session = HiveSession(profile=ClusterProfile.laptop())
        with pytest.raises(Exception):
            session.execute(
                "CREATE TABLE bad (k int, v int) PRIMARY KEY (k) "
                "STORED AS dualtable SHARDED BY (missing) INTO 4")


# ---------------------------------------------------------------------------
# Repeatable analytic reads (server snapshot_seq).
# ---------------------------------------------------------------------------
class TestRepeatableServerReads:
    def test_reads_resolve_against_dispatch_time_snapshot(self):
        """Every outcome carries the commit-log seq its snapshot was
        taken at, and a read's rows are fully determined by that seq:
        before the writer's commit_seq it sees the old total, at or
        after it the new one — never a mix."""
        server = build_ledger_server(accounts=8, seed=11)
        writer, reader = server.connect("w"), server.connect("r")
        arrivals = [Arrival(0.0, writer,
                            "UPDATE ledger SET v = v + 10 WHERE id < 8")]
        arrivals += [Arrival(0.001 * (i + 1), reader,
                             "SELECT SUM(v) FROM ledger")
                     for i in range(6)]
        arrivals += [Arrival(5.0, reader, "SELECT SUM(v) FROM ledger")]
        outcomes = server.run(arrivals, concurrency=4)
        write = next(o for o in outcomes
                     if o["sql"].startswith("UPDATE"))
        assert write["status"] == "committed"
        assert write["snapshot_seq"] is not None
        commit_seq = write["commit_seq"]
        reads = [o for o in outcomes if o["sql"].startswith("SELECT")]
        assert reads and all(o["snapshot_seq"] is not None
                             for o in reads)
        for o in reads:
            total = o["result"].scalar() or 0
            expect = 80 if o["snapshot_seq"] >= commit_seq else 0
            assert total == expect, o
        # The late read ran after the commit and must see it.
        assert reads[-1]["snapshot_seq"] >= commit_seq


# ---------------------------------------------------------------------------
# Keyed plans over several shards; sharded INSERT OVERWRITE.
# ---------------------------------------------------------------------------
def _in_list(session, keys):
    return ColumnRange(low=min(keys), high=max(keys), in_set=frozenset(keys))


class TestMultiShardKeyedPlans:
    KEYS = [3, 17, 40, 66, 81]

    def test_in_list_plan_spans_the_owning_shards_in_basename_order(self):
        """An IN list that spans shards is ONE plan: the per-shard
        candidates in canonical (file id) order, whatever INTO n."""
        def candidates(shards):
            session = make_session(shards)
            handler = handler_of(session)
            plan = handler.plan_lookup({"k": _in_list(session, self.KEYS)},
                                       hit_faults=False)
            owners = sorted({owner_of(handler.shard_map, k)
                             for k in self.KEYS})
            assert list(plan.shards) == owners
            assert plan.shard == (owners[0] if len(owners) == 1 else None)
            for payload in plan.files:
                child = handler.shards[payload["shard"]]
                assert payload["path"].startswith(child.master.location)
            return [(f["path"].rsplit("/", 1)[-1], f["file_id"],
                     f["row_spans"], f["est_rows"]) for f in plan.files]
        base = candidates(1)
        assert [name for name, *_ in base] == sorted(n for n, *_ in base)
        assert len(base) == len(self.KEYS)       # one bucket file per key
        assert candidates(4) == base
        assert candidates(8) == base

    def test_in_list_read_charges_each_owning_shard_once(self):
        session = make_session(4)
        handler = handler_of(session)
        owners = sorted({owner_of(handler.shard_map, k) for k in self.KEYS})
        assert len(owners) > 1
        result = session.execute("SELECT k, v FROM t WHERE k IN (%s)"
                                 % ", ".join(map(str, self.KEYS)))
        assert result.plan == "lookup"
        assert sorted(result.rows) == [(k, k % 7) for k in self.KEYS]
        assert result.detail["shard"] is None
        metrics = session.cluster.metrics
        assert [metrics.counter("shard.lookups.t.%d" % shard)
                for shard in range(4)] \
            == [int(shard in owners) for shard in range(4)]

    def test_keyed_dml_heats_the_shards_it_wrote(self):
        session = make_session(4)
        handler = handler_of(session)
        result = session.execute("UPDATE t SET v = -1 WHERE k IN (%s)"
                                 % ", ".join(map(str, self.KEYS)))
        assert (result.affected, result.jobs) == (len(self.KEYS), [])
        written = [0] * 4
        for key in self.KEYS:
            written[owner_of(handler.shard_map, key)] += 1
        assert handler.shard_heats() == written


class TestShardedOverwrite:
    @pytest.mark.parametrize("shards", [1, 4, 8])
    def test_overwrite_leaves_no_empty_file_behind(self, shards):
        """Regression: every child was first emptied, which writes a
        zero-row ``part-*.orc``; the bucket appends then landed beside
        it and every later job paid a task to read it."""
        session = make_session(shards)
        handler = handler_of(session)
        files = len(master_files(handler))
        session.execute("INSERT OVERWRITE TABLE t SELECT k, grp, v + 1 "
                        "FROM t")
        after = master_files(handler)
        assert len(after) == files
        assert all(num_rows > 0 for _, (_, num_rows) in after)
        result = session.execute("SELECT count(*), sum(v) FROM t")
        assert result.rows == [(90, sum(i % 7 + 1 for i in range(90)))]
        assert result.jobs[0].num_map_tasks == files

    def test_file_set_after_overwrite_is_shard_count_invariant(self):
        def file_set(shards):
            session = make_session(shards)
            session.execute("UPDATE t SET v = 0 WHERE k = 3")
            session.execute("INSERT OVERWRITE TABLE t SELECT * FROM t "
                            "WHERE k < 60")
            handler = handler_of(session)
            assert all(shard.attached.is_empty() for shard in handler.shards)
            return sorted((path.rsplit("/", 1)[-1],) + meta
                          for path, meta in master_files(handler) if meta[1])
        base = file_set(1)
        assert file_set(4) == base
        assert file_set(8) == base

    def test_overwrite_with_no_rows_empties_every_shard(self):
        session = make_session(4)
        session.execute("INSERT OVERWRITE TABLE t SELECT * FROM t "
                        "WHERE k < 0")
        assert session.execute("SELECT count(*) FROM t").rows == [(0,)]
        assert handler_of(session).row_count() == 0


# ---------------------------------------------------------------------------
# Whole-table planning reads ``shards``; COMPACT over shards.
# ---------------------------------------------------------------------------
class TestPlanningOverShards:
    def test_storage_lives_on_the_shards_only(self):
        """The logical handler owns no master, attached table or COMPACT
        protocol, so a planner path that reached for one raises instead
        of reading an empty, never-created directory.  ``master`` and
        ``attached`` carry only the two sizes perfbench reads."""
        session = make_session(4)
        session.execute("UPDATE t SET v = -1 WHERE k IN (3, 17, 40, 66)")
        handler = handler_of(session)
        assert not hasattr(handler, "compaction")
        for name in ("location", "file_paths", "readers", "meta",
                     "is_empty", "backend", "rates", "ensure_available",
                     "put_update", "file_delta_stats"):
            assert not hasattr(handler.master, name), name
            assert not hasattr(handler.attached, name), name
        assert handler.master.data_bytes() == sum(
            shard.master.data_bytes() for shard in handler.shards)
        assert handler.attached.size_bytes == sum(
            shard.attached.size_bytes for shard in handler.shards) > 0
        assert [shard.name for shard in handler.shards] \
            == ["t__s%d" % index for index in range(4)]
        session = HiveSession(profile=ClusterProfile.laptop())
        session.execute("CREATE TABLE p (k int, v int) STORED AS dualtable")
        plain = handler_of(session, "p")
        assert [shard.name for shard in plain.shards] == ["p"]
        assert (plain.master, plain.attached) \
            == (plain.shards[0].master, plain.shards[0].attached)

    @pytest.mark.parametrize("shards", [1, 4, 8])
    def test_planner_figures_are_pinned(self, shards):
        """``data_bytes``, ``row_count`` and EXPLAIN's cost block: the
        figures the master/attached facades gave, at every INTO n."""
        session = make_session(shards)
        session.execute("UPDATE t SET v = -1 WHERE k IN (3, 17, 40, 66)")
        handler = handler_of(session)
        assert (handler.data_bytes(), handler.row_count()) == (40491, 90)
        lines = [line for (line,) in session.execute(
            "EXPLAIN UPDATE t SET v = 1 WHERE k < 30").rows]
        assert lines == [
            "UPDATE t (storage=dualtable-sharded)",
            "  SET 1 column(s): v",
            "  cost evaluation (DualTable, attached backend=hbase):",
            "    estimated ratio:      0.2572 (23 of ~90 rows)",
            "    EDIT cost:            0.00s",
            "    OVERWRITE cost:       0.00s",
            "    successive reads (k): 1",
            "    plan: edit"]


class TestShardedCompact:
    @staticmethod
    def dirty_session(shards):
        session = make_session(shards)
        session.execute("UPDATE t SET v = -1 WHERE k IN (3, 17, 40, 66)")
        session.execute("UPDATE t SET grp = 'x', v = 0 WHERE k IN (40, 5)")
        return session

    def test_partial_k_folds_the_k_densest_files_table_wide(self):
        """Regression: every shard folded up to ``k`` files of its own,
        so PARTIAL 2 at INTO 4 folded 5 files."""
        def fold(shards):
            session = self.dirty_session(shards)
            rows = session.execute("SELECT k, grp, v FROM t ORDER BY k").rows
            result = session.execute("COMPACT TABLE t PARTIAL 2")
            assert session.execute(
                "SELECT k, grp, v FROM t ORDER BY k").rows == rows
            assert not all(shard.attached.is_empty()
                           for shard in handler_of(session).shards)
            return result.detail["files"], result.detail["file_ids"]
        base = fold(1)
        assert base[0] == 2 and len(base[1]) == 2
        assert fold(4) == base
        assert fold(8) == base

    @staticmethod
    def folded_state(session, before):
        """Master file names and bytes, rows, and the fold's ledger
        bytes and ops since the snapshot ``before``."""
        handler = handler_of(session)
        fs = handler.env.fs
        files = sorted((path.rsplit("/", 1)[-1], fs.read_file(path))
                       for path, _ in master_files(handler))
        delta = session.cluster.ledger.diff(before)
        return (files, delta["bytes"], delta["ops"],
                session.execute("SELECT k, grp, v FROM t ORDER BY k").rows)

    @pytest.mark.parametrize("shards", [4, 8])
    @pytest.mark.parametrize("sql", ["COMPACT TABLE t",
                                     "COMPACT TABLE t PARTIAL 3"])
    def test_one_job_writes_what_per_store_folds_write(self, sql, shards):
        """The one job hands each store's manifest 2PC the rows its own
        ``execute_compact(store=i)`` fold would: same master file names
        and bytes, same rows, same ledger bytes and ops."""
        session = self.dirty_session(shards)
        before = session.cluster.ledger.snapshot()
        result = session.execute(sql)
        assert len(result.jobs) == 1
        assert result.jobs[0].num_map_tasks == result.detail["files"]
        one_job = self.folded_state(session, before)

        twin = self.dirty_session(shards)
        handler = handler_of(twin)
        before = twin.cluster.ledger.snapshot()
        owner = {int(shard.master.meta(path).metadata[FILE_ID_KEY]):
                 (index, path)
                 for index, shard in enumerate(handler.shards)
                 for path in shard.master.file_paths()}
        folds = 0
        for index in range(shards):
            if "PARTIAL" not in sql:
                folds += len(handler.execute_compact(twin, store=index).jobs)
                continue
            paths = [owner[file_id][1] for file_id in result.detail[
                "file_ids"] if owner[file_id][0] == index]
            if paths:
                folds += len(handler.execute_compact(
                    twin, partial=True, victim_paths=paths,
                    store=index).jobs)
        assert folds > 1
        assert self.folded_state(twin, before) == one_job

    def test_nothing_to_fold_is_a_noop(self):
        """Regression: a sharded COMPACT with nothing to fold reported a
        manual "sharded" compaction in SHOW COMPACTIONS."""
        session = make_session(4)
        for sql in ("COMPACT TABLE t", "COMPACT TABLE t PARTIAL",
                    "COMPACT TABLE t PARTIAL 2"):
            result = session.execute(sql)
            assert (result.plan, result.jobs, result.affected) \
                == ("compact-noop", [], 0), sql
        actions = [row[3] for row in session.execute(
            "SHOW COMPACTIONS").rows]
        assert actions == ["noop"] * 3
