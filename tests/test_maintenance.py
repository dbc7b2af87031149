"""Autonomous maintenance: stats, policy, daemon, and SQL surface."""

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import AnalysisError
from repro.hive import HiveSession
from repro.hive.parser import parse
from repro.hive import ast_nodes as ast
from repro.maintenance import policy as policy_module
from repro.maintenance.policy import CompactionPolicy
from repro.maintenance.stats import TableStats
from repro.mapreduce import InputSplit, Job
from repro.mapreduce.runner import _makespan
from repro.shard import ShardMap


def make_dualtable(session, n=60, rows_per_file=15, extra_props=""):
    session.execute(
        "CREATE TABLE dt (id int, day string, amount double, tag string) "
        "STORED AS DUALTABLE TBLPROPERTIES ('dualtable.mode' = 'edit', "
        "'orc.rows_per_file' = '%d', 'orc.stripe_rows' = '5'%s)"
        % (rows_per_file, extra_props))
    rows = [(i, "2013-07-%02d" % (1 + i % 20), float(i), "t%d" % (i % 3))
            for i in range(n)]
    session.load_rows("dt", rows)
    return session.table("dt").handler


# ----------------------------------------------------------------------
# SQL surface.
# ----------------------------------------------------------------------
class TestParsing:
    def test_alter_autocompact_on_with_options(self):
        stmt = parse("ALTER TABLE dt SET AUTOCOMPACT "
                     "(ON, horizon = 12.5, max_files = 2, mode = partial)")
        assert isinstance(stmt, ast.AlterAutoCompactStmt)
        assert stmt.table == "dt" and stmt.enabled
        assert stmt.options == {"horizon": 12.5, "max_files": 2,
                                "mode": "partial"}

    def test_alter_autocompact_off(self):
        stmt = parse("ALTER TABLE dt SET AUTOCOMPACT (OFF)")
        assert isinstance(stmt, ast.AlterAutoCompactStmt)
        assert not stmt.enabled and stmt.options == {}

    def test_compact_partial_with_limit(self):
        stmt = parse("COMPACT TABLE dt PARTIAL 3")
        assert isinstance(stmt, ast.CompactStmt)
        assert stmt.partial and stmt.max_files == 3

    def test_compact_partial_unbounded(self):
        stmt = parse("COMPACT TABLE dt PARTIAL")
        assert stmt.partial and stmt.max_files is None

    def test_plain_compact_unchanged(self):
        stmt = parse("COMPACT TABLE dt MINOR")
        assert not stmt.partial and not stmt.major

    def test_show_compactions(self):
        assert isinstance(parse("SHOW COMPACTIONS"),
                          ast.ShowCompactionsStmt)

    def test_explain_compact_partial(self, session):
        make_dualtable(session)
        rows = session.execute("EXPLAIN COMPACT TABLE dt PARTIAL 2").rows
        assert any("partial 2" in line for (line,) in rows)


class TestSqlSurface:
    def test_autocompact_requires_dualtable(self, session):
        session.execute("CREATE TABLE plain (id int) STORED AS orc")
        with pytest.raises(AnalysisError):
            session.execute("ALTER TABLE plain SET AUTOCOMPACT (ON)")

    def test_partial_compact_requires_dualtable(self, session):
        session.execute("CREATE TABLE av (id int, v int) STORED AS acid")
        session.execute("INSERT INTO av VALUES (1, 1)")
        with pytest.raises(AnalysisError):
            session.execute("COMPACT TABLE av PARTIAL")

    def test_show_compactions_lists_manual_runs(self, session):
        make_dualtable(session)
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 20")
        session.execute("COMPACT TABLE dt PARTIAL")
        rows = session.execute("SHOW COMPACTIONS").rows
        assert any(r[2] == "manual" and r[3] == "partial" for r in rows)

    def test_noop_compact_result_shape_matches_real(self, session):
        """compact-noop must carry the same detail fields as a real
        compaction so downstream consumers never special-case it."""
        make_dualtable(session)
        noop = session.execute("COMPACT TABLE dt")
        assert noop.plan == "compact-noop"
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 20")
        real = session.execute("COMPACT TABLE dt")
        assert set(noop.detail) >= {"attached_bytes", "folded_bytes",
                                    "mode", "files", "rows_written"}
        assert set(noop.detail) == set(real.detail) - {"file_ids"} \
            or set(noop.detail) == set(real.detail)
        assert noop.sim_seconds == 0.0 and noop.jobs == [] \
            and noop.affected == 0


class TestAttachedBytesGauge:
    def test_gauge_tracks_dml_and_compact(self, session):
        handler = make_dualtable(session)
        gauges = session.cluster.metrics.snapshot()["gauges"]
        name = "dualtable.attached_bytes.dt"
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 20")
        gauges = session.cluster.metrics.snapshot()["gauges"]
        assert gauges[name] == handler.attached.size_bytes > 0
        session.execute("DELETE FROM dt WHERE id >= 50")
        gauges = session.cluster.metrics.snapshot()["gauges"]
        assert gauges[name] == handler.attached.size_bytes
        session.execute("COMPACT TABLE dt")
        gauges = session.cluster.metrics.snapshot()["gauges"]
        assert gauges[name] == 0


# ----------------------------------------------------------------------
# Stats.
# ----------------------------------------------------------------------
class TestTableStats:
    def test_seeded_from_read_factor(self):
        assert TableStats(read_factor=7).horizon == 7.0

    def test_ewma_tracks_observed_mix(self):
        stats = TableStats(read_factor=1)
        scans = dmls = 0
        for _ in range(20):
            dmls += 1
            scans += 1 + 5      # the DML's own scan plus five reads
            stats.advance(scans, dmls)
        assert stats.horizon == pytest.approx(5.0, rel=0.05)

    def test_reads_between_dmls_accumulate(self):
        stats = TableStats(read_factor=1)
        stats.advance(3, 0)       # three pure reads, no mutation yet
        stats.advance(3, 0)
        stats.advance(4, 1)       # the mutation closes the window
        # 3 accumulated reads + (1 new scan - 1 dml) = 3 reads / 1 dml.
        assert stats.reads_per_dml == pytest.approx(1 + 0.4 * (3 - 1))

    def test_horizon_floor(self):
        stats = TableStats(read_factor=1)
        for i in range(1, 11):
            stats.advance(i, i)   # only DML scans, zero pure reads
        assert stats.horizon == 1.0


# ----------------------------------------------------------------------
# Policy.
# ----------------------------------------------------------------------
class TestPolicy:
    def test_declines_without_deltas(self, session):
        handler = make_dualtable(session)
        decision = CompactionPolicy(handler).decide(horizon=100.0)
        assert decision.action == "decline"
        assert decision.note == "no deltas above threshold"

    def test_declines_at_short_horizon(self, session):
        handler = make_dualtable(session)
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 5")
        decision = CompactionPolicy(handler).decide(horizon=1.0)
        assert decision.action == "decline"
        assert decision.predicted_seconds > decision.benefit_seconds
        assert decision.breakdown["dirty_files"] == 1

    def test_accepts_at_long_horizon(self, session):
        handler = make_dualtable(session)
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 5")
        decision = CompactionPolicy(handler).decide(horizon=1e9)
        assert decision.action in ("partial", "full")
        assert decision.benefit_seconds > decision.predicted_seconds

    def test_partial_picks_densest_files_first(self, session):
        handler = make_dualtable(session)
        # File 0 (ids 0-14) gets 10 deltas, file 2 (ids 30-44) gets 2.
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 10")
        session.execute("UPDATE dt SET tag = 'x' WHERE id IN (30, 31)")
        policy = CompactionPolicy(handler, {"mode": "partial",
                                            "max_files": 1})
        decision = policy.decide(horizon=1e9)
        assert decision.action == "partial"
        assert [f.file_id for f in decision.files] == [0]

    def test_full_mode_skips_partial_plans(self, session):
        handler = make_dualtable(session)
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 5")
        decision = CompactionPolicy(handler, {"mode": "full"}) \
            .decide(horizon=1e9)
        assert decision.action == "full"

    def test_predictions_match_observed_costs(self, session):
        """The per-decision audit: predicted within 25% of charged."""
        handler = make_dualtable(session)
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 20")
        session.execute("DELETE FROM dt WHERE id >= 50")
        policy = CompactionPolicy(handler, {"mode": "partial"})
        decision = policy.decide(horizon=1e9)
        assert decision.action == "partial"
        result = session.execute("COMPACT TABLE dt PARTIAL")
        observed = result.sim_seconds
        assert observed > 0
        rel_error = abs(decision.predicted_seconds - observed) / observed
        assert rel_error <= 0.25, (decision.predicted_seconds, observed)

    def test_decide_charges_nothing(self, session):
        """A decision reads metadata only (cold caches too), so the
        daemon charges it nothing and advances no clock for it."""
        handler = make_dualtable(session)
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 20")
        cluster = session.cluster
        cluster.orc_cache.clear()
        cluster.delta_cache.clear()
        before, clock = cluster.ledger.snapshot(), cluster.clock.now
        for mode in ("partial", "full"):
            for horizon in (1.0, 1e9):
                CompactionPolicy(handler.shards[0], {"mode": mode}) \
                    .decide(horizon=horizon)
        diff = cluster.ledger.diff(before)
        assert diff["bytes"] == {} and diff["seconds"] == {}
        assert diff["total_seconds"] == 0 and cluster.clock.now == clock

    def test_estimate_schedules_tasks_as_the_runner_does(self, session,
                                                          monkeypatch):
        """More victims than map slots: slots reuse their JVM in the
        estimate as in the run, so the estimate's makespan term is the
        runner's ``map_seconds`` over the same task durations."""
        handler = make_dualtable(session, rows_per_file=6)
        session.execute("UPDATE dt SET tag = 'x' WHERE id % 6 = 0")
        calls = []

        def spy(durations, slots, reused=0.0):
            seconds = _makespan(durations, slots, reused)
            calls.append((list(durations), seconds))
            return seconds

        monkeypatch.setattr(policy_module, "_makespan", spy)
        files = handler.plan_files()
        CompactionPolicy(handler).rewrite_job_seconds(files)
        [(tasks, estimate)] = calls
        profile = session.cluster.profile
        assert len(tasks) == len(files) == 10 > profile.total_map_slots
        overhead = profile.task_overhead_s

        def map_fn(split, ctx):
            ctx.cluster.charge_fixed("mapreduce", "work",
                                     split.payload - overhead)
            return iter(())

        result = session.runner.run(Job(
            "estimate", [InputSplit(payload=t, size_bytes=0) for t in tasks],
            map_fn, None))
        assert result.map_seconds == pytest.approx(estimate, rel=1e-12)
        assert estimate < _makespan(tasks, profile.total_map_slots)

    def test_full_prediction_matches_observed(self, session):
        handler = make_dualtable(session)
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 20")
        policy = CompactionPolicy(handler, {"mode": "full"})
        decision = policy.decide(horizon=1e9)
        result = session.execute("COMPACT TABLE dt")
        observed = result.sim_seconds
        rel_error = abs(decision.predicted_seconds - observed) / observed
        assert rel_error <= 0.25, (decision.predicted_seconds, observed)


# ----------------------------------------------------------------------
# Daemon.
# ----------------------------------------------------------------------
class TestDaemon:
    def test_auto_compaction_triggers_and_audits(self, session):
        handler = make_dualtable(session)
        session.execute(
            "ALTER TABLE dt SET AUTOCOMPACT (ON, horizon = 1000000)")
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 20")
        rows = session.execute("SHOW COMPACTIONS").rows
        auto = [r for r in rows if r[2] == "auto" and r[3] != "declined"]
        assert auto, rows
        assert handler.attached.is_empty()
        # Every executed auto compaction is audited within 25%.
        for r in auto:
            assert r[8] is not None and r[8] <= 0.25, r
        # Data intact after background folding.
        assert session.execute(
            "SELECT count(*) FROM dt WHERE tag = 'x'").scalar() == 20

    def test_declines_are_logged_with_breakdown(self, session):
        make_dualtable(session)
        session.execute("ALTER TABLE dt SET AUTOCOMPACT (ON, horizon = 1)")
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 5")
        rows = session.execute("SHOW COMPACTIONS").rows
        declined = [r for r in rows if r[3] == "declined"]
        assert declined
        assert "not amortized" in declined[-1][9]
        assert all(r[7] == 0.0 for r in declined)
        counters = session.cluster.metrics.counters
        assert counters["dualtable.autocompact.declined"] >= 1

    def test_off_disables(self, session):
        make_dualtable(session)
        session.execute(
            "ALTER TABLE dt SET AUTOCOMPACT (ON, horizon = 1000000)")
        session.execute("ALTER TABLE dt SET AUTOCOMPACT (OFF)")
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 20")
        rows = session.execute("SHOW COMPACTIONS").rows
        assert all(r[2] != "auto" for r in rows)

    def test_daemon_never_runs_mid_statement(self, session):
        """Compactions advance the clock between statements: the
        triggering DML's own sim_seconds must not include them."""
        make_dualtable(session)
        before = session.execute(
            "UPDATE dt SET tag = 'a' WHERE id < 20").sim_seconds
        session.execute("COMPACT TABLE dt")
        session.execute(
            "ALTER TABLE dt SET AUTOCOMPACT (ON, horizon = 1000000)")
        after = session.execute(
            "UPDATE dt SET tag = 'b' WHERE id < 20").sim_seconds
        assert after == pytest.approx(before, rel=0.2)

    def test_tick_crash_window_is_safe(self, session):
        """A kill inside the daemon tick surfaces to the caller, but the
        triggering statement had already committed; the table converges
        on the next access."""
        from repro.common.errors import ReproError
        from repro.faults import Fault, FaultPlan

        handler = make_dualtable(session)
        session.execute(
            "ALTER TABLE dt SET AUTOCOMPACT (ON, horizon = 1000000)")
        session.cluster.faults.install(FaultPlan([
            Fault("dualtable.autocompact.tick", nth_hit=1, kind="kill")]))
        with pytest.raises(ReproError):
            session.execute("UPDATE dt SET tag = 'x' WHERE id < 20")
        session.cluster.faults.uninstall()
        handler.recover()
        # The DML itself committed before the daemon died.
        assert session.execute(
            "SELECT count(*) FROM dt WHERE tag = 'x'").scalar() == 20
        # The daemon stays usable: the next statement triggers the fold.
        session.execute("SELECT count(*) FROM dt")
        assert handler.attached.is_empty()

    def test_interval_rate_limits_decisions(self, session):
        make_dualtable(session)
        session.execute("ALTER TABLE dt SET AUTOCOMPACT "
                        "(ON, horizon = 1, interval = 1000000)")
        session.execute("UPDATE dt SET tag = 'x' WHERE id < 5")
        session.execute("UPDATE dt SET tag = 'y' WHERE id < 5")
        session.execute("UPDATE dt SET tag = 'z' WHERE id < 5")
        counters = session.cluster.metrics.counters
        assert counters["dualtable.autocompact.decisions"] == 1


class TestShardedDaemon:
    def test_folds_only_the_dirty_shard(self, session):
        """The daemon decides per shard: deltas on one shard of an INTO
        4 table fold that shard and leave the others' files alone."""
        session.execute(
            "CREATE TABLE t (k int, v int) PRIMARY KEY (k) STORED AS "
            "dualtable SHARDED BY (k) INTO 4 TBLPROPERTIES "
            "('orc.rows_per_file' = '10', 'dualtable.mode' = 'edit')")
        session.load_rows("t", [(i, i) for i in range(90)])
        handler = session.table("t").handler
        assignment = handler.shard_map.assignment
        hot = assignment[ShardMap.bucket_of(0)]
        keys = [k for k in range(90)
                if assignment[ShardMap.bucket_of(k)] == hot][:6]
        files = [shard.master.file_paths() for shard in handler.shards]
        session.execute(
            "ALTER TABLE t SET AUTOCOMPACT (ON, horizon = 1000000)")
        session.execute("UPDATE t SET v = -1 WHERE k IN (%s)"
                        % ", ".join(map(str, keys)))
        auto = [row for row in session.execute("SHOW COMPACTIONS").rows
                if row[2] == "auto" and row[3] != "declined"]
        assert [row[1] for row in auto] == ["t__s%d" % hot]
        assert all(shard.attached.is_empty() for shard in handler.shards)
        for index, shard in enumerate(handler.shards):
            moved = shard.master.file_paths() != files[index]
            assert moved == (index == hot), index
        assert session.execute(
            "SELECT count(*) FROM t WHERE v = -1").scalar() == len(keys)


# ----------------------------------------------------------------------
# Determinism: same workload, same compaction schedule, any workers.
# ----------------------------------------------------------------------
MAINT_WORKLOAD = [
    "UPDATE t SET v = 111 WHERE k < 20",
    "SELECT count(*), sum(v) FROM t",
    "SELECT count(*) FROM t WHERE v = 111",
    "DELETE FROM t WHERE k >= 70",
    "SELECT count(*), sum(v) FROM t",
    "UPDATE t SET grp = 'q' WHERE v = 111",
    "SELECT k, grp, v FROM t WHERE grp = 'q' ORDER BY k",
    "SELECT count(*), sum(v) FROM t",
    "SHOW COMPACTIONS",
]


def run_maintenance_workload(workers):
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers))
    session.execute(
        "CREATE TABLE t (k int, grp string, v int) STORED AS dualtable "
        "TBLPROPERTIES ('orc.rows_per_file' = '10', "
        "'dualtable.mode' = 'edit')")
    session.load_rows("t", [(i, "g%d" % (i % 3), i % 7)
                            for i in range(90)])
    session.execute(
        "ALTER TABLE t SET AUTOCOMPACT (ON, horizon = 1000000)")
    transcript = []
    for sql in MAINT_WORKLOAD:
        result = session.execute(sql)
        transcript.append((sql, result.rows, result.sim_seconds))
    cluster = session.cluster
    counters = {name: value
                for name, value in cluster.metrics.counters.items()
                if not name.startswith("cache.")}
    return (transcript, cluster.ledger.snapshot(), counters,
            cluster.clock.now)


@pytest.fixture(scope="module")
def serial_maintenance_run():
    return run_maintenance_workload(workers=1)


def test_daemon_schedule_is_deterministic(serial_maintenance_run):
    parallel = run_maintenance_workload(workers=4)
    serial_transcript = serial_maintenance_run[0]
    for (sql, rows, seconds), (_, expect_rows, expect_seconds) \
            in zip(parallel[0], serial_transcript):
        assert rows == expect_rows, sql
        assert seconds == expect_seconds, sql
    assert parallel[1] == serial_maintenance_run[1]
    assert parallel[2] == serial_maintenance_run[2]
    assert parallel[3] == serial_maintenance_run[3]


def test_daemon_workload_actually_compacts(serial_maintenance_run):
    transcript, _, counters, _ = serial_maintenance_run
    assert counters.get("dualtable.autocompact.compactions", 0) >= 1
    show = [rows for sql, rows, _ in transcript
            if sql == "SHOW COMPACTIONS"][0]
    assert any(r[2] == "auto" and r[3] in ("partial", "full")
               for r in show)
