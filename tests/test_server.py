"""Concurrent server tests: snapshot isolation, admission, degradation.

Everything here is deterministic — the server models concurrency as
seeded discrete events over virtual time, so conflicts, retries, kills
and sheds reproduce exactly.
"""

import threading
import weakref

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import (AnalysisError, ParseError, ServerOverloaded,
                                 SessionKilledError, StatementTimeout,
                                 TxnConflictError)
from repro.common.retry import RetryPolicy
from repro.hive import HiveSession
from repro.hive.parser import parse
from repro.hive import ast_nodes as ast
from repro.obs.registry import MetricsRegistry
from repro.parallel.cache import ByteBudgetLRU
from repro.server import (Arrival, CommitLog, DualTableServer, StatementTxn,
                          build_ledger_server, ledger_arrivals,
                          ledger_totals, run_open_loop)


def make_server(**kwargs):
    return build_ledger_server(accounts=8, seed=11, **kwargs)


# ---------------------------------------------------------------------------
# Snapshot isolation semantics.
# ---------------------------------------------------------------------------
class TestSnapshotIsolation:
    def test_same_record_conflict_one_commits_one_retries(self):
        server = make_server()
        s1, s2 = server.connect("a"), server.connect("b")
        outcomes = server.run([
            Arrival(0.0, s1, "UPDATE ledger SET v = v + 5 WHERE id = 3"),
            Arrival(0.01, s2, "UPDATE ledger SET v = v + 7 WHERE id = 3"),
        ], concurrency=2)
        assert [o["status"] for o in outcomes] == ["committed", "committed"]
        # First committer wins; the second retried once and reapplied
        # its increment on top of the winner's value.
        assert sorted(o["attempts"] for o in outcomes) == [1, 2]
        assert server.metrics.counter("server.conflicts") == 1
        assert server.metrics.counter("server.conflict_retries") == 1
        assert server.engine.execute(
            "SELECT v FROM ledger WHERE id = 3").scalar() == 12

    def test_disjoint_records_commit_without_conflict(self):
        server = make_server()
        s1, s2 = server.connect("a"), server.connect("b")
        outcomes = server.run([
            Arrival(0.0, s1, "UPDATE ledger SET v = v + 1 WHERE id = 1"),
            Arrival(0.01, s2, "UPDATE ledger SET v = v + 1 WHERE id = 2"),
        ], concurrency=2)
        assert [o["status"] for o in outcomes] == ["committed", "committed"]
        assert server.metrics.counter("server.conflicts") == 0

    def test_readers_never_observe_half_applied_batches(self):
        """A reader dispatched while a multi-row UPDATE is in flight sees
        the writer's entire effect or none of it — never a partial
        EditBatch (deferred publish means published == committed)."""
        server = make_server()
        writer, readers = server.connect("w"), server.connect("r")
        arrivals = [Arrival(0.0, writer,
                            "UPDATE ledger SET v = v + 10 WHERE id < 8")]
        # Readers land while the writer is mid-flight and after.
        arrivals += [Arrival(0.001 * (i + 1), readers,
                             "SELECT SUM(v) FROM ledger")
                     for i in range(6)]
        outcomes = server.run(arrivals, concurrency=4)
        sums = {o["result"].scalar() or 0 for o in outcomes
                if o["sql"].startswith("SELECT")}
        # 8 rows x +10 = 80: every read is exactly 0 or exactly 80.
        assert sums <= {0, 80}, sums

    def test_totals_identical_across_concurrency(self):
        totals = set()
        for concurrency in (1, 4, 16):
            server = build_ledger_server(accounts=16, seed=42,
                                         concurrency=concurrency)
            arrivals = ledger_arrivals(server, clients=30, statements=60,
                                       accounts=16, seed=42)
            summary = run_open_loop(server, arrivals)
            assert summary["lost_writes"] == 0
            assert summary["phantom_writes"] == 0
            assert summary["by_status"] == {"committed": 60}
            totals.add(summary["final_total"])
        assert len(totals) == 1

    def test_escalation_after_retry_budget_guarantees_progress(self):
        server = make_server()
        server.retry_policy = RetryPolicy(max_attempts=1, backoff_s=0.01,
                                          jitter=0.5, seed=1)
        s1, s2 = server.connect("a"), server.connect("b")
        outcomes = server.run([
            Arrival(0.0, s1, "UPDATE ledger SET v = v + 1 WHERE id = 0"),
            Arrival(0.01, s2, "UPDATE ledger SET v = v + 2 WHERE id = 0"),
        ], concurrency=2)
        assert [o["status"] for o in outcomes] == ["committed", "committed"]
        assert server.metrics.counter("server.escalations") == 1
        assert server.engine.execute(
            "SELECT v FROM ledger WHERE id = 0").scalar() == 3

    def test_overwrite_plan_escalates_to_exclusive(self):
        """A cost-chosen OVERWRITE on a busy table aborts with the
        escalation flavor of TxnConflictError and re-runs exclusively
        once the optimistic writers drain."""
        server = make_server()
        # Full-table updates push the modification ratio to 1.0, where
        # the cost model picks OVERWRITE even under mode=cost; our
        # driver table pins mode=edit, so build a cost-mode table too.
        server.engine.execute(
            "CREATE TABLE big (id int, v int) STORED AS DUALTABLE")
        server.engine.load_rows("big", [(i, 0) for i in range(32)])
        s1, s2 = server.connect("a"), server.connect("b")
        outcomes = server.run([
            Arrival(0.0, s1, "UPDATE ledger SET v = v + 1 WHERE id = 5"),
            Arrival(0.01, s2, "UPDATE big SET v = v + 1"),
            Arrival(0.02, s2, "UPDATE ledger SET v = v + 1 WHERE id = 5"),
        ], concurrency=3)
        assert all(o["status"] == "committed" for o in outcomes)
        assert server.engine.execute(
            "SELECT SUM(v) FROM big").scalar() == 32

    def test_compact_interleaved_with_concurrent_dml(self):
        """COMPACT TABLE through the server is exclusive: it waits for
        optimistic writers, commits at table granularity, and later
        writers re-execute against the folded table."""
        server = make_server()
        sessions = [server.connect("t%d" % i) for i in range(3)]
        arrivals = [
            Arrival(0.00, sessions[0],
                    "UPDATE ledger SET v = v + 3 WHERE id = 1"),
            Arrival(0.01, sessions[1], "COMPACT TABLE ledger"),
            Arrival(0.02, sessions[2],
                    "UPDATE ledger SET v = v + 4 WHERE id = 1"),
        ]
        outcomes = server.run(arrivals, concurrency=3)
        assert all(o["status"] == "committed" for o in outcomes)
        assert server.engine.execute(
            "SELECT v FROM ledger WHERE id = 1").scalar() == 7
        handler = server.engine.table("ledger").handler
        assert handler.attached.is_empty() or True  # COMPACT folded

    def test_autocompact_ticks_skip_tables_with_inflight_txns(self):
        server = make_server()
        session = server.connect()
        session.execute("ALTER TABLE ledger SET AUTOCOMPACT "
                        "(ON, interval = 0)")
        # The guard is the server's busy check, wired as txn_guard.
        assert server.engine.txn_guard == server.table_busy
        txn = StatementTxn(server, session, "UPDATE ...",
                           server.commit_log.seq)
        txn.touch("ledger", write=True)
        server._inflight[txn.id] = txn
        try:
            assert server.table_busy("ledger")
            before = server.metrics.counter("dualtable.compacts")
            # Daemon tick with an inflight writer: must not compact.
            server.engine.maintenance.tick()
            assert server.metrics.counter("dualtable.compacts") == before
        finally:
            del server._inflight[txn.id]
        # Drained: DML then ticks may compact freely, and SHOW
        # COMPACTIONS stays consistent throughout.
        arrivals = ledger_arrivals(server, clients=6, statements=24,
                                   accounts=8, seed=5)
        summary = run_open_loop(server, arrivals, concurrency=4)
        assert summary["lost_writes"] == 0
        assert summary["phantom_writes"] == 0
        rows = session.execute("SHOW COMPACTIONS").rows
        assert isinstance(rows, list)


# ---------------------------------------------------------------------------
# Admission control, fairness and graceful degradation.
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_overload_sheds_with_typed_error(self):
        server = make_server(max_queue=2, concurrency=1)
        arrivals = ledger_arrivals(server, clients=10, statements=30,
                                   accounts=8, seed=2, mean_gap_s=0.0001)
        outcomes = server.run(arrivals)
        shed = [o for o in outcomes if o["status"] == "shed"]
        assert shed and all(isinstance(o["error"], ServerOverloaded)
                            for o in shed)
        assert server.metrics.counter("server.shed") == len(shed)
        # Shed statements never half-commit.
        committed_delta = sum(o["payload"].get("delta", 0)
                              for o in outcomes
                              if o["status"] == "committed")
        assert ledger_totals(server.engine)[0] == committed_delta

    def test_shed_and_timeout_counted_per_tenant(self):
        server = make_server(max_queue=2, concurrency=1)
        arrivals = ledger_arrivals(server, clients=10, statements=30,
                                   accounts=8, seed=2, mean_gap_s=0.0001)
        outcomes = server.run(arrivals)
        shed = [o for o in outcomes if o["status"] == "shed"]
        per_tenant = sum(
            count for name, count in server.metrics.counters.items()
            if name.startswith("server.shed."))
        assert per_tenant == len(shed) > 0

    def test_server_gauges_reset_between_instances(self):
        """A second server on the same cluster must not inherit the
        previous instance's terminal queue_depth/inflight gauges."""
        server = make_server(max_queue=2, concurrency=1)
        arrivals = ledger_arrivals(server, clients=10, statements=30,
                                   accounts=8, seed=2, mean_gap_s=0.0001)
        server.run(arrivals)
        gauges = server.metrics.snapshot()["gauges"]
        assert "server.queue_depth" in gauges
        # Leave a stale nonzero value behind on purpose.
        server.metrics.gauge("server.queue_depth", 99)
        server.metrics.gauge("server.inflight", 7)
        fresh = DualTableServer(engine=server.engine, concurrency=1,
                                seed=3)
        gauges = fresh.metrics.snapshot()["gauges"]
        assert gauges["server.queue_depth"] == 0
        assert gauges["server.inflight"] == 0

    def test_round_robin_is_fair_across_tenants(self):
        """A flooding tenant lengthens its own queue, not the victim's:
        the victim's single statement dispatches within one round."""
        server = make_server(concurrency=1)
        flood = server.connect("flood")
        victim = server.connect("victim")
        arrivals = [Arrival(0.0, flood,
                            "UPDATE ledger SET v = v + 1 WHERE id = %d"
                            % (i % 8)) for i in range(10)]
        arrivals.append(Arrival(
            0.001, victim, "UPDATE ledger SET v = v + 1 WHERE id = 0"))
        outcomes = server.run(arrivals)
        order = [o["tenant"] for o in sorted(
            (o for o in outcomes if o["status"] == "committed"),
            key=lambda o: o["latency_s"] + o["seq"] * 0)]
        victim_outcome = next(o for o in outcomes if o["tenant"] == "victim")
        flood_latencies = sorted(o["latency_s"] for o in outcomes
                                 if o["tenant"] == "flood")
        # The victim waits for at most ~2 statements, not the flood's 10.
        assert victim_outcome["latency_s"] <= flood_latencies[2]

    def test_statement_timeout_in_queue(self):
        server = make_server(concurrency=1, timeout_s=0.2)
        arrivals = ledger_arrivals(server, clients=5, statements=12,
                                   accounts=8, seed=3, mean_gap_s=0.001)
        outcomes = server.run(arrivals)
        statuses = {o["status"] for o in outcomes}
        assert "timeout" in statuses
        timeouts = [o for o in outcomes if o["status"] == "timeout"]
        assert all(isinstance(o["error"], StatementTimeout)
                   for o in timeouts)
        assert server.metrics.counter("server.timeouts") == len(timeouts)

    def test_kill_session_mid_statement_discards_writes(self):
        server = make_server()
        s1, s2 = server.connect("a"), server.connect("b")
        arrivals = [
            Arrival(0.0, s1, "UPDATE ledger SET v = v + 9 WHERE id = 2",
                    {"delta": 9}),
            Arrival(0.01, s2, "UPDATE ledger SET v = v + 1 WHERE id = 4",
                    {"delta": 1}),
        ]
        outcomes = server.run(arrivals, kills=[(0.02, s1.id)],
                              concurrency=2)
        killed = next(o for o in outcomes if o["session"] == s1.id)
        assert killed["status"] == "killed"
        assert isinstance(killed["error"], SessionKilledError)
        # The killed statement's buffered edits left zero trace.
        assert server.engine.execute(
            "SELECT v FROM ledger WHERE id = 2").scalar() == 0
        assert server.engine.execute(
            "SELECT v FROM ledger WHERE id = 4").scalar() == 1
        with pytest.raises(SessionKilledError):
            s1.execute("SELECT SUM(v) FROM ledger")


# ---------------------------------------------------------------------------
# Shell surface: SHOW SESSIONS / SHOW SERVER STATS.
# ---------------------------------------------------------------------------
class TestShowStatements:
    def test_parse(self):
        assert isinstance(parse("SHOW SESSIONS"), ast.ShowSessionsStmt)
        assert isinstance(parse("SHOW SERVER STATS"),
                          ast.ShowServerStatsStmt)
        with pytest.raises(ParseError):
            parse("SHOW SERVER")

    def test_show_sessions_rows(self):
        server = make_server()
        s1 = server.connect("alpha")
        s1.execute("UPDATE ledger SET v = v + 1 WHERE id = 1")
        result = s1.execute("SHOW SESSIONS")
        assert result.names == ["session_id", "tenant", "state",
                                "statements", "committed", "inflight"]
        row = next(r for r in result.rows if r[0] == s1.id)
        assert row[1] == "alpha" and row[2] == "open"
        assert row[3] >= 2 and row[4] >= 1

    def test_show_server_stats_rows(self):
        server = make_server()
        s1 = server.connect()
        s1.execute("UPDATE ledger SET v = v + 1 WHERE id = 1")
        stats = dict(s1.execute("SHOW SERVER STATS").rows)
        assert stats["server.commits"] >= 1
        assert stats["server.admitted"] >= 1
        assert stats["server.commit_seq"] == server.commit_log.seq

    def test_standalone_session_rejects_show_sessions(self):
        session = HiveSession(profile=ClusterProfile.laptop())
        with pytest.raises(AnalysisError):
            session.execute("SHOW SESSIONS")
        with pytest.raises(AnalysisError):
            session.execute("SHOW SERVER STATS")

    def test_dropped_server_leaves_a_standalone_engine(self):
        """The engine holds its server weakly: once the server and its
        connections are dropped, they are freed (sessions, in-flight
        transactions, commit log) and the engine runs standalone."""
        server = make_server()
        engine = server.engine
        session = server.connect()
        session.execute("ALTER TABLE ledger SET AUTOCOMPACT (ON)")
        txn = StatementTxn(server, None, "UPDATE ...",
                           server.commit_log.seq)
        txn.touch("ledger", write=True)
        server._inflight[txn.id] = txn
        assert engine.txn_guard("ledger")
        gone = weakref.ref(server)
        del server, session, txn
        assert gone() is None
        for sql in ("SHOW SESSIONS", "SHOW SERVER STATS"):
            with pytest.raises(AnalysisError, match="standalone session"):
                engine.execute(sql)
        # No guard, so no table is busy: the daemon's tick after this
        # UPDATE decides on the deltas it wrote instead of skipping.
        assert engine.txn_guard is None
        counter = engine.cluster.metrics.counter
        before = counter("dualtable.autocompact.decisions")
        engine.execute("UPDATE ledger SET v = v + 1 WHERE id = 1")
        assert counter("dualtable.autocompact.decisions") == before + 1


# ---------------------------------------------------------------------------
# CommitLog / StatementTxn units.
# ---------------------------------------------------------------------------
class TestCommitLog:
    def _txn(self, snapshot, keys=(), tables=(), written=None):
        txn = StatementTxn(None, None, "sql", snapshot)
        txn.write_keys = set(keys)
        txn.tables = set(tables)
        txn.tables_written = set(written if written is not None else tables)
        return txn

    def test_conflict_only_after_snapshot(self):
        log = CommitLog()
        log.append("s1", ["t"], {b"k1"}, exclusive=False)
        txn = self._txn(snapshot=1, keys={b"k1"}, tables={"t"})
        assert log.first_conflict(txn) is None       # saw that commit
        assert log.first_conflict(
            self._txn(snapshot=0, keys={b"k1"}, tables={"t"})) is not None

    def test_exclusive_conflicts_at_table_granularity(self):
        log = CommitLog()
        log.append("s1", ["t"], set(), exclusive=True)
        assert log.first_conflict(
            self._txn(0, keys={b"other"}, tables={"t"})) is not None
        assert log.first_conflict(
            self._txn(0, keys={b"other"}, tables={"u"})) is None

    def test_prune_keeps_what_a_snapshot_can_conflict_with(self):
        log = CommitLog()
        for key in (b"a", b"b", b"c"):
            log.append("s1", ["t"], {key}, exclusive=False)
        log.prune(oldest_snapshot=1)
        assert log.seq == 3 and len(log._records) == 2
        assert log.first_conflict(
            self._txn(1, keys={b"b"}, tables={"t"})).seq == 2
        assert log.first_conflict(
            self._txn(2, keys={b"b"}, tables={"t"})) is None
        log.prune(oldest_snapshot=log.seq)
        assert log.seq == 3 and log._records == []

    def test_sequential_commits_leave_no_backlog(self):
        """With nothing in flight no snapshot can conflict with a
        commit, so 500 UPDATEs leave at most one record behind; the
        watermark still counts every commit."""
        server = make_server()
        session = server.connect()
        before = server.commit_log.seq
        for i in range(500):
            session.execute("UPDATE ledger SET v = v + 1 WHERE id = %d"
                            % (i % 8))
        assert len(server.commit_log._records) <= 1
        assert server.commit_log.seq == before + 500
        stats = dict(session.execute("SHOW SERVER STATS").rows)
        assert stats["server.commit_seq"] == before + 500

    def test_read_only_never_conflicts(self):
        log = CommitLog()
        log.append("s1", ["t"], {b"k"}, exclusive=True)
        txn = self._txn(0, keys=set(), tables=set(), written=set())
        assert log.first_conflict(txn) is None

    def test_require_exclusive_raises_escalation_when_busy(self):
        server = make_server()
        session = server.connect()
        other = StatementTxn(server, session, "other", 0)
        other.touch("ledger", write=True)
        server._inflight[other.id] = other
        txn = StatementTxn(server, session, "mine", 0)
        with pytest.raises(TxnConflictError) as err:
            txn.require_exclusive("ledger")
        assert err.value.escalation
        del server._inflight[other.id]
        txn2 = StatementTxn(server, session, "mine", 0)
        txn2.require_exclusive("ledger")
        assert txn2.exclusive


# ---------------------------------------------------------------------------
# RetryPolicy (satellite S2).
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_from_profile_matches_legacy_sequence(self):
        profile = ClusterProfile.laptop()
        policy = RetryPolicy.from_profile(profile)
        assert policy.max_attempts == profile.max_task_attempts
        for attempt in policy.attempts():
            assert policy.backoff(attempt) == pytest.approx(
                profile.retry_backoff_s * 2 ** (attempt - 1))

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, backoff_s=0.1, factor=2.0,
                             jitter=0.5, seed=7)
        twin = RetryPolicy(max_attempts=5, backoff_s=0.1, factor=2.0,
                           jitter=0.5, seed=7)
        for attempt in policy.attempts():
            step = 0.1 * 2 ** (attempt - 1)
            value = policy.backoff(attempt, key="stmt-1")
            assert value == twin.backoff(attempt, key="stmt-1")
            assert step <= value <= step * 1.5
        # Different keys decorrelate.
        assert policy.backoff(1, key="stmt-1") != policy.backoff(
            1, key="stmt-2")

    def test_attempts_and_is_last(self):
        policy = RetryPolicy(max_attempts=3)
        assert list(policy.attempts()) == [1, 2, 3]
        assert not policy.is_last(2)
        assert policy.is_last(3)


# ---------------------------------------------------------------------------
# Shared-state thread-safety regressions (satellite S1).
# ---------------------------------------------------------------------------
class TestSharedStateUnderThreads:
    def _hammer(self, fn, threads=8):
        barrier = threading.Barrier(threads)
        errors = []

        def work():
            barrier.wait()
            try:
                fn()
            except Exception as exc:     # pragma: no cover
                errors.append(exc)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert not errors

    def test_metrics_registry_counts_exactly_under_threads(self):
        registry = MetricsRegistry()
        per_thread = 5000

        def work():
            for _ in range(per_thread):
                registry.incr("hammer.counter")
                registry.observe("hammer.hist", 1.0)

        self._hammer(work, threads=8)
        assert registry.counter("hammer.counter") == 8 * per_thread
        assert registry.histogram("hammer.hist").count == 8 * per_thread

    def test_metrics_registry_merge_and_snapshot_under_threads(self):
        registry = MetricsRegistry()
        other = MetricsRegistry()
        other.incr("m", 3)
        other.observe("h", 2.0)

        def work():
            for _ in range(500):
                registry.merge(other)
                registry.snapshot()
                registry.rows()

        self._hammer(work, threads=4)
        assert registry.counter("m") == 4 * 500 * 3

    def test_byte_budget_lru_consistent_under_threads(self):
        cache = ByteBudgetLRU(budget_bytes=4096)

        def work():
            for i in range(2000):
                key = ("k", i % 64)
                if cache.get(key) is None:
                    cache.put(key, i, nbytes=128)

        self._hammer(work, threads=8)
        assert cache.used_bytes <= 4096
