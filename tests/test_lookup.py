"""The LOOKUP plan: point reads that skip MapReduce.

Covers the full surface of the third plan type: PRIMARY KEY DDL and the
``SET dualtable.plan`` knob through the parser and session, eligibility
rules (equality / IN / closed BETWEEN only, row-count cap, forced-mode
rejections for non-PK predicates, aggregates and joins), result parity
with the MR scan plan under deltas / deletes / PK-moving updates,
EXPLAIN and EXPLAIN ANALYZE output, the metrics and cost-audit trail,
and the no-double-charge guarantee when a fault forces a mid-lookup
fallback to the scan plan.
"""

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import AnalysisError, ParseError
from repro.faults import Fault, FaultPlan
from repro.hive import HiveSession
from repro.hive import ast_nodes as ast
from repro.hive.parser import parse

ROWS = [(i, i * 10, "n%03d" % i) for i in range(100)]


def build_session(rows=ROWS, rows_per_file=25, stripe_rows=5, workers=1,
                  mode="cost", extra_props=""):
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers))
    session.execute(
        "CREATE TABLE t (k int, v int, name string, PRIMARY KEY (k)) "
        "STORED AS DUALTABLE TBLPROPERTIES "
        "('orc.rows_per_file' = '%d', 'orc.stripe_rows' = '%d', "
        "'dualtable.mode' = '%s'%s)"
        % (rows_per_file, stripe_rows, mode, extra_props))
    session.load_rows("t", rows)
    return session


def lookup_vs_scan(session, sql):
    """Run ``sql`` under both forced plans; return (lookup, scan) rows."""
    session.execute("SET dualtable.plan = lookup")
    looked = session.execute(sql)
    session.execute("SET dualtable.plan = scan")
    scanned = session.execute(sql)
    session.execute("SET dualtable.plan = cost")
    assert looked.plan == "lookup", sql
    assert scanned.plan.startswith("select("), sql
    return looked.rows, scanned.rows


# ----------------------------------------------------------------------
# Parser.
# ----------------------------------------------------------------------
class TestParser:
    def test_primary_key_clause_inside_column_list(self):
        stmt = parse("CREATE TABLE t (k int, v int, PRIMARY KEY (k)) "
                     "STORED AS DUALTABLE")
        assert isinstance(stmt, ast.CreateTableStmt)
        assert stmt.primary_key == "k"
        assert [n for n, _ in stmt.columns] == ["k", "v"]

    def test_primary_key_is_case_insensitive(self):
        stmt = parse("CREATE TABLE t (K int, primary key (K)) "
                     "STORED AS DUALTABLE")
        assert stmt.primary_key == "k"

    def test_composite_primary_key_rejected(self):
        with pytest.raises(ParseError, match="composite"):
            parse("CREATE TABLE t (a int, b int, PRIMARY KEY (a, b)) "
                  "STORED AS DUALTABLE")

    def test_duplicate_primary_key_rejected(self):
        with pytest.raises(ParseError):
            parse("CREATE TABLE t (a int, PRIMARY KEY (a), "
                  "PRIMARY KEY (a)) STORED AS DUALTABLE")

    def test_set_option_statement(self):
        stmt = parse("SET dualtable.plan = lookup")
        assert isinstance(stmt, ast.SetOptionStmt)
        assert stmt.name == "dualtable.plan"
        assert stmt.value == "lookup"

    def test_set_option_name_is_lowercased(self):
        stmt = parse("SET DualTable.Plan = SCAN")
        assert stmt.name == "dualtable.plan"


# ----------------------------------------------------------------------
# Session-level DDL / knob validation.
# ----------------------------------------------------------------------
class TestSessionValidation:
    def test_primary_key_requires_dualtable_storage(self):
        session = HiveSession(profile=ClusterProfile.laptop())
        with pytest.raises(AnalysisError, match="DUALTABLE"):
            session.execute("CREATE TABLE t (k int, PRIMARY KEY (k)) "
                            "STORED AS orc")

    def test_primary_key_column_must_exist(self):
        session = HiveSession(profile=ClusterProfile.laptop())
        with pytest.raises(AnalysisError, match="column list"):
            session.execute("CREATE TABLE t (k int, PRIMARY KEY (nope)) "
                            "STORED AS DUALTABLE")

    def test_primary_key_lands_in_properties_and_handler(self):
        session = build_session()
        info = session.table("t")
        assert info.properties["dualtable.primary_key"] == "k"
        assert info.handler.primary_key == "k"

    def test_unknown_set_option_rejected(self):
        session = build_session()
        with pytest.raises(AnalysisError, match="unknown session option"):
            session.execute("SET dualtable.bogus = 1")

    def test_bad_plan_value_rejected(self):
        session = build_session()
        with pytest.raises(AnalysisError, match="bad value"):
            session.execute("SET dualtable.plan = turbo")
        assert session.plan_mode == "cost"

    def test_set_plan_round_trip(self):
        session = build_session()
        result = session.execute("SET dualtable.plan = scan")
        assert result.plan == "set"
        assert session.plan_mode == "scan"
        session.execute("SET dualtable.plan = cost")
        assert session.plan_mode == "cost"


# ----------------------------------------------------------------------
# Eligibility and forced-mode rejections.
# ----------------------------------------------------------------------
class TestEligibility:
    def test_point_equality_routes_to_lookup(self):
        session = build_session()
        result = session.execute("SELECT v FROM t WHERE k = 42")
        assert result.plan == "lookup"
        assert result.rows == [(420,)]
        assert result.jobs == []
        assert result.detail["plan"] == "lookup"

    def test_closed_between_routes_to_lookup(self):
        session = build_session()
        result = session.execute(
            "SELECT k, v FROM t WHERE k BETWEEN 10 AND 13")
        assert result.plan == "lookup"
        assert result.rows == [(k, k * 10) for k in range(10, 14)]

    def test_in_list_routes_to_lookup(self):
        session = build_session()
        result = session.execute(
            "SELECT k, v FROM t WHERE k IN (3, 97, 55)")
        assert result.plan == "lookup"
        assert sorted(result.rows) == [(3, 30), (55, 550), (97, 970)]

    def test_open_range_is_ineligible(self):
        session = build_session()
        result = session.execute("SELECT v FROM t WHERE k > 5")
        assert result.plan.startswith("select(")
        session.execute("SET dualtable.plan = lookup")
        with pytest.raises(AnalysisError, match="does not bound"):
            session.execute("SELECT v FROM t WHERE k > 5")

    def test_non_pk_predicate_is_ineligible(self):
        session = build_session()
        session.execute("SET dualtable.plan = lookup")
        with pytest.raises(AnalysisError, match="does not bound"):
            session.execute("SELECT k FROM t WHERE v = 420")

    def test_row_limit_caps_eligibility(self):
        session = build_session(
            extra_props=", 'dualtable.lookup.max_rows' = '10'")
        assert session.table("t").handler.lookup_rows_limit == 10
        session.execute("SET dualtable.plan = lookup")
        result = session.execute("SELECT v FROM t WHERE k = 7")
        assert result.plan == "lookup"
        with pytest.raises(AnalysisError, match="max_rows"):
            session.execute("SELECT v FROM t WHERE k BETWEEN 0 AND 90")

    def test_forced_lookup_rejects_aggregates(self):
        session = build_session()
        session.execute("SET dualtable.plan = lookup")
        with pytest.raises(AnalysisError, match="aggregation"):
            session.execute("SELECT count(*) FROM t WHERE k = 3")

    def test_forced_lookup_rejects_joins(self):
        session = build_session()
        session.execute(
            "CREATE TABLE u (k int, tag string, PRIMARY KEY (k)) "
            "STORED AS DUALTABLE")
        session.load_rows("u", [(i, "u%d" % i) for i in range(10)])
        session.execute("SET dualtable.plan = lookup")
        with pytest.raises(AnalysisError, match="join"):
            session.execute("SELECT t.v, u.tag FROM t JOIN u "
                            "ON t.k = u.k WHERE t.k = 3")

    def test_forced_lookup_rejects_tables_without_pk(self):
        session = build_session()
        session.execute("CREATE TABLE plain (k int, v int) "
                        "STORED AS DUALTABLE")
        session.load_rows("plain", [(1, 2)])
        session.execute("SET dualtable.plan = lookup")
        with pytest.raises(AnalysisError, match="no PRIMARY KEY"):
            session.execute("SELECT v FROM plain WHERE k = 1")

    def test_forced_scan_counts_eligible_statements(self):
        session = build_session()
        session.execute("SET dualtable.plan = scan")
        session.execute("SELECT v FROM t WHERE k = 1")
        session.execute("SELECT v FROM t WHERE k = 2")
        counters = session.cluster.metrics.counters
        assert counters["dualtable.plan.lookup_eligible_scan.t"] == 2
        assert counters.get("dualtable.plan.lookup.t", 0) == 0


# ----------------------------------------------------------------------
# Result parity with the scan plan.
# ----------------------------------------------------------------------
class TestScanParity:
    def test_point_lookup_matches_scan(self):
        session = build_session()
        for sql in ("SELECT k, v, name FROM t WHERE k = 0",
                    "SELECT k, v, name FROM t WHERE k = 99",
                    "SELECT v FROM t WHERE k = 50",
                    "SELECT k FROM t WHERE k = 12345"):
            looked, scanned = lookup_vs_scan(session, sql)
            assert looked == scanned, sql

    def test_lookup_sees_live_deltas(self):
        session = build_session(mode="edit")
        session.execute("UPDATE t SET v = -1 WHERE k BETWEEN 40 AND 44")
        session.execute("DELETE FROM t WHERE k = 42")
        assert not session.table("t").handler.attached.is_empty()
        for k, expect in ((40, [(40, -1)]), (42, []), (50, [(50, 500)])):
            sql = "SELECT k, v FROM t WHERE k = %d" % k
            looked, scanned = lookup_vs_scan(session, sql)
            assert looked == scanned == expect, sql

    def test_pk_moving_update_reads_dirty_files_whole(self):
        """A delta that rewrites the PK column defeats stripe pruning
        for its file; the planner must read that file in full."""
        session = build_session(mode="edit")
        session.execute("UPDATE t SET k = 500 WHERE k = 7")
        handler = session.table("t").handler
        path = handler.master.file_paths()[0]
        file_id = handler.master.file_id_of(path)
        assert handler.attached.pk_dirty_in_file(file_id, 0)
        for sql in ("SELECT k, v FROM t WHERE k = 500",
                    "SELECT k, v FROM t WHERE k = 7"):
            looked, scanned = lookup_vs_scan(session, sql)
            assert looked == scanned, sql
        result = session.execute("SELECT k, v FROM t WHERE k = 500")
        assert result.rows == [(500, 70)]

    def test_residual_filter_applies_after_lookup(self):
        session = build_session()
        looked, scanned = lookup_vs_scan(
            session, "SELECT k, v FROM t WHERE k BETWEEN 10 AND 20 "
                     "AND v > 150")
        assert looked == scanned
        assert looked == [(k, k * 10) for k in range(16, 21)]

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_engines_agree_on_lookup_rows(self, engine):
        session = build_session(mode="edit")
        session.set_engine(engine)
        session.execute("UPDATE t SET v = 0 WHERE k BETWEEN 20 AND 29")
        looked, scanned = lookup_vs_scan(
            session, "SELECT k, v, name FROM t WHERE k BETWEEN 18 AND 23")
        assert looked == scanned

    def test_lookup_after_compact_and_overwrite(self):
        session = build_session(mode="edit")
        session.execute("UPDATE t SET v = 1 WHERE k < 30")
        session.execute("COMPACT TABLE t")
        looked, scanned = lookup_vs_scan(
            session, "SELECT k, v FROM t WHERE k = 10")
        assert looked == scanned == [(10, 1)]
        session.execute("INSERT OVERWRITE TABLE t "
                        "VALUES (1, 11, 'one'), (2, 22, 'two')")
        looked, scanned = lookup_vs_scan(
            session, "SELECT k, v FROM t WHERE k = 2")
        assert looked == scanned == [(2, 22)]


# ----------------------------------------------------------------------
# The vectorized LOOKUP filters merged batches; the row engine, one
# closure call per merged row, is its oracle.
# ----------------------------------------------------------------------
def _non_cache(counters):
    return {name: value for name, value in counters.items()
            if "cache" not in name}


def _observe_lookups(engine, sharded, batch_rows, statements):
    """Per-statement rows, plan, ledger, counters and span annotations."""
    session = HiveSession(profile=ClusterProfile.laptop(workers=1),
                          engine=engine, batch_rows=batch_rows)
    # NULLs in v and name, so residual conjuncts see NULL flags.
    rows = [(k, None if k % 7 == 3 else k * 10,
             None if k % 5 == 4 else "n%03d" % k) for k in range(400)]
    session.execute(
        "CREATE TABLE t (k int, v int, name string, PRIMARY KEY (k)) "
        "STORED AS DUALTABLE %s TBLPROPERTIES ('orc.rows_per_file' = '100', "
        "'orc.stripe_rows' = '%d', 'dualtable.mode' = 'edit')"
        % (("SHARDED BY (k) INTO 4", 5) if sharded else ("", 80)))
    session.load_rows("t", rows)
    session.execute("UPDATE t SET v = v + 1 WHERE k IN (12, 13, 205, 390)")
    session.execute("DELETE FROM t WHERE k IN (14, 206)")
    session.execute("SET dualtable.plan = lookup")
    cluster = session.cluster
    cluster.tracer.enable()
    steps = []
    for sql in statements:
        cluster.tracer.clear()
        before = _non_cache(cluster.metrics.counters)
        try:
            result = session.execute(sql)
            outcome = (result.plan, result.rows, result.sim_seconds,
                       result.detail)
        except Exception as exc:                      # noqa: BLE001
            outcome = (type(exc).__name__, str(exc))
        after = _non_cache(cluster.metrics.counters)
        steps.append({
            "sql": sql, "outcome": outcome,
            "ledger": cluster.ledger.snapshot(),
            "counters": {name: after[name] - before.get(name, 0)
                         for name in after
                         if after[name] != before.get(name, 0)},
            "spans": [(span.kind, span.name, dict(span.attrs), span.seconds,
                       span.nbytes) for span in cluster.tracer.spans],
        })
    return steps


class TestVectorizedLookupEqualsRowEngine:
    UNSHARDED = [
        "SELECT k, v, name FROM t WHERE k = 205",
        "SELECT k, v FROM t WHERE k BETWEEN 5 AND 95 AND v > 300",
        # Non-PK residual conjuncts; v and name hold NULLs.
        "SELECT k, name FROM t WHERE k BETWEEN 0 AND 99 AND v % 20 = 0 "
        "AND name LIKE 'n0%'",
        "SELECT * FROM t WHERE k IN (12, 13, 14, 15, 390) "
        "AND (v IS NULL OR v > 125)",
        "SELECT k FROM t WHERE k BETWEEN 100 AND 180 AND name = 'n150'",
        "SELECT k FROM t WHERE k BETWEEN 10 AND 60 AND v < 0",
        # The residual raises on a string operand.
        "SELECT k FROM t WHERE k BETWEEN 10 AND 60 AND name + 1 > 0",
    ]
    SHARDED = [
        "SELECT k, v, name FROM t WHERE k = 205",
        "SELECT k, v FROM t WHERE k = 13 AND v > 100",
        "SELECT k, v FROM t WHERE k = 13 AND v > 1000",
        "SELECT k, name FROM t WHERE k = 3 AND v IS NULL",
        "SELECT k FROM t WHERE k = 14",
        "SELECT k FROM t WHERE k = 8 AND name + 1 > 0",
    ]

    @pytest.mark.parametrize("batch_rows", [None, 64])
    @pytest.mark.parametrize("sharded", [False, True])
    def test_rows_ledger_counters_and_spans(self, sharded, batch_rows):
        statements = self.SHARDED if sharded else self.UNSHARDED
        vectorized = _observe_lookups("vectorized", sharded, batch_rows,
                                      statements)
        row = _observe_lookups("row", sharded, batch_rows, statements)
        for got, want in zip(vectorized, row):
            sql = got["sql"]
            assert got["outcome"] == want["outcome"], sql
            assert got["ledger"] == want["ledger"], sql
            assert got["counters"] == want["counters"], sql
            assert got["spans"] == want["spans"], sql
        plans = [step["outcome"][0] for step in vectorized]
        assert plans.count("lookup") == len(statements) - 1
        assert plans[-1] == "TypeError"

    def test_span_rows_and_cpu_charge_go_by_rows_examined(self):
        """The residual filter narrows the result, not the accounting."""
        warm_up, plain, filtered = _observe_lookups(
            "vectorized", False, None,
            ["SELECT k FROM t WHERE k = 1",
             "SELECT k FROM t WHERE k BETWEEN 90 AND 180",     # two files
             "SELECT k FROM t WHERE k BETWEEN 90 AND 180 "
             "AND name = 'n150'"])
        assert len(plain["outcome"][1]) == 91
        assert filtered["outcome"][1] == [(150,)]

        def examined(step):
            return [attrs["rows"] for _, name, attrs, _, _ in step["spans"]
                    if name == "dualtable:lookup"]

        def cpu_rows(step, previous):
            return (step["ledger"]["ops"][("cpu", "rows")]
                    - previous["ledger"]["ops"][("cpu", "rows")])

        assert examined(filtered) == examined(plain) == [120]
        assert filtered["counters"]["unionread.rows"] \
            == plain["counters"]["unionread.rows"] == 120
        # The filter (the PK range is part of it) charges every row it
        # examined; projection, on top, the rows it projects.
        assert cpu_rows(plain, warm_up) == 120 + 91
        assert cpu_rows(filtered, plain) == 120 + 1


# ----------------------------------------------------------------------
# EXPLAIN / EXPLAIN ANALYZE and observability.
# ----------------------------------------------------------------------
class TestObservability:
    def test_explain_shows_lookup_verdict(self):
        session = build_session()
        text = "\n".join(
            line for (line,) in
            session.execute("EXPLAIN SELECT v FROM t WHERE k = 5").rows)
        assert "LOOKUP eligibility (PRIMARY KEY k)" in text
        assert "plan: lookup" in text

    def test_explain_shows_forced_plan(self):
        session = build_session()
        session.execute("SET dualtable.plan = scan")
        text = "\n".join(
            line for (line,) in
            session.execute("EXPLAIN SELECT v FROM t WHERE k = 5").rows)
        assert "plan: scan (forced by dualtable.plan)" in text
        session.execute("SET dualtable.plan = cost")

    def test_explain_does_not_execute(self):
        session = build_session()
        before = session.cluster.metrics.counters.get(
            "dualtable.plan.lookup.t", 0)
        session.execute("EXPLAIN SELECT v FROM t WHERE k = 5")
        assert session.cluster.metrics.counters.get(
            "dualtable.plan.lookup.t", 0) == before

    def test_explain_analyze_prints_lookup_audit(self):
        session = build_session()
        result = session.execute(
            "EXPLAIN ANALYZE SELECT v FROM t WHERE k = 5")
        text = "\n".join(line for (line,) in result.rows)
        assert "cost-model audit: plan=lookup" in text
        assert result.detail["audit"]["plan"] == "lookup"

    def test_lookup_metrics_and_audit_trail(self):
        session = build_session()
        result = session.execute("SELECT v FROM t WHERE k = 5")
        assert result.plan == "lookup"
        metrics = session.cluster.metrics
        counters = metrics.counters
        assert counters["dualtable.plan.lookup"] == 1
        assert counters["dualtable.plan.lookup.t"] == 1
        assert counters["dualtable.lookups.t"] == 1
        assert counters["costmodel.audits.t"] == 1
        assert metrics.histogram("dualtable.plan.lookup_seconds.t").count \
            == 1
        assert metrics.histogram("dualtable.plan.lookup_bytes.t").count == 1
        audit = result.detail["audit"]
        assert audit["plan"] == "lookup"
        assert audit["observed_seconds"] >= 0
        assert result.detail["files_read"] <= result.detail["total_files"]

    def test_lookup_reads_fewer_bytes_than_scan(self):
        session = build_session()
        ledger = session.cluster.ledger

        def charged(plan):
            session.execute("SET dualtable.plan = %s" % plan)
            before = ledger.snapshot()
            session.execute("SELECT v, name FROM t WHERE k = 42")
            return sum(ledger.diff(before)["bytes"].values())

        lookup_bytes = charged("lookup")
        scan_bytes = charged("scan")
        session.execute("SET dualtable.plan = cost")
        assert 0 < lookup_bytes < scan_bytes

    def test_advisor_flags_lookup_eligible_scans(self):
        from repro.advisor.analyzer import (MIN_LOOKUP_ELIGIBLE,
                                            WorkloadAdvisor)
        session = build_session()
        session.execute("SET dualtable.plan = scan")
        for _ in range(MIN_LOOKUP_ELIGIBLE):
            session.execute("SELECT v FROM t WHERE k = 9")
        findings = WorkloadAdvisor(session).analyze()
        routing = [f for f in findings if f.code == "lookup-eligible-scan"]
        assert len(routing) == 1
        assert routing[0].subject == "t"
        assert "SET dualtable.plan = cost" in routing[0].remediation


# ----------------------------------------------------------------------
# Fault fallback: no double-charged cost.
# ----------------------------------------------------------------------
class TestFaultFallback:
    @pytest.mark.parametrize("point", ["lookup.index_read",
                                       "lookup.hbase_probe"])
    def test_crash_mid_lookup_falls_back_to_scan(self, point):
        session = build_session()
        session.execute("SET dualtable.plan = lookup")
        session.cluster.faults.install(FaultPlan([
            Fault(point, nth_hit=1, kind="crash")]))
        try:
            result = session.execute("SELECT k, v FROM t WHERE k = 33")
        finally:
            session.cluster.faults.uninstall()
        assert result.rows == [(33, 330)]
        assert result.plan.startswith("select(")
        counters = session.cluster.metrics.counters
        assert counters["dualtable.plan.lookup_fallback.t"] == 1
        assert counters.get("dualtable.plan.lookup.t", 0) == 0

    def test_region_crash_fallback_charges_exactly_like_a_scan(self):
        """Ledger proof of the no-double-charge guarantee: a forced
        LOOKUP whose attached probe dies in a region-server crash must
        charge byte-for-byte what a plain scan over the same
        crashed-then-recovered table charges — the lookup's planning is
        uncharged and its fault point fires before the first charged
        byte."""
        def run(crash_via_fault):
            session = build_session(mode="edit")
            session.execute("UPDATE t SET v = -5 WHERE k BETWEEN 30 AND 34")
            if crash_via_fault:
                session.execute("SET dualtable.plan = lookup")
                session.cluster.faults.install(FaultPlan([
                    Fault("lookup.hbase_probe", nth_hit=1,
                          kind="region_crash")]))
            else:
                session.hbase.crash_region_server()
                session.execute("SET dualtable.plan = scan")
            before = session.cluster.ledger.snapshot()
            try:
                result = session.execute(
                    "SELECT k, v FROM t WHERE k = 33")
            finally:
                session.cluster.faults.uninstall()
            return result, session.cluster.ledger.diff(before), session

        faulted, fault_delta, fault_session = run(crash_via_fault=True)
        scanned, scan_delta, _ = run(crash_via_fault=False)
        assert faulted.rows == scanned.rows == [(33, -5)]
        assert faulted.plan.startswith("select(")
        assert fault_delta["bytes"] == scan_delta["bytes"]
        assert fault_delta["ops"] == scan_delta["ops"]
        assert fault_delta["seconds"] == scan_delta["seconds"]
        counters = fault_session.cluster.metrics.counters
        assert counters["dualtable.plan.lookup_fallback.t"] == 1

    def test_fatal_kill_is_not_absorbed(self):
        from repro.common.errors import FaultInjectedError
        session = build_session()
        session.execute("SET dualtable.plan = lookup")
        session.cluster.faults.install(FaultPlan([
            Fault("lookup.hbase_probe", nth_hit=1, kind="kill")]))
        try:
            with pytest.raises(FaultInjectedError):
                session.execute("SELECT v FROM t WHERE k = 3")
        finally:
            session.cluster.faults.uninstall()


# ----------------------------------------------------------------------
# Stripe-index cache invalidation (regressions also in
# tests/test_cache_invalidation.py).
# ----------------------------------------------------------------------
class TestStripeIndexCache:
    def test_index_is_cached_and_reused(self):
        from repro.core.lookup import stripe_index
        session = build_session()
        handler = session.table("t").handler
        first = stripe_index(handler, hit_faults=False)
        cache = session.cluster.delta_cache
        path = handler.master.file_paths()[0]
        key = (handler.attached.name, "stripe-index", path,
               session.fs.file_size(path))
        assert key in cache
        assert stripe_index(handler, hit_faults=False) == first

    def test_zero_budget_disables_index_cache(self):
        session = HiveSession(profile=ClusterProfile.laptop(
            delta_cache_bytes=0))
        session.execute(
            "CREATE TABLE t (k int, v int, name string, PRIMARY KEY (k)) "
            "STORED AS DUALTABLE TBLPROPERTIES "
            "('orc.rows_per_file' = '25', 'orc.stripe_rows' = '5')")
        session.load_rows("t", ROWS)
        result = session.execute("SELECT v FROM t WHERE k = 8")
        assert result.plan == "lookup"
        assert result.rows == [(80,)]
        assert len(session.cluster.delta_cache) == 0
