"""The LOOKUP plan: point reads that skip MapReduce.

Covers the full surface of the third plan type: PRIMARY KEY DDL and the
``SET dualtable.plan`` knob through the parser and session, eligibility
rules (equality / IN / closed BETWEEN only, row-count cap, forced-mode
rejections for non-PK predicates, aggregates and joins), result parity
with the MR scan plan under deltas / deletes / PK-moving updates,
row-group pruning over key-ordered master files, bucket pruning of
closed int ranges over hash shards, the ≥20x p50 and bytes
gate against the scan plan, EXPLAIN and EXPLAIN ANALYZE output, the
metrics and cost-audit trail, and the no-double-charge guarantee when a
fault forces a mid-lookup fallback to the scan plan.
"""

import random

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import AnalysisError, ParseError
from repro.common.units import fmt_bytes
from repro.core.lookup import NUM_BUCKETS, ROW_GROUP_ROWS, stripe_index
from repro.core.master import FILE_ID_KEY
from repro.faults import Fault, FaultPlan
from repro.hive import HiveSession
from repro.hive import ast_nodes as ast
from repro.hive.parser import parse
from repro.hive.pushdown import extract_ranges
from repro.mapreduce.job import stable_hash
from repro.orc import OrcReader
from repro.shard import ShardMap

from tests.golden import digest, golden, jsonable

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


def index_entries(store):
    """The stripe index of every master file of ``store``, in path
    order."""
    return stripe_index(store, store.master.file_paths())


def read_whole(handler, plan):
    """Whether ``plan`` reads exactly one candidate file, every stripe of
    it: what a keyed plan reads of a file whose delta assigns the key."""
    if len(plan.files) != 1:
        return False
    (candidate,) = plan.files
    meta = handler.shards[candidate["shard"]].master.meta(candidate["path"])
    return candidate["row_spans"] == {
        s.index: [(s.first_row, s.first_row + s.num_rows)]
        for s in meta.stripes}


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

    def test_row_limit_counts_listed_keys_not_candidate_stripes(self):
        """The PRIMARY KEY is unique, so an IN list matches at most its
        own length however many stripes hold the keys; capping the
        candidate rows instead sent a 24-key list over 625-row stripes
        to the job or not by the luck of the draw (``update_storm``
        ``sim_s`` 13.8 at seed 1, 16.5 at seed 777)."""
        session = build_session(
            mode="edit", extra_props=", 'dualtable.lookup.max_rows' = '10'")
        session.execute("SET dualtable.plan = lookup")
        spread = "k IN (1, 11, 21, 31, 41, 51, 61, 71)"    # 8 stripes of 5
        plan = session.table("t").handler.plan_lookup(
            extract_ranges(parse("SELECT v FROM t WHERE " + spread).where))
        assert plan.est_rows == 40 and plan.stripes[0] == 8
        assert session.execute("SELECT v FROM t WHERE " + spread).plan \
            == "lookup"
        session.execute("SET dualtable.plan = cost")
        result = session.execute("UPDATE t SET v = 0 WHERE " + spread)
        assert result.jobs == [] and result.affected == 8
        eleven = "k IN (%s)" % ", ".join(map(str, range(11)))
        assert len(session.execute(
            "UPDATE t SET v = 0 WHERE " + eleven).jobs) == 1
        session.execute("SET dualtable.plan = lookup")
        with pytest.raises(AnalysisError, match="max_rows"):
            session.execute("SELECT v FROM t WHERE " + eleven)

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
        file_id = int(handler.master.meta(path).metadata[FILE_ID_KEY])
        assert 0 in handler.attached.assigned_columns(file_id)
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
        """``row``: the rows the row engine's LOOKUP returned."""
        looked, scanned = _range_over_live_deltas()
        assert jsonable(looked) == (golden("lookup_rows") if engine == "row"
                                    else jsonable(scanned))

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
# The LOOKUP filters merged batches; what the row engine, one closure
# call per merged row, observed for the same statements is its oracle
# (tests/golden.py).
# ----------------------------------------------------------------------
def _range_over_live_deltas():
    session = build_session(mode="edit")
    session.execute("UPDATE t SET v = 0 WHERE k BETWEEN 20 AND 29")
    return lookup_vs_scan(
        session, "SELECT k, v, name FROM t WHERE k BETWEEN 18 AND 23")


def golden_sections():
    cls = TestVectorizedLookupEqualsRowEngine
    sections = {"lookup_rows": _range_over_live_deltas()[0]}
    for sharded in (False, True):
        for batch_rows in (None, 64):
            sections["lookups/%s/%s" % (sharded, batch_rows)] = \
                cls.observed(sharded, batch_rows)
    return sections



def _non_cache(counters):
    return {name: value for name, value in counters.items()
            if "cache" not in name}


def _observe_lookups(sharded, batch_rows, statements):
    """Per-statement rows, plan, ledger, counters and span annotations."""
    session = HiveSession(profile=ClusterProfile.laptop(workers=1),
                          batch_rows=batch_rows)
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

    @classmethod
    def observed(cls, sharded, batch_rows):
        """Outcomes verbatim; ledger, counters and spans as digests."""
        steps = _observe_lookups(sharded, batch_rows,
                                 cls.SHARDED if sharded else cls.UNSHARDED)
        return jsonable([{key: value if key in ("sql", "outcome")
                          else digest(value) for key, value in step.items()}
                         for step in steps])

    @pytest.mark.parametrize("batch_rows", [None, 64])
    @pytest.mark.parametrize("sharded", [False, True])
    def test_rows_ledger_counters_and_spans(self, sharded, batch_rows):
        vectorized = self.observed(sharded, batch_rows)
        row = golden("lookups/%s/%s" % (sharded, batch_rows))
        assert len(vectorized) == len(row)
        for got, want in zip(vectorized, row):
            for key in ("outcome", "ledger", "counters", "spans"):
                assert got[key] == want[key], (got["sql"], key)
        plans = [step["outcome"][0] for step in vectorized]
        assert plans.count("lookup") == len(plans) - 1
        assert plans[-1] == "TypeError"

    def test_span_rows_and_cpu_charge_go_by_rows_examined(self):
        """The residual filter narrows the result, not the accounting."""
        warm_up, plain, filtered = _observe_lookups(
            False, None,
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
        assert "stripes 1 of 20, row groups 1 of 20 (~5 row(s))" in text
        assert "plan: lookup" in text

    def test_explain_shows_forced_plan(self):
        session = build_session()
        session.execute("SET dualtable.plan = scan")
        text = "\n".join(
            line for (line,) in
            session.execute("EXPLAIN SELECT v FROM t WHERE k = 5").rows)
        assert "plan: scan (forced by dualtable.plan)" in text
        session.execute("SET dualtable.plan = cost")

    def test_explain_scan_bytes_count_the_footers_its_seconds_price(self):
        """The scan alternative reads each file's footer and every
        projected stripe: its byte figure sums both, like its seconds."""
        session = build_session()
        handler = session.table("t").handler
        lines = [line.strip() for (line,) in session.execute(
            "EXPLAIN SELECT v FROM t WHERE k = 5").rows]
        whole = sum(f.footer_bytes + f.scan_bytes
                    for f in handler.plan_files(["k", "v"]))
        assert "(%s)" % fmt_bytes(whole) in next(
            line for line in lines if line.startswith("scan cost:"))

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
        # The fallback reads the forced job's splits as a fetch: every
        # charge but the job's start-up.
        assert faulted.plan == "select(fetch)"
        assert fault_delta["bytes"] == scan_delta["bytes"]
        assert fault_delta["ops"] == scan_delta["ops"]
        job_seconds = dict(scan_delta["seconds"])
        assert job_seconds.pop(("mapreduce", "job_startup")) > 0
        assert fault_delta["seconds"] == job_seconds
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
        session = build_session()
        handler = session.table("t").handler
        first = index_entries(handler.shards[0])
        cache = session.cluster.delta_cache
        path = handler.master.file_paths()[0]
        key = (handler.attached.name, "stripe-index", path,
               session.fs.file_size(path))
        assert key in cache
        assert index_entries(handler.shards[0]) == first

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


# ----------------------------------------------------------------------
# The keyed access path: bucket masks, multi-shard plans, EDIT-by-key.
# ``SET dualtable.plan = scan`` (the MapReduce job) is the oracle.
# ----------------------------------------------------------------------
KEYED_ROWS = [(k, k * 10, "n%03d" % k) for k in range(240)]


def keyed_session(shards=None, mode="edit", rows=KEYED_ROWS,
                  rows_per_file=40, stripe_rows=10, plan="cost", props=""):
    session = HiveSession(profile=ClusterProfile.laptop(workers=1))
    session.execute(
        "CREATE TABLE t (k int, v int, name string) PRIMARY KEY (k) "
        "STORED AS DUALTABLE %s TBLPROPERTIES "
        "('orc.rows_per_file' = '%d', 'orc.stripe_rows' = '%d', "
        "'dualtable.mode' = '%s'%s)"
        % ("SHARDED BY (k) INTO %d" % shards if shards else "",
           rows_per_file, stripe_rows, mode, props))
    session.load_rows("t", rows)
    session.execute("SET dualtable.plan = %s" % plan)
    return session


def attached_cells(session):
    """Every live delta of ``t``: (record id, deleted, updates)."""
    handler = session.table("t").handler
    return sorted(
        (record_id, delta.deleted, tuple(sorted(delta.updates.items())))
        for shard in handler.shards
        for record_id, delta in shard.attached.scan_range())


def run_dml_script(session, statements):
    """Per-statement (affected, jobs, udtf.* moved), then cells + rows."""
    counters = session.cluster.metrics.counters
    steps = []
    for sql in statements:
        before = {name: counters.get(name, 0)
                  for name in ("udtf.updates", "udtf.deletes")}
        result = session.execute(sql)
        steps.append((result.affected, len(result.jobs),
                      {name: counters.get(name, 0) - value
                       for name, value in before.items()}))
    session.execute("SET dualtable.plan = scan")
    rows = session.execute("SELECT * FROM t").rows
    return steps, attached_cells(session), sorted(rows)


KEYED_DML = [
    "UPDATE t SET v = v + 1 WHERE k = 42",
    "UPDATE t SET v = v * 2, name = 'in' WHERE k IN (3, 17, 40, 66, 199, "
    "1000)",
    "UPDATE t SET v = 0 WHERE k BETWEEN 30 AND 37",
    "UPDATE t SET v = v - 1 WHERE k >= 10 AND k < 14 AND v > 100",
    "DELETE FROM t WHERE k = 17",
    "DELETE FROM t WHERE k IN (41, 42, 43)",
    "DELETE FROM t WHERE k BETWEEN 90 AND 95 AND name <> 'n092'",
    "UPDATE t SET v = 7 WHERE k = 17",                  # a deleted row
    "UPDATE t SET name = 'late' WHERE k IN (3, 42, 91)",
]


class TestEditByKeyEqualsTheJob:
    @pytest.mark.parametrize("shards", [None, 1, 4, 8])
    def test_cells_rows_affected_and_udtf_counters(self, shards):
        keyed = run_dml_script(keyed_session(shards), KEYED_DML)
        job = run_dml_script(keyed_session(shards, plan="scan"), KEYED_DML)
        assert [jobs for _, jobs, _ in keyed[0]] == [0] * len(KEYED_DML)
        assert [jobs for _, jobs, _ in job[0]] == [1] * len(KEYED_DML)
        assert [(a, u) for a, _, u in keyed[0]] \
            == [(a, u) for a, _, u in job[0]]
        assert keyed[1] == job[1]
        assert keyed[2] == job[2]

    def test_rows_ledger_and_counters_identical_across_shard_counts(self):
        from repro.shard.identity import identity_fingerprint

        def run(shards):
            session = keyed_session(shards)
            steps, cells, rows = run_dml_script(session, KEYED_DML)
            return (steps, cells) + tuple(
                identity_fingerprint(session, [("rows", rows)]))
        base = run(1)
        assert run(4) == base
        assert run(8) == base

    def test_cost_mode_takes_the_keyed_plan_and_counts_it_as_edit(self):
        session = keyed_session(4, mode="cost")
        counters = session.cluster.metrics.counters
        result = session.execute("UPDATE t SET v = 1 WHERE k IN (5, 6, 7)")
        assert (result.affected, result.jobs) == (3, [])
        assert result.plan == "update-edit"
        assert result.detail["plan"] == "edit"
        assert result.detail["audit"]["plan"] == "edit_by_key"
        assert counters["dualtable.plan.edit"] == 1
        assert counters["udtf.updates"] == 3
        assert counters.get("dualtable.plan.lookup", 0) == 0
        assert counters.get("mapreduce.jobs", 0) == 0

    def test_forced_overwrite_mode_is_left_alone(self):
        session = keyed_session(mode="overwrite")
        result = session.execute("UPDATE t SET v = 1 WHERE k = 5")
        assert result.plan == "update-overwrite" and len(result.jobs) == 1

    @pytest.mark.parametrize("shards", [None, 4])
    @pytest.mark.parametrize("literal", ["'9'", "5.0", "true"])
    def test_bound_of_another_type_takes_the_job(self, shards, literal):
        """``=`` coerces ('9' = 9) where statistics and the bucket hash
        do not: only a bound of the column's own type is keyed."""
        sql = "UPDATE t SET v = -1 WHERE k = %s" % literal
        keyed = keyed_session(shards)
        result = keyed.execute(sql)
        assert len(result.jobs) == 1 and result.affected == 1
        job = keyed_session(shards, plan="scan")
        job.execute(sql)
        assert attached_cells(keyed) == attached_cells(job)
        select = "SELECT k FROM t WHERE k BETWEEN %s AND 12" % literal
        assert keyed.execute(select).plan.startswith("select(")

    def test_files_that_span_buckets_after_compact(self):
        """COMPACT consolidates per shard: its files hold many buckets,
        so the masks, computed from the stored keys, must too."""
        session = keyed_session(4, rows_per_file=1000, stripe_rows=16)
        session.execute("UPDATE t SET v = v + 1 WHERE k IN (1, 2, 3, 4)")
        session.execute("COMPACT TABLE t")
        handler = session.table("t").handler
        masks = [stripe[4] for shard in handler.shards
                 for entry in index_entries(shard)
                 for stripe in entry["stripes"]]
        assert any(bin(mask).count("1") > 1 for mask in masks)
        plan = handler.plan_lookup(extract_ranges(parse(
            "SELECT k FROM t WHERE k IN (7, 100)").where),
            hit_faults=False)
        assert 0 < plan.stripes[0] < plan.stripes[1]
        jobs = session.cluster.metrics.counters["mapreduce.jobs"]
        for key in range(0, 240, 7):
            session.execute("UPDATE t SET v = -%d WHERE k = %d" % (key, key))
        assert session.cluster.metrics.counters["mapreduce.jobs"] == jobs
        rows = dict(session.execute("SELECT k, v FROM t").rows)
        assert all(rows[k] == (-k if k % 7 == 0 else
                               k * 10 + (1 <= k <= 4))
                   for k in range(240))

    def test_pk_dirty_file_is_read_whole(self):
        """A delta that rewrote the PK moved a row out of every stripe
        statistic and bucket mask of its file."""
        def run(plan):
            session = keyed_session(plan=plan)
            session.execute("SET dualtable.plan = scan")
            session.execute("UPDATE t SET k = 1005 WHERE k = 5")
            session.execute("SET dualtable.plan = %s" % plan)
            result = session.execute("UPDATE t SET v = -5 WHERE k = 1005")
            deleted = session.execute("DELETE FROM t WHERE k IN (5, 1005)")
            return (result.affected, deleted.affected,
                    attached_cells(session))
        keyed, job = run("cost"), run("scan")
        assert keyed == job and keyed[:2] == (1, 1)
        session = keyed_session()
        handler = session.table("t").handler
        moved = extract_ranges(parse("SELECT k FROM t WHERE k = 1005").where)
        assert handler.plan_lookup(moved, hit_faults=False).files == []
        session.execute("UPDATE t SET k = 1005 WHERE k = 5")
        plan = handler.plan_lookup(moved, hit_faults=False)
        assert read_whole(handler, plan)

    @pytest.mark.parametrize("kind", ["crash", "region_crash"])
    @pytest.mark.parametrize("point", ["lookup.index_read",
                                       "lookup.hbase_probe"])
    def test_fault_in_the_keyed_read_falls_back_to_the_job(self, point,
                                                           kind):
        """Nothing staged, nothing double-charged: the faulted statement
        leaves the cells and the ledger of a statement that was a job
        from the start (over the same crashed-then-recovered store)."""
        if (point, kind) == ("lookup.index_read", "region_crash"):
            pytest.skip("the index read never touches a region server")
        sql = "UPDATE t SET v = v + 5 WHERE k IN (8, 9, 130)"

        def run(faulted):
            session = keyed_session(plan="cost" if faulted else "scan")
            session.execute("UPDATE t SET v = 1 WHERE k BETWEEN 5 AND 9")
            if faulted:
                session.cluster.faults.install(FaultPlan([
                    Fault(point, nth_hit=1, kind=kind)]))
            elif kind == "region_crash":
                session.hbase.crash_region_server()
            before = session.cluster.ledger.snapshot()
            try:
                result = session.execute(sql)
            finally:
                session.cluster.faults.uninstall()
            return result, session.cluster.ledger.diff(before), session

        faulted, fault_delta, session = run(True)
        job, job_delta, _ = run(False)
        assert (faulted.affected, len(faulted.jobs)) == (3, 1)
        assert attached_cells(session) == attached_cells(_)
        assert fault_delta["bytes"] == job_delta["bytes"]
        assert fault_delta["ops"] == job_delta["ops"]
        # (seconds: two diffs off different ledger totals, so to an ULP)
        assert fault_delta["seconds"] == pytest.approx(job_delta["seconds"])
        counters = session.cluster.metrics.counters
        assert counters["dualtable.plan.lookup_fallback.t"] == 1
        assert counters["dualtable.plan.edit"] == 2
        assert counters["udtf.updates"] == 5 + 3

    def test_fatal_kill_in_the_keyed_read_stages_nothing(self):
        from repro.common.errors import FaultInjectedError
        session = keyed_session()
        session.cluster.faults.install(FaultPlan([
            Fault("lookup.hbase_probe", nth_hit=1, kind="kill")]))
        try:
            with pytest.raises(FaultInjectedError):
                session.execute("DELETE FROM t WHERE k = 3")
        finally:
            session.cluster.faults.uninstall()
        assert attached_cells(session) == []
        assert not session.fs.exists(session.table("t").handler.txn_dir)

    def test_killed_optimistic_transaction_leaves_no_delta(self):
        from repro.common.errors import SessionKilledError
        from repro.server import Arrival, DualTableServer
        engine = keyed_session(4)
        server = DualTableServer(engine, concurrency=2)
        doomed, other = server.connect("a"), server.connect("b")
        outcomes = server.run([
            Arrival(0.0, doomed, "UPDATE t SET v = -1 WHERE k IN (2, 3)"),
            Arrival(1e-7, other, "UPDATE t SET v = -2 WHERE k = 4"),
        ], kills=[(2e-7, doomed.id)])      # a keyed write is that short
        killed = next(o for o in outcomes if o["session"] == doomed.id)
        assert killed["status"] == "killed"
        assert isinstance(killed["error"], SessionKilledError)
        assert [updates for _, _, updates in attached_cells(engine)] \
            == [((1, -2),)]
        assert engine.cluster.metrics.counter("mapreduce.jobs") == 0
        assert sorted(engine.execute(
            "SELECT k, v FROM t WHERE k IN (2, 3, 4)").rows) \
            == [(2, 20), (3, 30), (4, -2)]


class TestKeyedCostModel:
    """An ``htap_serve``-shaped table at a tenth of its size: 4 shards,
    cost mode, one single-bucket file per bucket, a quarter of the
    table as ``dualtable.lookup.max_rows``."""

    @staticmethod
    def serve_session():
        rows = [(k, k % 1000, "n%d" % (k % 97)) for k in range(4000)]
        return keyed_session(4, mode="cost", rows=rows,
                             rows_per_file=250, stripe_rows=62,
                             props=", 'dualtable.lookup.max_rows' = '1000'")

    def test_keyed_audits_stay_within_a_quarter(self):
        """``choose_lookup_plan`` left the per-row union-read CPU charge
        out and predicted 1 % of what the ledger observed."""
        session = self.serve_session()
        statements = [
            ("lookup", "SELECT k, v FROM t WHERE k = 1234"),
            ("edit_by_key", "UPDATE t SET v = v + 1 WHERE k = 1234"),
            ("lookup", "SELECT k, v, name FROM t WHERE k = 1234"),
            ("edit_by_key", "UPDATE t SET v = v + 1 WHERE k IN "
                            "(7, 8, 9, 10, 11, 12, 13, 14)"),
            ("edit_by_key", "DELETE FROM t WHERE k = 77"),
            ("lookup", "SELECT k FROM t WHERE k IN (7, 77, 1234)"),
        ]
        for plan, sql in statements:
            audit = session.execute(sql).detail["audit"]
            assert audit["plan"] == plan, sql
            assert audit["rel_error"] <= 0.25, (sql, audit)
        metrics = session.cluster.metrics
        for plan in ("lookup", "edit_by_key"):
            histogram = metrics.histogram("costmodel.rel_error.%s" % plan)
            assert histogram.count == 3 and histogram.p95 <= 0.25

    def test_primary_key_caps_the_estimated_ratio(self):
        """Regression: an 8-key IN list read as ratio 0.0128 (512 rows
        of 40 000) and cost mode rewrote the master for it."""
        session = self.serve_session()
        session.execute("SET dualtable.plan = scan")
        result = session.execute(
            "UPDATE t SET v = v + 1 WHERE k IN (7, 8, 9, 10, 11, 12, 13, 14)")
        assert result.detail["ratio"] == 8 / 4000
        assert result.detail["plan"] == result.detail["cost_plan"] == "edit"
        assert result.plan == "update-edit" and len(result.jobs) == 1
        point = session.execute("DELETE FROM t WHERE k = 99")
        assert point.detail["ratio"] == 1 / 4000

    def test_no_keyed_statement_launches_a_job(self):
        """The exact-count gate on an ``htap_serve``-shaped mix, as
        ``(jobs, fetches, local jobs)``: a SELECT with no shuffle that
        LOOKUP does not serve reads its splits in the client, a fetch,
        and so does a GROUP BY this small; both are local jobs."""
        session = self.serve_session()
        counter = session.cluster.metrics.counter
        counts = lambda: (counter("mapreduce.jobs"), counter("hive.fetches"),
                          counter("hive.local_jobs"))
        mix = [
            ((0, 0, 0), "SELECT k, v FROM t WHERE k = 17"),
            ((0, 0, 0), "UPDATE t SET v = v + 1 WHERE k = 17"),
            ((0, 0, 0), "UPDATE t SET v = v + 1 WHERE k IN "
                        "(1, 2, 3, 4, 5, 6, 7, 8)"),
            ((0, 0, 0), "DELETE FROM t WHERE k = 3999"),
            ((0, 0, 0), "DELETE FROM t WHERE k IN (100, 200, 300)"),
            ((0, 0, 0), "SELECT k, v, name FROM t WHERE k IN (17, 18)"),
            ((0, 1, 1), "SELECT k, v FROM t WHERE k >= 500 AND k <= 540"),
            ((0, 0, 1), "SELECT name, count(*), sum(v) FROM t "
                        "GROUP BY name"),
            ((0, 1, 1), "SELECT * FROM t"),
            ((1, 0, 0), "UPDATE t SET v = 0 WHERE v = 999"),
        ]
        for expected, sql in mix:
            before = counts()
            session.execute(sql)
            assert tuple(now - then for now, then
                         in zip(counts(), before)) == expected, sql


# ----------------------------------------------------------------------
# Key-ordered master files and the row-group index.
# ----------------------------------------------------------------------
#: about 80 rows per hash bucket (78 in bucket 0), so a sharded
#: table's bucket files hold two row groups each.
GROUPED_ROWS = 64 * 80


def grouped_session(shards, plan, workers=1, batch_rows=None,
                    rows=GROUPED_ROWS, stripe_rows=200):
    """A PRIMARY KEY table INSERTed in shuffled key order."""
    keys = list(range(rows))
    random.Random(27).shuffle(keys)
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers),
                          batch_rows=batch_rows)
    session.execute(
        "CREATE TABLE t (k int, v int, name string) PRIMARY KEY (k) "
        "STORED AS DUALTABLE %s TBLPROPERTIES ('orc.rows_per_file' = "
        "'1000', 'orc.stripe_rows' = '%d', 'dualtable.mode' = 'edit')"
        % ("SHARDED BY (k) INTO %d" % shards if shards else "", stripe_rows))
    session.load_rows("t", [(k, k * 10, "n%05d" % k) for k in keys])
    session.execute("SET dualtable.plan = %s" % plan)
    return session


def first_file_keys(session):
    """The keys of ``t``'s first master file in row order, and the row
    count of its first stripe (read uncharged)."""
    handler = session.table("t").handler
    master = handler.shards[0].master
    reader = OrcReader(session.fs.read_file_silent(master.file_paths()[0]))
    return ([values[0] for _, values in reader.rows(projection=["k"])],
            reader.stripes[0].num_rows)


def row_group_script(keys, stripe_rows):
    """Statements aimed at row-group edges of the first stripe: rows 63
    and 64 straddle the first boundary, ``last`` ends the stripe."""
    last = keys[stripe_rows - 1]
    moved = GROUPED_ROWS + 7
    return [
        "SELECT k, v FROM t WHERE k BETWEEN %d AND %d" % (keys[60], keys[66]),
        # Between two row groups of this file (other files may hold it).
        "SELECT k, v FROM t WHERE k > %d AND k < %d" % (keys[63], keys[64]),
        # One stripe, three row groups.
        "SELECT k, v, name FROM t WHERE k IN (%d, %d, %d)"
        % (keys[5], keys[69], last),
        "UPDATE t SET v = -1 WHERE k IN (%d, %d, %d)"
        % (keys[63], keys[64], last),
        "DELETE FROM t WHERE k IN (%d, %d)" % (keys[64], last),
        "SELECT k, v, name FROM t WHERE k BETWEEN %d AND %d"
        % (keys[62], keys[65]),
        "UPDATE t SET v = v + 1 WHERE k BETWEEN %d AND %d"
        % (keys[60], keys[66]),
        "DELETE FROM t WHERE k BETWEEN %d AND %d" % (keys[58], keys[61]),
        # The key moves: its file is PK-dirty and read whole from now on
        # (a sharded table rewrites instead).
        "UPDATE t SET k = %d WHERE k = %d" % (moved, keys[10]),
        "SELECT k, v FROM t WHERE k = %d" % moved,
        "SELECT k, v FROM t WHERE k BETWEEN %d AND %d" % (keys[8], keys[12]),
        "UPDATE t SET v = 0 WHERE k IN (%d, %d)" % (moved, keys[70]),
        "SELECT k, v, name FROM t WHERE k BETWEEN %d AND %d"
        % (keys[56], keys[70]),
    ]


def run_row_group_script(session, statements):
    """Per statement: sorted rows (a read) or the affected count, and
    how many jobs ran; then the whole table as the scan reads it."""
    steps = []
    for sql in statements:
        result = session.execute(sql)
        outcome = (sorted(result.rows) if sql.startswith("SELECT")
                   else result.affected)
        steps.append((sql, outcome, len(result.jobs)))
    session.execute("SET dualtable.plan = scan")
    return steps, sorted(session.execute("SELECT * FROM t").rows)


class TestRowGroupPruning:
    """Forced LOOKUP / EDIT-by-key read only the admitted row groups;
    the forced scan job reads every row.  Both must agree."""

    _oracle = {}

    @classmethod
    def oracle(cls, shards):
        if shards not in cls._oracle:
            session = grouped_session(shards, "scan")
            keys, stripe_rows = first_file_keys(session)
            statements = row_group_script(keys, stripe_rows)
            cls._oracle[shards] = (statements,
                                   run_row_group_script(session, statements))
        return cls._oracle[shards]

    # Every (workers, batch_rows) pair unsharded; the sharded tables
    # (64 bucket files each, the slow ones) once per worker count and
    # batch size.
    @pytest.mark.parametrize("shards,workers,batch_rows", [
        (None, 1, None), (None, 1, 64), (None, 4, None), (None, 4, 64),
        (1, 1, None), (4, 4, 64)])
    def test_keyed_equals_the_scan(self, shards, workers, batch_rows):
        statements, (scan_steps, scan_rows) = self.oracle(shards)
        session = grouped_session(shards, "lookup", workers, batch_rows)
        keys, stripe_rows = first_file_keys(session)
        assert keys == sorted(keys)                 # written in key order
        assert stripe_rows > 70 and row_group_script(
            keys, stripe_rows) == statements
        steps, rows = run_row_group_script(session, statements)
        # Only moving a sharded table's key takes a job (a rewrite).
        assert [jobs for sql, _, jobs in steps] \
            == [int(shards is not None and " SET k " in sql)
                for sql in statements]
        assert [step[:2] for step in steps] \
            == [step[:2] for step in scan_steps]
        assert rows == scan_rows
        assert all(outcome for sql, outcome, _ in steps
                   if not sql.startswith("SELECT"))

    def test_pk_moving_update_reads_the_file_whole(self):
        session = grouped_session(None, "lookup")
        handler = session.table("t").handler
        near = extract_ranges(parse(
            "SELECT k FROM t WHERE k BETWEEN 2008 AND 2012").where)
        plan = handler.plan_lookup(near, hit_faults=False)
        assert [f["row_spans"] for f in plan.files] == [{0: [(0, 64)]}]
        assert plan.row_groups == (1, 102)
        session.execute("UPDATE t SET k = -1 WHERE k = 2010")
        plan = handler.plan_lookup(near, hit_faults=False)
        assert read_whole(handler, plan)
        assert plan.row_groups == (20, 102) and plan.stripes == (5, 26)

    def test_null_keys_sort_last_and_match_no_range(self):
        session = keyed_session(rows=[(None, 1, "a"), (5, 50, "b"),
                                      (None, 2, "c"), (1, 10, "d")])
        assert first_file_keys(session)[0] == [1, 5, None, None]
        assert session.execute("SELECT * FROM t").rows == [
            (1, 10, "d"), (5, 50, "b"), (None, 1, "a"), (None, 2, "c")]
        assert session.execute(
            "SELECT k, v FROM t WHERE k BETWEEN 0 AND 9").rows \
            == [(1, 10), (5, 50)]

    def test_moving_a_sharded_key_rewrites(self):
        """An EDIT would leave the row on its old key's shard, where a
        keyed read of the new key never looks (before and after
        COMPACT): the rewrite re-buckets it."""
        session = keyed_session(4)
        result = session.execute("UPDATE t SET k = 1000 WHERE k = 10")
        assert result.plan == "update-overwrite" and result.affected == 1
        session.execute("COMPACT TABLE t")
        for plan in ("lookup", "scan"):
            session.execute("SET dualtable.plan = %s" % plan)
            assert session.execute(
                "SELECT k, v FROM t WHERE k = 1000").rows == [(1000, 100)]

    def test_fifty_key_range_on_a_sharded_table_is_keyed(self):
        """``htap_serve``'s ``range_read`` shape: one single-bucket file
        per bucket, each file's keys spanning the domain.  The range's
        50 keys pin the files of their own buckets only, and row groups
        narrow each of those to at most two of its groups."""
        session = grouped_session(4, "cost", rows=64 * 320, stripe_rows=1000)
        handler = session.table("t").handler
        sql = "SELECT k, v FROM t WHERE k >= 9000 AND k <= 9049"
        plan = handler.plan_lookup(extract_ranges(parse(sql).where),
                                   hit_faults=False)
        assert plan.choice.plan == "lookup"
        buckets = {stable_hash(k) % NUM_BUCKETS for k in range(9000, 9050)}
        assert plan.total_files == NUM_BUCKETS
        assert len(plan.files) == len(buckets) < NUM_BUCKETS
        assert plan.buckets == (len(buckets), NUM_BUCKETS)
        assert plan.row_groups[0] <= NUM_BUCKETS * 2 < plan.row_groups[1]
        assert plan.est_rows <= NUM_BUCKETS * 2 * ROW_GROUP_ROWS
        result = session.execute(sql)
        assert result.plan == "lookup" and result.jobs == []
        assert sorted(result.rows) == [(k, k * 10) for k in range(9000, 9050)]
        assert result.detail["row_groups"] == plan.row_groups


# ----------------------------------------------------------------------
# Closed int ranges prune by bucket mask: a range is a finite key set.
# ----------------------------------------------------------------------
#: about 10 rows per hash bucket, so a sharded table has one file per
#: bucket and each file's keys span the domain.
RANGE_ROWS = [(k, k * 10, "n%03d" % k) for k in range(640)]

#: ``(predicate, python equivalent)``: inclusive and exclusive bounds,
#: an empty ``lo > hi``, a single key and a range over every bucket.
RANGE_READS = [
    ("k >= 100 AND k <= 112", lambda k: 100 <= k <= 112),
    ("k > 100 AND k < 112", lambda k: 100 < k < 112),
    ("k >= 300 AND k < 301", lambda k: k == 300),
    ("k BETWEEN 77 AND 77", lambda k: k == 77),
    ("k BETWEEN 50 AND 40", lambda k: False),
    ("k > 40 AND k < 41", lambda k: False),
    ("k BETWEEN 0 AND 199", lambda k: 0 <= k <= 199),
    ("k BETWEEN 995 AND 1010", lambda k: 995 <= k <= 1010),
]


def range_keys(predicate):
    """The integers a RANGE_READS predicate admits within any table."""
    return [k for k in range(-10, 1100) if predicate(k)]


class TestKeyedRangeBuckets:
    """Forced LOOKUP equals the forced scan and a ``{k: row}`` model on
    a sharded PRIMARY KEY table, and a closed int range opens only the
    files whose bucket holds one of its keys."""

    @staticmethod
    def check_reads(session, model, pk_dirty=False):
        """Every RANGE_READS statement; unless a delta moved a key
        (``pk_dirty``: its file is read whole), the plan opens at most
        one file per bucket of the range."""
        handler = session.table("t").handler
        for where, predicate in RANGE_READS:
            sql = "SELECT k, v, name FROM t WHERE " + where
            looked, scanned = lookup_vs_scan(session, sql)
            expect = sorted(row for k, row in model.items() if predicate(k))
            assert sorted(looked) == sorted(scanned) == expect, where
            plan = handler.plan_lookup(extract_ranges(parse(sql).where),
                                       hit_faults=False)
            keys = range_keys(predicate)
            buckets = {stable_hash(k) % NUM_BUCKETS for k in keys}
            assert plan.buckets == (len(buckets), NUM_BUCKETS), where
            shard_map = getattr(handler, "shard_map", None)
            if shard_map is not None:       # only the owning shards
                assert plan.shards == tuple(sorted(
                    {shard_map.assignment[ShardMap.bucket_of(k)]
                     for k in keys})), where
            if pk_dirty:
                assert read_whole(handler, plan), where
            elif keys:
                assert len(plan.files) <= len(buckets), where
            else:
                assert plan.files == [] and plan.est_rows == 0, where

    @pytest.mark.parametrize("shards", [None, 4])
    def test_reads_equal_the_scan_and_the_model(self, shards):
        """Before and after a key moves into a range (a sharded table
        rewrites, a plain one reads the PK-dirty file whole) and after
        COMPACT, whose files span buckets."""
        session = keyed_session(shards, rows=RANGE_ROWS, rows_per_file=1000,
                                stripe_rows=64)
        model = {k: (k, v, name) for k, v, name in RANGE_ROWS}
        self.check_reads(session, model)
        session.execute("UPDATE t SET k = 1003 WHERE k = 5")
        model[1003] = (1003, 50, "n005")
        del model[5]
        session.execute("UPDATE t SET v = -1 WHERE k IN (7, 105, 1003)")
        for k in (7, 105, 1003):
            model[k] = (k, -1, model[k][2])
        self.check_reads(session, model, pk_dirty=shards is None)
        session.execute("COMPACT TABLE t")
        handler = session.table("t").handler
        masks = [stripe[4] for shard in handler.shards
                 for entry in index_entries(shard)
                 for stripe in entry["stripes"]]
        assert any(mask.bit_count() > 1 for mask in masks)
        self.check_reads(session, model)

    def test_edit_by_key_update_over_a_range(self):
        statements = ["UPDATE t SET v = 0 WHERE k BETWEEN 100 AND 140",
                      "UPDATE t SET name = 'x' WHERE k > 130 AND k < 150",
                      "DELETE FROM t WHERE k >= 120 AND k <= 125"]
        keyed = keyed_session(4, rows=RANGE_ROWS)
        job = keyed_session(4, rows=RANGE_ROWS, plan="scan")
        keyed_steps, keyed_cells, keyed_rows = run_dml_script(
            keyed, statements)
        job_steps, job_cells, job_rows = run_dml_script(job, statements)
        assert [jobs for _, jobs, _ in keyed_steps] == [0, 0, 0]
        assert [affected for affected, _, _ in keyed_steps] \
            == [affected for affected, _, _ in job_steps] == [41, 19, 6]
        assert keyed_cells == job_cells and keyed_rows == job_rows
        model = {k: (k, 0 if 100 <= k <= 140 else k * 10,
                     "x" if 130 < k < 150 else "n%03d" % k)
                 for k in range(640) if not 120 <= k <= 125}
        assert keyed_rows == sorted(model.values())

    def test_equal_bytes_read_at_every_shard_count(self):
        def charged(shards):
            session = keyed_session(shards, rows=RANGE_ROWS, plan="lookup")
            session.execute("UPDATE t SET v = 1 WHERE k BETWEEN 60 AND 90")
            ledger = session.cluster.ledger
            out = []
            for where, _ in RANGE_READS:
                before = ledger.snapshot()
                rows = session.execute(
                    "SELECT k, v FROM t WHERE " + where).rows
                out.append((rows, ledger.diff(before)["bytes"]))
            return out
        base = charged(1)
        assert any(diff for _, diff in base)
        assert charged(4) == base
        assert charged(8) == base

    def test_string_key_range_stays_unpruned(self):
        session = HiveSession(profile=ClusterProfile.laptop(workers=1))
        session.execute(
            "CREATE TABLE t (k string, v int) PRIMARY KEY (k) STORED AS "
            "DUALTABLE SHARDED BY (k) INTO 4")
        session.load_rows("t", [("k%03d" % i, i) for i in range(200)])
        sql = "SELECT k, v FROM t WHERE k BETWEEN 'k010' AND 'k012'"
        handler = session.table("t").handler
        plan = handler.plan_lookup(
            extract_ranges(parse(sql).where), hit_faults=False)
        assert plan.buckets is None and plan.total_files == NUM_BUCKETS
        # Min/max alone: every file whose keys straddle the range.
        straddling = [entry["path"] for shard in handler.shards
                      for entry in index_entries(shard)
                      if any(plan.pk_range.may_overlap(stripe[1], stripe[2])
                             for stripe in entry["stripes"])]
        assert sorted(f["path"] for f in plan.files) == sorted(straddling)
        assert len(straddling) > 3
        looked, scanned = lookup_vs_scan(session, sql)
        assert sorted(looked) == sorted(scanned) \
            == [("k010", 10), ("k011", 11), ("k012", 12)]

    def test_a_trillion_wide_range_hashes_a_few_hundred_keys(
            self, monkeypatch):
        import repro.core.lookup as lookup
        session = keyed_session(4, rows=RANGE_ROWS)
        handler = session.table("t").handler
        ranges = extract_ranges(parse(
            "SELECT k FROM t WHERE k BETWEEN -5 AND %d" % 10 ** 12).where)
        handler.plan_lookup(ranges, hit_faults=False)   # index cached
        hashed = []
        real = lookup.stable_hashes
        monkeypatch.setattr(lookup, "stable_hashes",
                            lambda keys: hashed.append(len(keys))
                            or real(keys))
        plan = handler.plan_lookup(ranges, hit_faults=False)
        assert plan.buckets == (NUM_BUCKETS, NUM_BUCKETS)
        assert len(plan.files) == plan.total_files
        assert 0 < sum(hashed) <= 512
        assert len(session.execute(
            "SELECT k FROM t WHERE k BETWEEN -5 AND %d" % 10 ** 12).rows) \
            == len(RANGE_ROWS)


class TestLookupVersusScanGate:
    """A seeded mix of PRIMARY KEY point / range / IN reads over a
    table with live deltas, under forced LOOKUP and forced scan: the
    same rows at workers 1 and 4, and the keyed plan at least 20x
    cheaper on simulated p50 latency and 12x on bytes charged."""

    ROWS, QUERIES, MIN_RATIO = 4000, 30, 20
    #: Bytes have their own floor.  Neither plan charges for planning
    #: (planners read metadata), so the ratio is that of the bytes the
    #: scan's tasks and the keyed read take: about 13x (2 414 108
    #: against 186 067 B).  Latency clears 20x because a scan also pays
    #: job startup and a task per file.
    MIN_BYTE_RATIO = 12

    @classmethod
    def queries(cls):
        rng = random.Random(20260808)
        out = []
        for _ in range(cls.QUERIES):
            roll = rng.random()
            if roll < 0.60:
                out.append("SELECT v, name FROM t WHERE k = %d"
                           % rng.randrange(cls.ROWS))
            elif roll < 0.85:
                lo = rng.randrange(cls.ROWS - 10)
                out.append("SELECT v, name FROM t WHERE k BETWEEN %d AND %d"
                           % (lo, lo + rng.randint(1, 10)))
            else:
                keys = sorted({rng.randrange(cls.ROWS)
                               for _ in range(rng.randint(2, 5))})
                out.append("SELECT v, name FROM t WHERE k IN (%s)"
                           % ", ".join(map(str, keys)))
        return out

    def run(self, workers):
        """``{plan: (rows, p50 sim seconds, bytes)}`` on one session."""
        session = build_session(
            rows=[(k, k * 10, "name-%06d" % k) for k in range(self.ROWS)],
            rows_per_file=200, stripe_rows=20, workers=workers, mode="edit")
        session.execute("UPDATE t SET v = -1 WHERE k BETWEEN 100 AND 140")
        session.execute("DELETE FROM t WHERE k BETWEEN 300 AND 305")
        ledger = session.cluster.ledger
        out = {}
        for plan in ("lookup", "scan"):
            session.execute("SET dualtable.plan = %s" % plan)
            rows, seconds, charged = [], [], 0
            for sql in self.queries():
                before = ledger.snapshot()
                result = session.execute(sql)
                charged += sum(ledger.diff(before)["bytes"].values())
                seconds.append(result.sim_seconds)
                rows.append(sorted(result.rows))
            out[plan] = (rows, sorted(seconds)[len(seconds) // 2], charged)
        return out

    def test_same_rows_and_twenty_fold_cheaper(self):
        runs = {workers: self.run(workers) for workers in (1, 4)}
        assert runs[1] == runs[4]
        (looked, lookup_p50, lookup_bytes), (scanned, scan_p50, scan_bytes) \
            = runs[1]["lookup"], runs[1]["scan"]
        assert looked == scanned
        assert scan_p50 >= self.MIN_RATIO * lookup_p50 > 0
        assert scan_bytes >= self.MIN_BYTE_RATIO * lookup_bytes > 0


class TestKeyedObservability:
    def test_explain_update_prints_the_keyed_plan(self):
        session = keyed_session(4)
        text = "\n".join(row[0] for row in session.execute(
            "EXPLAIN UPDATE t SET v = 1 WHERE k IN (5, 6)").rows)
        assert "EDIT-by-key (PRIMARY KEY k bounds the WHERE)" in text
        assert "symptom:" in text and "evidence:" in text
        assert "candidate files 2 of" in text and "stripes 2 of" in text
        assert "row groups 2 of" in text
        assert "expected gain:" in text
        assert "plan: edit-by-key (no MapReduce job)" in text
        assert attached_cells(session) == []            # not executed

    def test_explain_prints_the_buckets_of_a_key_set(self):
        """A key set (an IN list, a closed int range) names its
        buckets in the eligibility block and the evidence line."""
        session = keyed_session(4)
        buckets = len({stable_hash(k) % NUM_BUCKETS for k in range(5, 9)})

        def explain(sql):
            return [row[0].strip() for row in
                    session.execute("EXPLAIN " + sql).rows]
        lines = explain("SELECT v FROM t WHERE k >= 5 AND k < 9")
        assert any(line.startswith("candidate files:") and line.endswith(
            "row(s)), buckets %d of 64" % buckets) for line in lines)
        lines = explain("UPDATE t SET v = 1 WHERE k BETWEEN 5 AND 8")
        assert any(line.startswith("evidence:") and (
            "buckets %d of 64; keyed read" % buckets) in line
            for line in lines)
        assert any(line.endswith("buckets 1 of 64") for line in
                   explain("SELECT v FROM t WHERE k IN (5)"))
        session.execute(
            "CREATE TABLE s (k string, v int) PRIMARY KEY (k) STORED AS "
            "DUALTABLE")
        session.load_rows("s", [("a", 1), ("b", 2)])
        text = "\n".join(explain(
            "SELECT v FROM s WHERE k BETWEEN 'a' AND 'b'"))
        assert "candidate files:" in text and "buckets" not in text

    def test_explain_delete_under_forced_scan_says_job(self):
        session = keyed_session(plan="scan")
        text = "\n".join(row[0] for row in session.execute(
            "EXPLAIN DELETE FROM t WHERE k BETWEEN 3 AND 9").rows)
        assert "plan: job (forced by dualtable.plan)" in text
        assert "expected gain" not in text

    def test_explain_analyze_audits_the_keyed_read(self):
        session = keyed_session()
        text = "\n".join(row[0] for row in session.execute(
            "EXPLAIN ANALYZE UPDATE t SET v = 1 WHERE k = 5").rows)
        assert "0 job(s)" in text
        assert "phase dualtable:edit-by-key" in text
        assert "cost-model audit: plan=edit_by_key" in text

    def test_over_limit_dml_counts_as_a_lookup_eligible_scan(self):
        """A PK-bounded write or read too wide for
        ``dualtable.lookup.max_rows`` runs its scan and feeds the
        advisor's existing finding: one rule for both."""
        from repro.advisor import WorkloadAdvisor
        session = build_session(
            mode="edit", extra_props=", 'dualtable.lookup.max_rows' = '20'")
        for _ in range(6):
            result = session.execute(
                "UPDATE t SET v = v + 1 WHERE k BETWEEN 10 AND 80")
            assert len(result.jobs) == 1 and result.affected == 71
        counters = session.cluster.metrics.counters
        assert counters["dualtable.plan.lookup_eligible_scan.t"] == 6
        session.execute("UPDATE t SET v = 0 WHERE v < 0")    # no PK bound
        assert counters["dualtable.plan.lookup_eligible_scan.t"] == 6
        result = session.execute("SELECT v FROM t WHERE k BETWEEN 10 AND 80")
        assert len(result.rows) == 71 and result.plan != "lookup"
        assert counters["dualtable.plan.lookup_eligible_scan.t"] == 7
        session.execute("SELECT v FROM t WHERE v < 0")       # no PK bound
        session.execute("SELECT count(*) FROM t WHERE k = 3")  # a shuffle
        assert counters["dualtable.plan.lookup_eligible_scan.t"] == 7
        findings = WorkloadAdvisor(session).analyze()
        assert "lookup-eligible-scan" in {f.code for f in findings}
