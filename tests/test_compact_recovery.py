"""Crash-safe COMPACT, COMPACT PARTIAL and REBALANCE (the manifest 2PC
of :mod:`repro.core.manifest`) and atomic DML commits."""

import json

import pytest

from repro.common.errors import FaultInjectedError, ReproError
from repro.core.store import FULL_COMPACT, PARTIAL_COMPACT
from repro.faults import Fault, FaultPlan
from repro.shard.sharded import rebalance_kind

COMPACT_POINTS = FULL_COMPACT.steps
PARTIAL_POINTS = PARTIAL_COMPACT.steps
REBALANCE_POINTS = rebalance_kind(4).steps


def make_dualtable(session, n=60, rows_per_file=15):
    session.execute(
        "CREATE TABLE dt (id int, day string, amount double, tag string) "
        "STORED AS DUALTABLE TBLPROPERTIES ('dualtable.mode' = 'edit', "
        "'orc.rows_per_file' = '%d', 'orc.stripe_rows' = '5')"
        % rows_per_file)
    rows = [(i, "2013-07-%02d" % (1 + i % 20), float(i), "t%d" % (i % 3))
            for i in range(n)]
    session.load_rows("dt", rows)
    return session.table("dt").handler


def _select_all(session):
    with session.cluster.faults.paused():
        return session.execute("SELECT * FROM dt ORDER BY id").rows


def _dirty(session):
    """Leave edits in the attached table so COMPACT has work to do."""
    session.execute("UPDATE dt SET tag = 'upd' WHERE id < 20")
    session.execute("DELETE FROM dt WHERE id >= 50")


class TestCompactCrashRecovery:
    @pytest.mark.parametrize("point", COMPACT_POINTS)
    def test_kill_at_each_point_then_recover(self, session, point):
        handler = make_dualtable(session)
        _dirty(session)
        expect = _select_all(session)
        session.cluster.faults.install(FaultPlan([
            Fault(point, nth_hit=1, kind="kill")]))
        with pytest.raises(ReproError):
            session.execute("COMPACT TABLE dt")
        with session.cluster.faults.paused():
            handler.recover()
        assert _select_all(session) == expect
        session.cluster.faults.uninstall()
        # Table stays fully usable after recovery.
        session.execute("UPDATE dt SET tag = 'post' WHERE id = 0")
        assert session.execute(
            "SELECT tag FROM dt WHERE id = 0").scalar() == "post"

    @pytest.mark.parametrize("point", COMPACT_POINTS)
    def test_recover_twice_is_idempotent(self, session, point):
        handler = make_dualtable(session)
        _dirty(session)
        session.cluster.faults.install(FaultPlan([
            Fault(point, nth_hit=1, kind="kill")]))
        with pytest.raises(ReproError):
            session.execute("COMPACT TABLE dt")
        session.cluster.faults.uninstall()
        handler.recover()
        files_once = sorted(handler.master.file_paths())
        rows_once = _select_all(session)
        handler.recover()
        assert sorted(handler.master.file_paths()) == files_once
        assert _select_all(session) == rows_once

    def test_pre_manifest_crash_rolls_back(self, session):
        """Before the manifest exists the old master must survive."""
        handler = make_dualtable(session)
        _dirty(session)
        files_before = sorted(handler.master.file_paths())
        session.cluster.faults.install(FaultPlan([
            Fault("dualtable.compact.write", nth_hit=1, kind="kill")]))
        with pytest.raises(ReproError):
            session.execute("COMPACT TABLE dt")
        session.cluster.faults.uninstall()
        outcome = handler.recover()
        assert outcome["compact"] in ("rolled_back", "clean")
        assert sorted(handler.master.file_paths()) == files_before
        # Edits survived the rollback: they are still in the attached.
        assert not handler.attached.is_empty()

    def test_post_manifest_crash_rolls_forward(self, session):
        """Once the manifest is durable the compaction completes."""
        handler = make_dualtable(session)
        _dirty(session)
        expect = _select_all(session)
        session.cluster.faults.install(FaultPlan([
            Fault("dualtable.compact.swap", nth_hit=1, kind="kill")]))
        with pytest.raises(ReproError):
            session.execute("COMPACT TABLE dt")
        session.cluster.faults.uninstall()
        outcome = handler.recover()
        assert outcome["compact"] == "rolled_forward"
        assert _select_all(session) == expect
        assert handler.attached.is_empty()

    def test_next_statement_auto_recovers(self, session):
        """A crashed COMPACT must not wedge the table: the next
        statement recovers implicitly via _ensure_recovered."""
        make_dualtable(session)
        _dirty(session)
        expect = _select_all(session)
        session.cluster.faults.install(FaultPlan([
            Fault("dualtable.compact.truncate", nth_hit=1, kind="kill")]))
        with pytest.raises(ReproError):
            session.execute("COMPACT TABLE dt")
        session.cluster.faults.uninstall()
        # No explicit recover() — just keep using the table.
        assert session.execute(
            "SELECT * FROM dt ORDER BY id").rows == expect


class TestPartialCompactCrashRecovery:
    @pytest.mark.parametrize("point", PARTIAL_POINTS)
    def test_kill_at_each_point_then_recover(self, session, point):
        handler = make_dualtable(session)
        _dirty(session)
        expect = _select_all(session)
        session.cluster.faults.install(FaultPlan([
            Fault(point, nth_hit=1, kind="kill")]))
        with pytest.raises(ReproError):
            session.execute("COMPACT TABLE dt PARTIAL")
        with session.cluster.faults.paused():
            handler.recover()
        assert _select_all(session) == expect
        session.cluster.faults.uninstall()
        session.execute("UPDATE dt SET tag = 'post' WHERE id = 0")
        assert session.execute(
            "SELECT tag FROM dt WHERE id = 0").scalar() == "post"

    @pytest.mark.parametrize("point", PARTIAL_POINTS)
    def test_recover_twice_is_idempotent(self, session, point):
        handler = make_dualtable(session)
        _dirty(session)
        session.cluster.faults.install(FaultPlan([
            Fault(point, nth_hit=1, kind="kill")]))
        with pytest.raises(ReproError):
            session.execute("COMPACT TABLE dt PARTIAL")
        session.cluster.faults.uninstall()
        handler.recover()
        files_once = sorted(handler.master.file_paths())
        rows_once = _select_all(session)
        handler.recover()
        assert sorted(handler.master.file_paths()) == files_once
        assert _select_all(session) == rows_once

    def test_pre_manifest_crash_rolls_back(self, session):
        handler = make_dualtable(session)
        _dirty(session)
        files_before = sorted(handler.master.file_paths())
        deltas_before = handler.attached.size_bytes
        session.cluster.faults.install(FaultPlan([
            Fault("dualtable.compact.partial.write",
                  nth_hit=1, kind="kill")]))
        with pytest.raises(ReproError):
            session.execute("COMPACT TABLE dt PARTIAL")
        session.cluster.faults.uninstall()
        outcome = handler.recover()
        assert outcome["compact"] in ("rolled_back", "clean")
        assert sorted(handler.master.file_paths()) == files_before
        assert handler.attached.size_bytes == deltas_before

    def test_post_manifest_crash_rolls_forward(self, session):
        handler = make_dualtable(session)
        _dirty(session)
        expect = _select_all(session)
        session.cluster.faults.install(FaultPlan([
            Fault("dualtable.compact.partial.swap",
                  nth_hit=1, kind="kill")]))
        with pytest.raises(ReproError):
            session.execute("COMPACT TABLE dt PARTIAL")
        session.cluster.faults.uninstall()
        outcome = handler.recover()
        assert outcome["compact"] == "rolled_forward"
        assert _select_all(session) == expect
        # Partial fold: every victim's deltas dropped, table readable.
        assert handler.attached.is_empty()

    def test_max_files_keeps_other_deltas(self, session):
        """PARTIAL 1 folds only the densest file; the rest keep their
        deltas and the merged view is unchanged."""
        handler = make_dualtable(session)
        _dirty(session)
        expect = _select_all(session)
        result = session.execute("COMPACT TABLE dt PARTIAL 1")
        assert result.detail["mode"] == "partial"
        assert result.detail["files"] == 1
        assert not handler.attached.is_empty()
        assert _select_all(session) == expect
        # A second unbounded pass folds the remainder.
        result = session.execute("COMPACT TABLE dt PARTIAL")
        assert result.detail["mode"] == "partial"
        assert handler.attached.is_empty()
        assert _select_all(session) == expect

    def test_retryable_crash_mid_delta_drop_self_heals(self, session):
        """A non-fatal fault inside clear_file's hbase deletes re-enters
        the commit via run_with_retries; the manifest resume guard must
        finish phase 2 instead of double-applying the swap."""
        handler = make_dualtable(session)
        _dirty(session)
        expect = _select_all(session)
        session.cluster.faults.install(FaultPlan([
            Fault("hbase.delete", nth_hit=1, kind="crash")]))
        result = session.execute("COMPACT TABLE dt PARTIAL")
        session.cluster.faults.uninstall()
        assert result.detail["mode"] == "partial"
        assert _select_all(session) == expect
        assert handler.attached.is_empty()

    def test_chaos_schedule_converges(self, session):
        """Random kills across every partial fault point, recovering
        after each, never lose or duplicate a row."""
        handler = make_dualtable(session)
        _dirty(session)
        expect = _select_all(session)
        for i, point in enumerate(PARTIAL_POINTS):
            session.cluster.faults.install(FaultPlan([
                Fault(point, nth_hit=1, kind="kill")]))
            with pytest.raises(ReproError):
                session.execute("COMPACT TABLE dt PARTIAL 1")
            session.cluster.faults.uninstall()
            handler.recover()
            assert _select_all(session) == expect
            # Re-dirty so the next iteration has work to crash on.
            session.execute("UPDATE dt SET tag = 'c%d' WHERE id = %d"
                            % (i, i))
            expect = _select_all(session)
        session.execute("COMPACT TABLE dt PARTIAL")
        assert _select_all(session) == expect


def make_sharded(session):
    """A 4-shard PRIMARY KEY table with deltas on three shards and one
    hot shard, so REBALANCE has a bucket to move and folds to run."""
    session.execute(
        "CREATE TABLE t (k int, v int, PRIMARY KEY (k)) STORED AS DUALTABLE "
        "SHARDED BY (k) INTO 4 TBLPROPERTIES ('orc.rows_per_file' = '12', "
        "'orc.stripe_rows' = '6')")
    session.load_rows("t", [(i, i * 10) for i in range(48)])
    session.execute("UPDATE t SET v = v + 1 WHERE k IN (3, 17, 40)")
    session.execute("SET dualtable.plan = lookup")
    for _ in range(6):
        session.execute("SELECT v FROM t WHERE k = 17")
    session.execute("SET dualtable.plan = cost")
    return session.table("t").handler


def _setup(session, table):
    if table == "t":
        return make_sharded(session)
    handler = make_dualtable(session)
    _dirty(session)
    return handler


def _state(session, handler, table):
    """Rows, master files and the shard map: what recovery may change."""
    key = "id" if table == "dt" else "k"
    with session.cluster.faults.paused():
        rows = session.execute(
            "SELECT * FROM %s ORDER BY %s" % (table, key)).rows
    shard_map = getattr(handler, "shard_map", None)
    return (rows, sorted(path for shard in handler.shards
                         for path in shard.master.file_paths()),
            shard_map and list(shard_map.assignment))


def _leftover_protocol_paths(session, handler):
    protocols = [shard.compaction for shard in handler.shards]
    if hasattr(handler, "rebalancing"):
        protocols.append(handler.rebalancing)
    return [path for protocol in protocols for path in protocol.paths
            if session.fs.exists(path)]


#: ``(point, table, sql, nth_hit)``.  A sharded COMPACT is one job,
#: then one manifest 2PC per store: its second hit of a step kills the
#: second store's commit after the first store's has finished.
EVERY_STEP = ([(point, "dt", "COMPACT TABLE dt", 1)
               for point in COMPACT_POINTS]
              + [(point, "dt", "COMPACT TABLE dt PARTIAL", 1)
                 for point in PARTIAL_POINTS]
              + [(point, "t", "ALTER TABLE t REBALANCE", 1)
                 for point in REBALANCE_POINTS]
              + [(point, "t", "COMPACT TABLE t", nth)
                 for point in COMPACT_POINTS for nth in (1, 2)]
              + [(point, "t", "COMPACT TABLE t PARTIAL", nth)
                 for point in PARTIAL_POINTS for nth in (1, 2)])


class TestEveryDeclaredStep:
    """Every declared step of the three manifest 2PC protocols."""

    @pytest.mark.parametrize(
        "point, table, sql, nth_hit", EVERY_STEP,
        ids=[point if table == "dt" or sql.startswith("ALTER")
             else "sharded-%s-hit%d" % (point, nth)
             for point, table, sql, nth in EVERY_STEP])
    def test_kill_then_recover_twice(self, session, point, table, sql,
                                     nth_hit):
        handler = _setup(session, table)
        expect = _state(session, handler, table)[0]
        session.cluster.faults.install(FaultPlan([
            Fault(point, nth_hit=nth_hit, kind="kill")]))
        with pytest.raises(FaultInjectedError):
            session.execute(sql)
        session.cluster.faults.uninstall()
        handler.recover()
        once = _state(session, handler, table)
        assert once[0] == expect
        handler.recover()
        assert _state(session, handler, table) == once
        assert _leftover_protocol_paths(session, handler) == []

    @pytest.mark.parametrize("point", REBALANCE_POINTS)
    def test_retryable_crash_at_rebalance_step_self_heals(self, session,
                                                         point):
        handler = make_sharded(session)
        expect = _state(session, handler, "t")[0]
        faults = session.cluster.faults
        faults.install(FaultPlan([Fault(point, nth_hit=1, kind="crash")]))
        result = session.execute("ALTER TABLE t REBALANCE")
        spills = faults.hit_count(REBALANCE_POINTS[0])
        faults.uninstall()
        assert result.plan == "rebalance"
        assert handler.shard_map.assignment[result.detail["bucket"]] \
            == result.detail["dst"]
        assert _state(session, handler, "t")[0] == expect
        assert _leftover_protocol_paths(session, handler) == []
        assert handler.shard_heats() == [0] * 4
        if REBALANCE_POINTS.index(point) >= 2:
            # Past the commit point the retry resumed apply from the
            # manifest; phase 1 was not rebuilt.
            assert spills == 1

    @pytest.mark.parametrize("table, path, manifest", [
        ("dt", "/warehouse/dt/compact.manifest", {"table": "dt"}),
        ("dt", "/warehouse/dt/compact.manifest",
         {"table": "dt", "mode": "partial"}),
        ("t", "/warehouse/t/rebalance.manifest",
         {"table": "t", "mode": "rebalance", "bucket": 0, "src": 0,
          "dst": 1, "assignment": [7] * 64,
          "keep": "/warehouse/t/__rebalance__/keep.json",
          "dest": "/warehouse/t/__rebalance__/dest.json"}),
    ], ids=["full", "partial", "rebalance"])
    def test_invalid_manifest_rolls_back(self, session, table, path,
                                         manifest):
        """A manifest that parses but fails its kind's field checks is
        torn: recovery rolls it back instead of applying it."""
        handler = _setup(session, table)
        expect = _state(session, handler, table)
        session.fs.write_file(path, json.dumps(manifest).encode("utf-8"))
        outcome = handler.recover()
        assert outcome["rebalance" if table == "t" else "compact"] \
            == "rolled_back"
        assert _state(session, handler, table) == expect
        assert _leftover_protocol_paths(session, handler) == []


class TestDmlCrashRecovery:
    def test_stage_kill_rolls_back(self, session):
        """A crash before the redo log is durable publishes nothing."""
        handler = make_dualtable(session)
        before = _select_all(session)
        session.cluster.faults.install(FaultPlan([
            Fault("dualtable.dml.stage", nth_hit=1, kind="kill")]))
        with pytest.raises(FaultInjectedError):
            session.execute("UPDATE dt SET tag = 'lost' WHERE id < 30")
        session.cluster.faults.uninstall()
        outcome = handler.recover()
        assert all(o != "rolled_forward" for _, o in outcome["dml"])
        assert _select_all(session) == before
        assert handler.attached.is_empty()

    def test_publish_kill_rolls_forward(self, session):
        """Once the redo log is durable the edit is committed."""
        handler = make_dualtable(session)
        session.cluster.faults.install(FaultPlan([
            Fault("dualtable.dml.publish", nth_hit=1, kind="kill")]))
        with pytest.raises(FaultInjectedError):
            session.execute("UPDATE dt SET tag = 'won' WHERE id < 30")
        session.cluster.faults.uninstall()
        outcome = handler.recover()
        assert any(o == "rolled_forward" for _, o in outcome["dml"])
        assert session.execute(
            "SELECT count(*) FROM dt WHERE tag = 'won'").scalar() == 30

    def test_dml_recovery_is_idempotent(self, session):
        handler = make_dualtable(session)
        session.cluster.faults.install(FaultPlan([
            Fault("dualtable.dml.publish", nth_hit=1, kind="kill")]))
        with pytest.raises(FaultInjectedError):
            session.execute("DELETE FROM dt WHERE id >= 40")
        session.cluster.faults.uninstall()
        handler.recover()
        rows_once = _select_all(session)
        handler.recover()
        assert _select_all(session) == rows_once
        assert session.execute("SELECT count(*) FROM dt").scalar() == 40

    def test_retryable_crash_mid_publish_self_heals(self, session):
        """A non-fatal crash during publish is retried in-statement."""
        make_dualtable(session)
        session.cluster.faults.install(FaultPlan([
            Fault("dualtable.dml.publish", nth_hit=1, kind="crash")]))
        result = session.execute("UPDATE dt SET tag = 'ok' WHERE id < 10")
        session.cluster.faults.uninstall()
        assert result.affected == 10
        assert session.execute(
            "SELECT count(*) FROM dt WHERE tag = 'ok'").scalar() == 10

    def test_no_acked_edit_lost_across_region_crash(self, session):
        """Acked DML survives a region-server crash (WAL replay)."""
        make_dualtable(session)
        session.execute("UPDATE dt SET tag = 'acked' WHERE id < 25")
        session.hbase.crash_region_server()
        assert session.execute(
            "SELECT count(*) FROM dt WHERE tag = 'acked'").scalar() == 25
