"""Strict cache invalidation: a cached read is never stale.

The ORC footer/stripe cache and the Attached-Table delta-range cache
trade wall-clock time only; every mutation of the backing store must
drop the affected entries.  Each test warms the caches with a read,
mutates through a different path (EDIT commit, COMPACT, INSERT
OVERWRITE, region-server crash mid-statement), reads again, and checks
the answer against ``fresh_rows`` — the same query re-run with every
cache forcibly emptied.  Cached == fresh is the staleness oracle.

A delta write (``put_update`` / ``put_delete``) drops the cache entries
of the one master file its record id names; everything coarser —
``clear``, ``clear_file``, HBase ``compact``, a region crash — still
drops the table's group or the whole cache (INTERNALS §6).  That is why
the ``cache.delta.*`` counters moved with per-file invalidation (more
hits, fewer invalidations): they are outside the identity contract.
Everything else in the fingerprint (``repro.shard.identity``: rows,
ledger bytes / ops / seconds, non-cache counters) is unchanged, because
a hit replays the charges its miss recorded.
"""

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import ReproError
from repro.core import encode_record_id
from repro.faults import Fault, FaultPlan
from repro.hbase import HTable
from repro.hive import HiveSession
from repro.shard.identity import identity_fingerprint

ROWS = [(i, i * 10) for i in range(40)]


def build_session(workers=1, mode="edit", rows=ROWS, rows_per_file=10):
    session = HiveSession(profile=ClusterProfile.laptop(workers=workers))
    session.execute(
        "CREATE TABLE t (k int, v int) STORED AS dualtable "
        "TBLPROPERTIES ('orc.rows_per_file' = '%d', "
        "'dualtable.mode' = '%s')" % (rows_per_file, mode))
    session.load_rows("t", rows)
    return session


def select_all(session):
    return session.execute("SELECT k, v FROM t ORDER BY k").rows


def fresh_rows(session):
    """The same read with every cache dropped — the staleness oracle."""
    session.cluster.orc_cache.clear()
    session.cluster.delta_cache.clear()
    return select_all(session)


class TestCacheWarming:
    def test_repeated_select_hits_both_caches(self):
        session = build_session()
        first = select_all(session)
        counters = session.cluster.metrics.counters
        orc_hits = counters.get("cache.orc.hits", 0)
        delta_hits = counters.get("cache.delta.hits", 0)
        second = select_all(session)
        assert second == first
        assert counters["cache.orc.hits"] > orc_hits
        assert counters["cache.delta.hits"] > delta_hits

    def test_cache_hits_do_not_change_simulated_seconds(self):
        session = build_session()
        cold = session.execute("SELECT k, v FROM t ORDER BY k")
        warm = session.execute("SELECT k, v FROM t ORDER BY k")
        assert warm.sim_seconds == cold.sim_seconds

    def test_zero_budget_disables_caching(self):
        session = HiveSession(profile=ClusterProfile.laptop(
            orc_cache_bytes=0, delta_cache_bytes=0))
        session.execute("CREATE TABLE t (k int, v int) STORED AS "
                        "dualtable TBLPROPERTIES "
                        "('orc.rows_per_file' = '10')")
        session.load_rows("t", ROWS)
        first = select_all(session)
        assert select_all(session) == first
        counters = session.cluster.metrics.counters
        assert counters.get("cache.orc.hits", 0) == 0
        assert counters.get("cache.delta.hits", 0) == 0


@pytest.mark.parametrize("workers", [1, 4])
class TestInvalidationPaths:
    def test_read_after_edit_commit(self, workers):
        session = build_session(workers=workers)
        select_all(session)                       # warm
        session.execute("UPDATE t SET v = 7 WHERE k < 15")
        expect = sorted((k, 7 if k < 15 else v) for k, v in ROWS)
        assert select_all(session) == expect
        assert fresh_rows(session) == expect
        counters = session.cluster.metrics.counters
        assert counters["cache.delta.invalidations"] > 0

    def test_read_after_delete_commit(self, workers):
        session = build_session(workers=workers)
        select_all(session)
        session.execute("DELETE FROM t WHERE k >= 30")
        expect = sorted((k, v) for k, v in ROWS if k < 30)
        assert select_all(session) == expect
        assert fresh_rows(session) == expect

    def test_read_after_compact(self, workers):
        session = build_session(workers=workers)
        session.execute("UPDATE t SET v = 1 WHERE k < 20")
        select_all(session)                       # warm on deltas
        session.execute("COMPACT TABLE t")
        handler = session.table("t").handler
        assert handler.attached.is_empty()
        expect = sorted((k, 1 if k < 20 else v) for k, v in ROWS)
        assert select_all(session) == expect
        assert fresh_rows(session) == expect

    def test_read_after_insert_overwrite(self, workers):
        session = build_session(workers=workers)
        select_all(session)                       # warm on the old files
        session.execute("INSERT OVERWRITE TABLE t "
                        "VALUES (1, 100), (2, 200)")
        assert select_all(session) == [(1, 100), (2, 200)]
        assert fresh_rows(session) == [(1, 100), (2, 200)]

    def test_read_after_insert_append(self, workers):
        session = build_session(workers=workers)
        select_all(session)
        session.execute("INSERT INTO t VALUES (900, 9000)")
        expect = sorted(ROWS + [(900, 9000)])
        assert select_all(session) == expect
        assert fresh_rows(session) == expect


class TestMidStatementInvalidation:
    def test_region_crash_mid_update_never_leaves_stale_entries(self):
        """A region-server crash fired from inside an UPDATE's commit
        wipes the delta cache (cached recorders embed pre-crash
        charges); after recovery the cached read equals the uncached
        one, whichever way the statement resolved."""
        session = build_session()
        before = select_all(session)              # warm
        faults = session.cluster.faults
        faults.install(FaultPlan([
            Fault("hbase.put", nth_hit=2, kind="region_crash")]))
        # The crash may be absorbed by task retry (statement commits)
        # or surface (statement rolls forward or back on recover) —
        # staleness must be impossible either way.
        try:
            session.execute("UPDATE t SET v = 5 WHERE k < 25")
        except ReproError:
            pass
        handler = session.table("t").handler
        with faults.paused():
            handler.recover()
            after = select_all(session)
        faults.install(None)
        updated = sorted((k, 5 if k < 25 else v) for k, v in ROWS)
        assert after in (before, updated)         # atomic either way
        assert after == fresh_rows(session)
        counters = session.cluster.metrics.counters
        assert counters["cache.delta.invalidations"] > 0

    def test_direct_region_crash_clears_delta_cache(self):
        session = build_session()
        session.execute("UPDATE t SET v = 3 WHERE k < 10")
        select_all(session)                       # cache delta ranges
        cache = session.cluster.delta_cache
        assert len(cache) > 0
        handler = session.table("t").handler
        handler.attached._service.crash_region_server()
        assert len(cache) == 0
        expect = sorted((k, 3 if k < 10 else v) for k, v in ROWS)
        # WAL replay restores the acknowledged deltas; no stale reads.
        assert select_all(session) == expect
        assert fresh_rows(session) == expect


class TestStripeIndexInvalidation:
    """The LOOKUP plan's stripe min/max index lives in the delta cache
    keyed by the attached table's name, so every invalidation path that
    protects delta ranges must protect it too.  Each test warms the
    index with a point LOOKUP, mutates through one path, and re-checks
    the lookup answer against the same query with every cache dropped."""

    ROWS3 = [(i, i * 10, "s%02d" % i) for i in range(40)]

    def build(self, workers=1):
        session = HiveSession(
            profile=ClusterProfile.laptop(workers=workers))
        session.execute(
            "CREATE TABLE t (k int, v int, s string, PRIMARY KEY (k)) "
            "STORED AS dualtable TBLPROPERTIES "
            "('orc.rows_per_file' = '10', 'orc.stripe_rows' = '5', "
            "'dualtable.mode' = 'edit')")
        session.load_rows("t", self.ROWS3)
        return session

    def point(self, session, k):
        session.execute("SET dualtable.plan = lookup")
        try:
            return session.execute(
                "SELECT k, v, s FROM t WHERE k = %d" % k).rows
        finally:
            session.execute("SET dualtable.plan = cost")

    def fresh_point(self, session, k):
        session.cluster.orc_cache.clear()
        session.cluster.delta_cache.clear()
        return self.point(session, k)

    def warmed(self, session, expect=(17, 170, "s17")):
        rows = self.point(session, 17)
        assert rows == [expect]
        cache = session.cluster.delta_cache
        assert any(key[1] == "stripe-index" for key in cache._entries)
        return cache

    def test_index_survives_cacheable_rereads(self):
        session = self.build()
        self.warmed(session)
        assert self.point(session, 17) == [(17, 170, "s17")]

    def test_index_dropped_by_dml(self):
        session = self.build()
        self.warmed(session)
        session.execute("UPDATE t SET v = -1 WHERE k = 17")
        assert self.point(session, 17) == [(17, -1, "s17")]
        assert self.fresh_point(session, 17) == [(17, -1, "s17")]

    def test_index_dropped_by_pk_moving_update(self):
        """After ``SET k = ...`` the warmed index's pruning verdicts are
        only safe because the assigned-column probe is re-run — the moved row
        must be found at its new key and gone from its old one."""
        session = self.build()
        self.warmed(session)
        session.execute("UPDATE t SET k = 900 WHERE k = 17")
        assert self.point(session, 900) == [(900, 170, "s17")]
        assert self.point(session, 17) == []
        assert self.fresh_point(session, 900) == [(900, 170, "s17")]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_pk_moving_update_reprobes_that_file_only(self, workers):
        session = self.build(workers=workers)
        session.execute("UPDATE t SET v = v + 1 WHERE k IN (7, 17)")
        assert self.point(session, 17) == [(17, 171, "s17")]
        handler = session.table("t").handler
        first, second = file_ids(handler)[:2]             # hold k=7, k=17

        def probe(file_id):
            return {key: value for key, value
                    in entries_of(session, file_id).items()
                    if key[3] == "assigned"}

        assert list(probe(first).values()) == [{1}]
        assert list(probe(second).values()) == [{1}]
        session.execute("UPDATE t SET k = 900 WHERE k = 17")
        assert list(probe(first).values()) == [{1}]        # kept
        assert probe(second) == {}                         # dropped
        assert self.point(session, 900) == [(900, 171, "s17")]
        assert list(probe(second).values()) == [{0, 1}]    # re-run
        assert self.point(session, 17) == []
        assert self.fresh_point(session, 900) == [(900, 171, "s17")]

    def test_index_dropped_by_compact(self):
        session = self.build()
        session.execute("UPDATE t SET v = 1 WHERE k < 20")
        self.warmed(session, expect=(17, 1, "s17"))
        session.execute("COMPACT TABLE t")
        assert self.point(session, 17) == [(17, 1, "s17")]
        assert self.fresh_point(session, 17) == [(17, 1, "s17")]

    def test_index_dropped_by_insert_overwrite(self):
        session = self.build()
        self.warmed(session)
        session.execute("INSERT OVERWRITE TABLE t "
                        "VALUES (17, 5, 'new'), (99, 6, 'other')")
        assert self.point(session, 17) == [(17, 5, "new")]
        assert self.fresh_point(session, 17) == [(17, 5, "new")]

    def test_index_dropped_by_region_crash(self):
        session = self.build()
        session.execute("UPDATE t SET v = 2 WHERE k = 17")
        cache = self.warmed(session, expect=(17, 2, "s17"))
        session.hbase.crash_region_server()
        assert len(cache) == 0            # whole cache, index included
        # WAL replay restores the delta; the rebuilt index must agree.
        assert self.point(session, 17) == [(17, 2, "s17")]
        assert self.fresh_point(session, 17) == [(17, 2, "s17")]


class TestOverlayInvalidation:
    """The memoized DeltaOverlay (INTERNALS §14) lives in the delta
    cache keyed ``(table, backend, file_id, "deltas")``, so every
    invalidation path that protects delta ranges must drop it too.
    Each test warms the overlay with a scan, mutates through one path,
    and re-checks the cached answer against the all-caches-dropped
    oracle."""

    def build(self, workers=1):
        session = build_session(workers=workers, mode="edit")
        session.execute("UPDATE t SET v = -5 WHERE k = 3")
        return session

    def warmed(self, session):
        select_all(session)
        cache = session.cluster.delta_cache
        assert any(len(key) == 4 and key[3] == "deltas"
                   for key in cache._entries)
        return cache

    def test_overlay_cached_and_reused(self):
        session = self.build()
        self.warmed(session)
        counters = session.cluster.metrics.counters
        hits = counters.get("cache.delta.hits", 0)
        expect = sorted((k, -5 if k == 3 else v) for k, v in ROWS)
        assert select_all(session) == expect
        assert counters["cache.delta.hits"] > hits

    def test_overlay_dropped_by_dml(self):
        session = self.build()
        self.warmed(session)
        session.execute("UPDATE t SET v = 9 WHERE k < 5")
        expect = sorted((k, 9 if k < 5 else v) for k, v in ROWS)
        assert select_all(session) == expect
        assert fresh_rows(session) == expect

    def test_overlay_dropped_by_delete(self):
        session = self.build()
        self.warmed(session)
        session.execute("DELETE FROM t WHERE k = 3")
        expect = sorted((k, v) for k, v in ROWS if k != 3)
        assert select_all(session) == expect
        assert fresh_rows(session) == expect

    def test_overlay_dropped_by_compact(self):
        session = self.build()
        self.warmed(session)
        session.execute("COMPACT TABLE t")
        expect = sorted((k, -5 if k == 3 else v) for k, v in ROWS)
        assert select_all(session) == expect
        assert fresh_rows(session) == expect

    def test_overlay_dropped_by_insert_overwrite(self):
        session = self.build()
        self.warmed(session)
        session.execute("INSERT OVERWRITE TABLE t VALUES (1, 100)")
        assert select_all(session) == [(1, 100)]
        assert fresh_rows(session) == [(1, 100)]

    def test_overlay_dropped_by_region_crash(self):
        session = self.build()
        cache = self.warmed(session)
        session.hbase.crash_region_server()
        assert len(cache) == 0
        expect = sorted((k, -5 if k == 3 else v) for k, v in ROWS)
        # WAL replay restores the delta; the rebuilt overlay must agree.
        assert select_all(session) == expect
        assert fresh_rows(session) == expect

    def test_overlay_identical_under_zero_budget(self):
        """With caching disabled the overlay is rebuilt per read —
        results and simulated seconds cannot depend on the cache."""
        cached = self.build()
        uncached = HiveSession(profile=ClusterProfile.laptop(
            orc_cache_bytes=0, delta_cache_bytes=0))
        uncached.execute(
            "CREATE TABLE t (k int, v int) STORED AS dualtable "
            "TBLPROPERTIES ('orc.rows_per_file' = '10', "
            "'dualtable.mode' = 'edit')")
        uncached.load_rows("t", ROWS)
        uncached.execute("UPDATE t SET v = -5 WHERE k = 3")
        a = cached.execute("SELECT k, v FROM t ORDER BY k")
        b = uncached.execute("SELECT k, v FROM t ORDER BY k")
        assert a.rows == b.rows
        assert a.sim_seconds == b.sim_seconds


def file_ids(handler):
    return [handler.master.file_id_of(path)
            for path in handler.master.file_paths()]


def entries_of(session, file_id):
    """The delta cache's ``{key: value}`` for one master file."""
    attached = session.table("t").handler.attached
    prefix = (attached.name, attached.backend, file_id)
    return {key: entry[0] for key, entry
            in session.cluster.delta_cache._entries.items()
            if key[:3] == prefix}


@pytest.mark.parametrize("workers", [1, 4])
class TestPerFileInvalidation:
    """An EDIT drops the entries of the files it writes, no others."""

    def dirty(self, workers):
        session = build_session(workers=workers)
        session.execute("UPDATE t SET v = v + 1 WHERE k % 10 = 0")
        return session

    def test_edit_of_file_a_keeps_file_b(self, workers):
        session = self.dirty(workers)
        select_all(session)                               # warm deltas
        # and the assigned-column memos the UPDATE's planning reads
        session.execute("SELECT count(*) FROM t WHERE k = 3")
        a, *others = file_ids(session.table("t").handler)
        assert entries_of(session, a)
        kept = {f: entries_of(session, f) for f in others}
        assert all(kept.values())
        session.execute("UPDATE t SET v = -1 WHERE k = 3")
        assert entries_of(session, a) == {}
        for file_id, before in kept.items():
            after = entries_of(session, file_id)
            assert after.keys() == before.keys()
            assert all(after[key] is before[key] for key in before)
        expect = sorted((k, -1 if k == 3 else v + (k % 10 == 0))
                        for k, v in ROWS)
        assert select_all(session) == expect
        assert fresh_rows(session) == expect

    def test_identity_fingerprint_does_not_see_the_cache(self, workers):
        """The same statements with the delta cache disabled: rows,
        ledger and non-cache counters are equal to the last bit."""
        def run(**profile):
            session = HiveSession(profile=ClusterProfile.laptop(
                workers=workers, **profile))
            session.execute(
                "CREATE TABLE t (k int, v int) STORED AS dualtable "
                "TBLPROPERTIES ('orc.rows_per_file' = '10', "
                "'dualtable.mode' = 'edit')")
            session.load_rows("t", ROWS)
            transcript = []
            for sql in ("UPDATE t SET v = v + 1 WHERE k % 10 = 0",
                        "SELECT k, v FROM t ORDER BY k",
                        "UPDATE t SET v = -1 WHERE k = 3",
                        "SELECT k, v FROM t ORDER BY k",
                        "DELETE FROM t WHERE k = 13",
                        "SELECT k, v FROM t ORDER BY k"):
                transcript.append((sql, session.execute(sql).rows))
            return identity_fingerprint(session, transcript)

        assert run() == run(delta_cache_bytes=0)

    def test_put_fault_then_retry_leaves_no_stale_entry(self, workers):
        """The 2nd of a publish's 3 puts crashes; the retry layer
        reruns the publish.  No touched file keeps an entry from
        before its put, whichever attempt wrote it."""
        session = self.dirty(workers)
        select_all(session)                               # warm
        handler = session.table("t").handler
        touched = file_ids(handler)[:3]
        faults = session.cluster.faults
        faults.install(FaultPlan([Fault("hbase.put", nth_hit=2,
                                        kind="crash")]))
        session.execute("UPDATE t SET v = -7 WHERE k IN (3, 13, 23)")
        assert len(faults.fired) == 1                     # and was retried
        faults.install(None)
        for file_id in touched:
            assert entries_of(session, file_id) == {}
        assert entries_of(session, file_ids(handler)[3])  # untouched: kept
        expect = sorted((k, -7 if k in (3, 13, 23) else v + (k % 10 == 0))
                        for k, v in ROWS)
        assert select_all(session) == expect
        assert fresh_rows(session) == expect

    def test_reader_between_invalidation_and_put_cannot_pin_old_content(
            self, workers, monkeypatch):
        """Invalidation runs after the store mutation as well: a reader
        that re-caches the file between the first invalidation and the
        put sees pre-put content, and that entry must not survive."""
        session = self.dirty(workers)
        handler = session.table("t").handler
        attached = handler.attached
        file_id = file_ids(handler)[0]
        record_id = encode_record_id(file_id, 3)
        original = HTable.put

        def put_with_a_reader_in_front(table, row, values, ts=None):
            if table.name == attached.name:
                assert all(rid != record_id for rid, _
                           in attached.file_deltas(file_id)[0])
                assert entries_of(session, file_id)       # re-cached
            return original(table, row, values, ts=ts)

        monkeypatch.setattr(HTable, "put", put_with_a_reader_in_front)
        attached.put_update(record_id, {1: -9})
        monkeypatch.undo()
        assert entries_of(session, file_id) == {}
        assert record_id in dict(attached.file_deltas(file_id)[0])
        assert (3, -9) in select_all(session)


class TestTrailingDeltas:
    def test_trailing_delta_is_counted_not_dropped_silently(self):
        """An attached entry beyond the last master row (e.g. left by a
        file that shrank) cannot affect UNION READ output, but it must
        be surfaced through the merge stats and metrics."""
        session = build_session(rows=ROWS[:10], rows_per_file=10)
        handler = session.table("t").handler
        path = handler.master.file_paths()[0]
        file_id = handler.master.file_id_of(path)
        handler.attached.put_update(encode_record_id(file_id, 99),
                                    {1: 777})
        assert select_all(session) == sorted(ROWS[:10])
        counters = session.cluster.metrics.counters
        assert counters["unionread.trailing_deltas"] == 1
        assert counters.get("unionread.deltas_applied", 0) == 0
        # The counter keeps counting on re-reads (cached or not).
        select_all(session)
        assert counters["unionread.trailing_deltas"] == 2

    def test_in_range_orphan_delta_counted_as_skipped(self):
        """A delta whose id sorts inside the master range but matches no
        master row is counted as skipped."""
        session = build_session(rows=ROWS[:10], rows_per_file=10)
        handler = session.table("t").handler
        # A second, later file makes row ids from the *first* file's
        # tail sort inside the overall attached range for that file.
        session.execute("INSERT INTO t VALUES (500, 5000)")
        path = handler.master.file_paths()[0]
        file_id = handler.master.file_id_of(path)
        handler.attached.put_update(encode_record_id(file_id, 4),
                                    {1: 444})
        handler.attached.put_update(encode_record_id(file_id, 55),
                                    {1: 555})
        expect = sorted([(k, 444 if k == 4 else v)
                         for k, v in ROWS[:10]] + [(500, 5000)])
        assert select_all(session) == expect
        counters = session.cluster.metrics.counters
        assert counters["unionread.deltas_applied"] == 1
        assert counters["unionread.trailing_deltas"] == 1
