"""Differential tests: overlay merge vs its specification (INTERNALS §14).

The overlay merge (:func:`repro.core.union_read_overlay`) must yield
what the paper's master-driven merge (:func:`repro.core.union_read_file`)
yields: same rows, same record ids, same merge-stats dict.  These tests
drive both over hand-built adversarial delta distributions and a seeded
fuzz sweep at the unit level, then replay DML through SQL and hold the
result to the specification and to what the deleted row-fallback merge
returned for it (``tests/golden.py``).
"""

import pytest

from repro.cluster import ClusterProfile
from repro.common.rng import make_rng
from repro.common.errors import AnalysisError
from repro.core import build_overlay, union_read_file, union_read_overlay
from repro.core.attached import DeltaRecord
from repro.core.record_id import decode_record_id, encode_record_id
from repro.hive import HiveSession
from repro.vector import ColumnBatch

from tests.delta_reference import cells_for_items, union_read_rows
from tests.golden import golden, jsonable

FILE_ID = 3
WIDTH = 3           # schema columns 0, 1, 2


def delta(deleted=False, updates=None):
    record = DeltaRecord()
    record.deleted = deleted
    if updates:
        record.updates.update(updates)
    return record


def items_for(entries):
    """Sorted ``(record_id, DeltaRecord)`` items from {row: delta}."""
    return [(encode_record_id(FILE_ID, row), entries[row])
            for row in sorted(entries)]


def cell(row, column):
    return row * 10 + column


def make_batches(spans, projection):
    """ColumnBatches over ``(first_row, num_rows)`` spans (projected)."""
    return [ColumnBatch([[cell(r, c) for r in range(first, first + n)]
                         for c in projection], n, row_base=first)
            for first, n in spans]


def run_all_paths(spans, entries, projection=(0, 1, 2)):
    """Rows + stats from the overlay merge and its specification.

    Asserts the two agree exactly before returning ``(rows, stats)`` —
    every test's core oracle.
    """
    items = items_for(entries)
    projection_map = {c: i for i, c in enumerate(projection)}
    overlay = build_overlay(cells_for_items(items))

    o_stats, r_stats = {}, {}
    o_batches = list(union_read_overlay(
        FILE_ID, iter(make_batches(spans, projection)), overlay,
        projection_map, stats=o_stats))
    o_rows = [tuple(row) for batch in o_batches for row in batch.rows()]
    orc_rows = [(r, tuple(cell(r, c) for c in projection))
                for first, n in spans for r in range(first, first + n)]
    r_pairs = list(union_read_file(
        FILE_ID, iter(orc_rows), items, projection_map, stats=r_stats))
    r_rows = [values for _, values in r_pairs]

    assert o_rows == r_rows
    # Provenance: merged batches can name every surviving row's file
    # ordinal (row_base + dropped positions), matching the specification's
    # per-row record ids.
    assert [ordinal for batch in o_batches
            for ordinal in batch.ordinals(range(batch.length))] \
        == [decode_record_id(record_id)[1] for record_id, _ in r_pairs]
    assert o_stats == r_stats
    assert all(len(batch) > 0 for batch in o_batches)
    return o_rows, o_stats


class TestAdversarialDistributions:
    def test_no_deltas_streams_through(self):
        rows, stats = run_all_paths([(0, 4), (4, 4)], {})
        assert len(rows) == 8
        assert stats == {"deltas_applied": 0, "rows_deleted": 0,
                         "deltas_skipped": 0, "trailing_deltas": 0}

    def test_every_row_in_batch_deleted(self):
        entries = {row: delta(deleted=True) for row in range(4, 8)}
        rows, stats = run_all_paths([(0, 4), (4, 4), (8, 4)], entries)
        assert [r[0] for r in rows] == [cell(r, 0) for r in
                                        (0, 1, 2, 3, 8, 9, 10, 11)]
        assert stats["rows_deleted"] == 4

    def test_whole_file_deleted(self):
        entries = {row: delta(deleted=True) for row in range(8)}
        rows, stats = run_all_paths([(0, 4), (4, 4)], entries)
        assert rows == []
        assert stats["rows_deleted"] == 8

    def test_delta_on_last_row_of_file(self):
        entries = {7: delta(updates={1: "last"})}
        rows, stats = run_all_paths([(0, 4), (4, 4)], entries)
        assert rows[-1] == (cell(7, 0), "last", cell(7, 2))
        assert stats["deltas_applied"] == 1

    def test_trailing_deltas_counted(self):
        entries = {5: delta(updates={0: "x"}),
                   20: delta(deleted=True),
                   21: delta(updates={1: "y"})}
        rows, stats = run_all_paths([(0, 4), (4, 4)], entries)
        assert stats["trailing_deltas"] == 2
        assert stats["deltas_applied"] == 1
        assert len(rows) == 8

    def test_pruned_stripe_gap_counts_skipped(self):
        # Stripe (4, 4) pruned away: its delta ids are passed over.
        entries = {5: delta(updates={0: "gone"}),
                   6: delta(deleted=True),
                   9: delta(updates={2: "kept"})}
        rows, stats = run_all_paths([(0, 4), (8, 4)], entries)
        assert stats["deltas_skipped"] == 2
        assert stats["deltas_applied"] == 1
        assert stats["rows_deleted"] == 0
        assert (cell(9, 0), cell(9, 1), "kept") in rows

    def test_deltas_straddling_batch_boundary(self):
        entries = {3: delta(updates={0: "a"}),
                   4: delta(updates={0: "b"}),
                   7: delta(deleted=True),
                   8: delta(deleted=True)}
        rows, stats = run_all_paths([(0, 4), (4, 4), (8, 4)], entries)
        assert stats == {"deltas_applied": 2, "rows_deleted": 2,
                         "deltas_skipped": 0, "trailing_deltas": 0}
        assert ("a", cell(3, 1), cell(3, 2)) in rows
        assert ("b", cell(4, 1), cell(4, 2)) in rows
        assert len(rows) == 10

    def test_noop_delta_changes_nothing_but_dirties_batch(self):
        rows, stats = run_all_paths([(0, 4)], {2: delta()})
        assert rows == [tuple(cell(r, c) for c in (0, 1, 2))
                        for r in range(4)]
        assert stats == {"deltas_applied": 0, "rows_deleted": 0,
                         "deltas_skipped": 0, "trailing_deltas": 0}

    def test_update_on_unprojected_column_still_counts(self):
        entries = {1: delta(updates={1: "invisible"})}
        rows, stats = run_all_paths([(0, 4)], entries, projection=(0, 2))
        assert rows[1] == (cell(1, 0), cell(1, 2))
        assert stats["deltas_applied"] == 1

    def test_delete_wins_over_update(self):
        record = delta(deleted=True, updates={0: "dead"})
        rows, stats = run_all_paths([(0, 4)], {1: record})
        assert len(rows) == 3
        assert stats["rows_deleted"] == 1
        assert stats["deltas_applied"] == 0

    def test_overlay_shares_untouched_columns_zero_copy(self):
        projection = (0, 1, 2)
        items = items_for({1: delta(updates={1: "patched"})})
        overlay = build_overlay(cells_for_items(items))
        source = make_batches([(0, 4)], projection)
        out = list(union_read_overlay(
            FILE_ID, iter(source), overlay,
            {c: i for i, c in enumerate(projection)}))
        assert out[0].columns[0] is source[0].columns[0]
        assert out[0].columns[2] is source[0].columns[2]
        assert out[0].columns[1] is not source[0].columns[1]


class TestDifferentialFuzz:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_distributions_agree(self, seed):
        rng = make_rng("merge-overlay-fuzz", seed)
        total_rows = rng.randrange(20, 200)
        # Random stripe spans, some randomly pruned (gaps -> skipped).
        spans = []
        first = 0
        while first < total_rows:
            n = min(rng.randrange(1, 40), total_rows - first)
            if rng.random() > 0.2:
                spans.append((first, n))
            first += n
        entries = {}
        hi = total_rows + rng.randrange(0, 8)    # some trailing ids
        for row in range(hi):
            roll = rng.random()
            if roll < 0.12:
                entries[row] = delta(deleted=True)
            elif roll < 0.3:
                updates = {c: "u%d:%d" % (row, c)
                           for c in range(WIDTH) if rng.random() < 0.6}
                entries[row] = delta(updates=updates)   # may be a noop
        projection = rng.choice([(0, 1, 2), (2, 0), (1,), (0, 2)])
        rows, stats = run_all_paths(spans if spans else [(0, 1)],
                                    entries, projection=projection)
        assert stats["rows_deleted"] <= len(
            [d for d in entries.values() if d.deleted])
        assert len(rows) <= total_rows


class TestMergeModeSQL:
    """End-to-end: the merge through real statements."""

    ROWS = [(i, i * 10) for i in range(60)]

    def build(self):
        session = HiveSession(profile=ClusterProfile.laptop())
        session.execute(
            "CREATE TABLE t (k int, v int) STORED AS dualtable "
            "TBLPROPERTIES ('orc.rows_per_file' = '20', "
            "'orc.stripe_rows' = '5', 'dualtable.mode' = 'edit')")
        session.load_rows("t", self.ROWS)
        session.execute("UPDATE t SET v = 1 WHERE k < 7")
        session.execute("DELETE FROM t WHERE k >= 50 AND k < 55")
        session.execute("UPDATE t SET v = 2 WHERE k >= 58")
        return session

    def select_all(self):
        """The full scan's rows, simulated seconds and merge counters."""
        session = self.build()
        counters = session.cluster.metrics.counters
        before = dict(counters)
        result = session.execute("SELECT k, v FROM t ORDER BY k")

        def moved(name):
            return counters.get(name, 0) - before.get(name, 0)
        return jsonable({
            "select": (result.rows, result.sim_seconds,
                       moved("unionread.deltas_applied"),
                       moved("unionread.rows_deleted")),
            "units": (moved("unionread.batches_fast"),
                      moved("unionread.batches_overlay"))})

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_strategies_agree_end_to_end(self, engine):
        """``row``: what the row merge returned under the row engine;
        ``vectorized``: what the specification returns now."""
        rows, seconds, applied, deleted = self.select_all()["select"]
        if engine == "row":
            assert [rows, seconds, applied, deleted] \
                == golden("merge_sql")["select"]
            return
        handler = self.build().table("t").handler
        spec_rows, totals = [], {"deltas_applied": 0, "rows_deleted": 0}
        for split in handler.scan_splits():
            stats = {}
            spec_rows += [values for _, values
                          in union_read_rows(handler, split, stats)]
            for name in totals:
                totals[name] += stats[name]
        assert rows == jsonable(sorted(spec_rows))
        assert (applied, deleted) == (totals["deltas_applied"],
                                      totals["rows_deleted"])

    def test_dirty_units_attributed_to_configured_strategy(self):
        """There is one strategy, and it owns every dirty unit."""
        session = self.build()
        session.execute("SELECT k, v FROM t")
        counters = session.cluster.metrics.counters
        assert counters.get("unionread.batches_overlay", 0) > 0
        assert counters.get("unionread.batches_fast", 0) > 0
        assert not [name for name in counters if "row_fallback" in name]

    def test_merge_unit_sum_identical_across_strategies(self):
        """Fast and dirty units as the row merge counted them."""
        assert self.select_all()["units"] == golden("merge_sql")["units"]

    def test_set_merge_rejects_unknown_strategy(self):
        session = HiveSession(profile=ClusterProfile.laptop())
        for strategy in ("eager", "row", "overlay"):
            with pytest.raises(AnalysisError, match="unknown session option"):
                session.execute("SET dualtable.merge = %s" % strategy)

    def test_merge_mode_env_override(self, monkeypatch):
        """The environment no longer selects a merge either."""
        monkeypatch.setenv("REPRO_MERGE", "row")
        session = self.build()
        assert not hasattr(session, "merge_mode")
        self.test_dirty_units_attributed_to_configured_strategy()


def golden_sections():
    return {"merge_sql": TestMergeModeSQL().select_all()}
