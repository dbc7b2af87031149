"""One file planner: every plan over a DualTable store reads
``DualTableStore.plan_files``.

The oracle is the six walks over a store's master files that the planner
replaced, kept here as they were: scan splits, COMPACT victims and
splits, the compaction policy's per-file observation, the EDIT estimate,
EXPLAIN's dirty-file account and the LOOKUP candidate loop.  Each
consumer's answer must equal its walk's on every chaos table flavour
(plain, PRIMARY KEY, sharded at INTO 1/4/8), at workers 1 and 4, with
deltas that assign a predicate column and deltas that assign the key.
"""

import types

import pytest

from repro.cluster import ClusterProfile
from repro.core.lookup import (LookupPlan, ROW_GROUP_ROWS, bounded_pk_range,
                               bucket_mask, pinned_keys, stripe_index)
from repro.core.master import FILE_ID_KEY
from repro.core.record_id import encode_record_id
from repro.faults.chaos import FLAVOURS
from repro.hive import HiveSession
from repro.hive.parser import parse
from repro.hive.pushdown import extract_ranges
from repro.hive.rowedit import WhereEdit
from repro.maintenance.policy import CompactionPolicy
from repro.mapreduce import PlanCost

from tests.delta_reference import stripe_filter

PREDICATES = ["v >= 300", "k < 20 AND v > 50", "k IN (3, 7, 1007)", "k = 7",
              "k BETWEEN 3 AND 20", "k >= 40 AND k < 44", "v < 100",
              "k BETWEEN 160 AND 170", "k IN (33, 155, 290)"]
PROJECTIONS = [None, ["v"], ["k", "v"]]
CASES = ([("dml", None, w) for w in (1, 4)]
         + [("lookup", None, w) for w in (1, 4)]
         + [("shard", n, w) for n in (1, 4, 8) for w in (1, 4)])
#: ``(rows, rows per file, rows per stripe)``: many small stripes, or
#: stripes of more than one row group.
SHAPES = [(48, 12, 6), (300, 150, 100)]


def build(flavour, shards, workers, shape):
    """A chaos-flavour table of ``shape``, with deltas: ``v`` assigned on
    every fifth row, a deleted row, and the key assigned on the file
    holding ``k = 7``."""
    rows, per_file, per_stripe = shape
    table = FLAVOURS[flavour].table
    if shards is not None:
        table = table.replace("INTO 4", "INTO %d" % shards)
    session = HiveSession(profile=ClusterProfile.laptop(nodes=3,
                                                        workers=workers))
    session.execute(
        "CREATE TABLE t %s TBLPROPERTIES ('orc.rows_per_file' = '%d', "
        "'orc.stripe_rows' = '%d', 'dualtable.mode' = 'edit')"
        % (table, per_file, per_stripe))
    session.load_rows("t", [(i, i * 10) for i in range(rows)])
    session.execute("UPDATE t SET v = v + 1000 WHERE k % 5 = 0")
    session.execute("DELETE FROM t WHERE k = 20")
    handler = session.table("t").handler
    if shards is None:
        session.execute("UPDATE t SET k = k + 1000 WHERE k = 7")
    else:
        # An UPDATE of a sharded table's key rewrites the table, so the
        # delta that assigns the key is planted as EDIT would stage it.
        for store in handler.shards:
            for path in store.master.file_paths():
                meta = store.master.meta(path)
                for ordinal, row in meta.rows():
                    if row[0] == 7:
                        store.attached.put_update(encode_record_id(
                            int(meta.metadata[FILE_ID_KEY]), ordinal),
                            {0: 1007})
    return session, handler


def ranges_of(where):
    return extract_ranges(parse("SELECT k FROM t WHERE " + where).where)


# ----------------------------------------------------------------------
# The walks the planner replaced.
# ----------------------------------------------------------------------
def projected_bytes(reader, projection=None, stripe_filter=None):
    """``OrcReader.projected_bytes`` as it was: the projected bytes of
    the stripes ``stripe_filter`` admits."""
    if projection is None:
        indices = list(range(len(reader.schema)))
    else:
        indices = [reader.column_index(name) for name in projection]
    total = 0
    for stripe in reader.stripes:
        if stripe_filter is not None and not stripe_filter(stripe):
            continue
        total += sum(stripe.columns[i]["length"] for i in indices)
    return total


def oracle_split(store, path, projection=None, ranges=None):
    """The split a task pruned by its ``ranges``, as the stripes that
    filter admits (``row_spans``) and how many it pruned."""
    meta = store.master.meta(path)
    file_id = int(meta.metadata[FILE_ID_KEY])
    admits = stripe_filter([n for n, _ in meta.schema],
                           store.pruning_ranges(file_id, ranges))
    kept = [s for s in meta.stripes if admits is None or admits(s)]
    payload = {"path": path, "file_id": file_id, "projection": projection,
               "row_spans": {s.index: [(s.first_row,
                                        s.first_row + s.num_rows)]
                             for s in kept},
               "stripes_pruned": len(meta.stripes) - len(kept)}
    if store.shard is not None:
        payload["shard"] = store.shard
    return payload, projected_bytes(meta, projection), path


def oracle_scan_splits(handler, projection, ranges):
    splits = [oracle_split(store, path, projection, ranges)
              for store in handler.shards
              for path in store.master.file_paths()]
    splits.sort(key=lambda split: split[0]["path"].rsplit("/", 1)[-1])
    return splits


def oracle_victims(handler, max_files):
    """``compact_candidates`` of every store with deltas, ranked."""
    victims = []
    for index, store in enumerate(handler.shards):
        if store.attached.is_empty():
            continue
        for path in store.master.file_paths():
            file_id = int(store.master.meta(path).metadata[FILE_ID_KEY])
            delta_bytes, _ = store.attached.file_delta_stats(file_id)
            if delta_bytes > 0:
                victims.append((index, path, file_id, delta_bytes,
                                max(1, store.env.fs.file_size(path))))
    victims.sort(key=lambda v: (-(v[3] / v[4]), v[1].rsplit("/", 1)[-1]))
    return victims[:max_files]


def oracle_file_deltas(store):
    """``CompactionPolicy.observe_files``: one ``FileDelta`` per file."""
    out = []
    for path in store.master.file_paths():
        meta = store.master.meta(path)
        file_id = int(meta.metadata[FILE_ID_KEY])
        delta_bytes, delta_entries = store.attached.file_delta_stats(file_id)
        master_bytes = max(1, store.env.fs.file_size(path))
        out.append(types.SimpleNamespace(
            path=path, file_id=file_id, file_bytes=master_bytes,
            rows=meta.num_rows, delta_bytes=delta_bytes,
            delta_entries=delta_entries,
            density=delta_bytes / master_bytes))
    return out


def oracle_edit_scan_bytes(handler, edit):
    projection = edit.projection(handler.schema)
    total = 0
    for store in handler.shards:
        for reader in store.master.readers():
            ranges = store.pruning_ranges(
                int(reader.metadata[FILE_ID_KEY]), edit.ranges)
            total += projected_bytes(reader, projection, stripe_filter(
                [n for n, _ in reader.schema], ranges))
    return total


def oracle_dirty_account(handler, columns):
    dirty = 0
    kept = dict.fromkeys(columns, 0)
    for store in handler.shards:
        for path in store.master.file_paths():
            file_id = int(store.master.meta(path).metadata[FILE_ID_KEY])
            if store.attached.has_entries_in_file(file_id):
                dirty += 1
                for column in store.pruning_ranges(
                        file_id, dict.fromkeys(columns)):
                    kept[column] += 1
    return dirty, kept


def oracle_plan_lookup(handler, ranges, projection=None):
    """``plan_lookup``'s candidate loop over the pinned stores."""
    pinned = handler.router.pinned(ranges)
    pk_range = None if pinned is None else bounded_pk_range(handler, ranges)
    if pk_range is None:
        return None
    pk = handler.primary_key
    keys = pk_range.in_set
    key_set = pinned_keys(pk_range, handler.schema.column(pk).python_type)
    wanted = None if key_set is None else bucket_mask(key_set)
    profile = handler.env.cluster.profile
    candidates = []
    scan_tasks = []
    est_rows = lookup_bytes = scan_bytes = probe_bytes = probe_entries = 0
    total_files = stripes_read = total_stripes = 0
    groups_read = total_groups = 0
    for shard in pinned:
        source = handler.shards[shard]
        for entry in stripe_index(source, source.master.file_paths()):
            names = entry["names"]
            proj_idx = (list(range(len(names))) if projection is None else
                        [names.index(n.lower()) for n in projection
                         if n.lower() in names])
            total_files += 1
            total_stripes += len(entry["stripes"])
            row_spans = {}
            match_rows = match_bytes = match_groups = file_scan_bytes = 0
            file_groups = first = 0
            for index, (nrows, pk_min, pk_max, lengths, mask, groups) \
                    in enumerate(entry["stripes"]):
                stripe_bytes = sum(lengths[i] for i in proj_idx)
                file_scan_bytes += stripe_bytes
                file_groups += len(groups)
                if (wanted is None or mask & wanted) \
                        and pk_range.may_overlap(pk_min, pk_max):
                    runs, admitted = [], 0
                    for group, bounds in enumerate(groups):
                        if bounds is None \
                                or not pk_range.may_overlap(*bounds):
                            continue
                        admitted += 1
                        start = first + group * ROW_GROUP_ROWS
                        stop = min(start + ROW_GROUP_ROWS, first + nrows)
                        if runs and runs[-1][1] == start:
                            runs[-1] = (runs[-1][0], stop)
                        else:
                            runs.append((start, stop))
                    if runs:
                        row_spans[index] = runs
                        match_rows += sum(b - a for a, b in runs)
                        match_groups += admitted
                        match_bytes += stripe_bytes
                first += nrows
            # The scan alternative reads the footer and every stripe.
            scan_bytes += entry["footer_bytes"] + file_scan_bytes
            scan_tasks.append(PlanCost(profile).task_seconds(
                entry["footer_bytes"] + file_scan_bytes, entry["num_rows"],
                merge=True))
            total_groups += file_groups
            delta_bytes, delta_entries = \
                source.attached.file_delta_stats(entry["file_id"])
            if delta_entries and names.index(pk) in \
                    source.attached.assigned_columns(entry["file_id"]):
                row_spans, first = {}, 0
                for index, (nrows, *_) in enumerate(entry["stripes"]):
                    row_spans[index] = [(first, first + nrows)]
                    first += nrows
                match_rows = entry["num_rows"]
                match_groups = file_groups
                match_bytes = file_scan_bytes
            if match_rows == 0:
                continue
            est_rows += match_rows
            if (len(keys) if keys else est_rows) > handler.lookup_rows_limit:
                return None
            stripes_read += len(row_spans)
            groups_read += match_groups
            lookup_bytes += entry["footer_bytes"] + match_bytes
            probe_bytes += delta_bytes
            probe_entries += delta_entries
            candidates.append({"path": entry["path"],
                               "file_id": entry["file_id"], "shard": shard,
                               "projection": projection,
                               "row_spans": row_spans, "stripes_pruned": 0,
                               "est_rows": match_rows})
    candidates.sort(key=lambda c: c["path"].rsplit("/", 1)[-1])
    choice = handler.cost_model().choose_lookup_plan(
        scan_tasks=scan_tasks, scan_bytes=scan_bytes,
        lookup_bytes=lookup_bytes, files_read=len(candidates),
        probe_bytes=probe_bytes, probe_entries=probe_entries,
        rows=est_rows, fanout=handler.shard_fanout)
    return LookupPlan(pk=pk, pk_range=pk_range, projection=projection,
                      files=candidates, choice=choice, est_rows=est_rows,
                      total_files=total_files,
                      stripes=(stripes_read, total_stripes),
                      row_groups=(groups_read, total_groups),
                      shards=tuple(pinned),
                      buckets=None if wanted is None
                      else (wanted.bit_count(), 64))


class OracleStore:
    """What the compaction policy reads of a store, observed by the
    policy's own walk."""

    def __init__(self, store):
        self.store, self.attached, self.env = store, store.attached, store.env

    def plan_files(self):
        return oracle_file_deltas(self.store)


def job_splits(session, sql):
    """The statement's result and each job's ``(payload, size, label)``
    splits, recorded as the runner gets them."""
    runner = session.env.runner
    run, seen = runner.run, []

    def recording_run(job):
        seen.append([(dict(s.payload), s.size_bytes, s.label)
                     for s in job.splits])
        return run(job)

    runner.run = recording_run
    try:
        return session.execute(sql), seen
    finally:
        runner.run = run


# ----------------------------------------------------------------------
# Every consumer against its walk.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("flavour,shards,workers", CASES)
def test_every_plan_reads_what_its_walk_read(flavour, shards, workers,
                                             shape):
    session, handler = build(flavour, shards, workers, shape)
    if handler.primary_key is not None:
        # The file whose delta assigns the key is read whole.
        plan = handler.plan_lookup(ranges_of("k = 7"), hit_faults=False)
        assert len(plan.files) == 1
        meta = handler.shards[plan.files[0]["shard"]].master.meta(
            plan.files[0]["path"])
        assert plan.files[0]["row_spans"] == {
            s.index: [(s.first_row, s.first_row + s.num_rows)]
            for s in meta.stripes}
    for where in PREDICATES:
        ranges = ranges_of(where)
        for projection in PROJECTIONS:
            assert [(s.payload, s.size_bytes, s.label) for s
                    in handler.scan_splits(projection, ranges)] \
                == oracle_scan_splits(handler, projection, ranges), where
            if handler.primary_key is not None:
                assert handler.plan_lookup(ranges, projection,
                                           hit_faults=False) \
                    == oracle_plan_lookup(handler, ranges, projection), where
        assert handler.pruning_on_dirty_files(ranges) \
            == oracle_dirty_account(handler, list(ranges)), where
        for sql in ("UPDATE t SET v = 0 WHERE " + where,
                    "DELETE FROM t WHERE " + where):
            edit = WhereEdit(parse(sql), handler.schema)
            assert handler._edit_scan_bytes(edit) \
                == oracle_edit_scan_bytes(handler, edit), sql
    for store in handler.shards:
        assert [(f.path, f.file_id, f.file_bytes, f.rows, f.delta_bytes,
                 f.delta_entries, f.density) for f in store.plan_files()] \
            == [(f.path, f.file_id, f.file_bytes, f.rows, f.delta_bytes,
                 f.delta_entries, f.density)
                for f in oracle_file_deltas(store)]
        for mode in ("partial", "full", "auto"):
            for horizon in (1.0, 1e9):
                got = CompactionPolicy(store, {"mode": mode}).decide(horizon)
                want = CompactionPolicy(OracleStore(store),
                                        {"mode": mode}).decide(horizon)
                assert ([f.path for f in got.files], got.action,
                        got.predicted_seconds, got.benefit_seconds,
                        got.note, got.breakdown) \
                    == ([f.path for f in want.files], want.action,
                        want.predicted_seconds, want.benefit_seconds,
                        want.note, want.breakdown)
    # COMPACT: the victims, in rank order, and each job's splits.
    victims = oracle_victims(handler, 3)
    want = [oracle_split(handler.shards[index], path)
            for index in sorted({v[0] for v in victims})
            for v_index, path, *_ in victims if v_index == index]
    result, splits = job_splits(session, "COMPACT TABLE t PARTIAL 3")
    assert result.detail["file_ids"] == [v[2] for v in victims]
    assert splits == [want]
    want = [oracle_split(store, path) for store in handler.shards
            if not store.attached.is_empty()
            for path in store.master.file_paths()]
    result, splits = job_splits(session, "COMPACT TABLE t")
    assert splits == ([want] if want else [])
