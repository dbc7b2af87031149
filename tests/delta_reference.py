"""The delta fetch this repository used before cells went straight to
the columnar overlay, kept verbatim as the reference for
``tests/test_delta_fetch.py``: a charged ``scan`` resolved per cell
into ``(record_id, DeltaRecord)`` items (``scan_range`` -> ``_resolve``)
and an overlay re-arranged from those objects (``build_overlay(items)``).

It also keeps the paper's row-at-a-time UNION READ merge
(:func:`union_read_file`), the specification the production overlay
merge is held to, and the stripe filter every read evaluated in its task
before a split carried the stripes its plan admitted
(:func:`stripe_filter`), as the reference for that admission.

The one deliberate difference of the production path is not in here:
the old ``_resolve`` *skipped* a qualifier it did not recognise, the
production kernel raises ``CorruptDeltaError``.
"""

from repro.core.attached import (DELETE_MARKER, DeltaRecord, parse_qualifier,
                                 update_qualifier)
from repro.core.record_id import decode_record_id, encode_record_id
from repro.core.union_read import DeltaOverlay
from repro.hive.valuecodec import decode_value, encode_value


def apply_update(values, updates, projection_map):
    """Apply one delta's update cells onto a projected row tuple.

    Update cells whose column is not projected are dropped (the delta
    still *counts* as applied; the caller owns the stats).
    """
    merged = list(values)
    for column_index, new_value in updates.items():
        position = projection_map.get(column_index)
        if position is not None:
            merged[position] = new_value
    return tuple(merged)


def union_read_file(file_id, orc_rows, delta_items, projection_map,
                    num_rows, stats=None):
    """Merge one master file with its attached deltas.

    ``orc_rows``        — iterator of ``(row_number, values_tuple)`` from the
                          ORC reader (values in projection order);
    ``delta_items``     — iterator of ``(record_id, DeltaRecord)`` sorted by
                          record id, covering this file's key range;
    ``projection_map``  — ``{schema_column_index: projected_position}`` so
                          update cells can be applied onto projected tuples.
    ``num_rows``        — the file's row count (its footer's);
    ``stats``           — optional dict; on exhaustion holds the merge
                          counters ``deltas_applied``, ``rows_deleted``,
                          ``deltas_skipped`` and ``trailing_deltas``
                          (observability hooks, no cost impact).

    Yields ``(record_id, merged_values_tuple)`` with deleted rows skipped.

    Deltas whose record id never matches a master row cannot affect the
    output (UNION READ is master-driven), but silently dropping them
    hides real anomalies — an attached entry for a row COMPACT already
    folded away, or a file that shrank underneath its deltas.  They are
    therefore counted: ``deltas_skipped`` for ids passed over inside the
    file's ``num_rows`` rows (pruned stripes' too, read or not),
    ``trailing_deltas`` for ids beyond its last row (the iterator is
    drained so the count — and the backing scan's charges — are
    complete).
    """
    applied = 0
    deleted = 0
    skipped = 0
    trailing = 0
    delta_iter = iter(delta_items)
    current = next(delta_iter, None)
    try:
        for row_number, values in orc_rows:
            record_id = encode_record_id(file_id, row_number)
            while current is not None and current[0] < record_id:
                skipped += 1
                current = next(delta_iter, None)
            if current is not None and current[0] == record_id:
                delta = current[1]
                current = next(delta_iter, None)
                if delta.deleted:
                    deleted += 1
                    continue
                if delta.updates:
                    applied += 1
                    yield record_id, apply_update(values, delta.updates,
                                                  projection_map)
                    continue
            yield record_id, values
        end = encode_record_id(file_id, num_rows)
        while current is not None:
            if current[0] < end:
                skipped += 1
            else:
                trailing += 1
            current = next(delta_iter, None)
    finally:
        if stats is not None:
            stats["deltas_applied"] = applied
            stats["rows_deleted"] = deleted
            stats["deltas_skipped"] = skipped
            stats["trailing_deltas"] = trailing


def stripe_filter(schema_names, ranges):
    """The stripe filter every read built before splits carried their
    stripes (``pushdown.make_stripe_filter``): a ``StripeInfo -> bool``
    over the ORC file's column names in order, None when no constrained
    column is in the file."""
    indexed = []
    lower_names = [n.lower() for n in schema_names]
    for name, col_range in ranges.items():
        if name in lower_names:
            indexed.append((lower_names.index(name), col_range))
    if not indexed:
        return None

    def admits(stripe):
        for idx, col_range in indexed:
            stats = stripe.stats(idx)
            if not col_range.may_overlap(stats["min"], stats["max"]):
                return False
        return True

    return admits


def union_read_rows(handler, split, stats=None, ranges=None):
    """One DualTable split as ``(record_id, values)`` pairs, read the
    way the paper states it: the ORC row stream and the file's
    ``DeltaRecord`` items through :func:`union_read_file`.  Charges and
    counts what ``read_split_batches`` does for the split, so a scan
    built on it is ledger-comparable with the production one.

    ``ranges`` are the column ranges the split was planned under: the
    file's stripes are pruned by :func:`stripe_filter` under the store's
    ``pruning_ranges`` of them, not by the split's ``row_spans``."""
    payload = split.payload
    handler = handler.shards[payload.get("shard", 0)]
    file_id, projection = payload["file_id"], payload["projection"]
    with handler.env.cluster.tracer.span(
            "substrate", "union-read:%d" % file_id,
            path=payload["path"]) as span:
        reader = handler.master.reader(payload["path"])
        admits = stripe_filter([n for n, _ in reader.schema],
                               handler.pruning_ranges(file_id, ranges))
        kept = [s for s in reader.stripes if admits is None or admits(s)]
        pruned = len(reader.stripes) - len(kept)
        skipped = int(pruned > 0 and not kept)
        handler._note_units((("stripes_pruned", pruned),
                             ("files_skipped", skipped)))
        if skipped:
            return      # every stripe pruned: footer only, no merge
        cells, _ = handler._prepare_union_read(
            file_id, [(s.first_row, s.num_rows) for s in kept])
        stats = {} if stats is None else stats
        nrows = 0
        for item in union_read_file(
                file_id, reader.rows(projection=projection, row_spans={
                    s.index: [(s.first_row, s.first_row + s.num_rows)]
                    for s in kept}),
                handler.attached.delta_items(cells),
                handler._projection_map(projection), reader.num_rows,
                stats=stats):
            nrows += 1
            yield item
        # Like the production generator, an abandoned read charges no
        # merge CPU.
        handler._note_union_read(span, nrows, stats)


def reference_resolve(cells):
    delta = DeltaRecord()
    for qualifier, value in cells.items():
        kind, column_index = parse_qualifier(qualifier)
        if kind == "delete":
            delta.deleted = True
        elif kind == "update":
            delta.updates[column_index] = decode_value(value)
    return delta


def reference_scan_range(table, start=None, stop=None):
    """Items of a key range of ``table`` (an HTable or a BTreeTable)."""
    for record_id, cells in table.scan(start, stop):
        yield record_id, reference_resolve(cells)


def reference_build_overlay(items):
    positions = []
    delete_positions = []
    applied_positions = []
    patches = {}
    for record_id, delta in items:
        _, row_number = decode_record_id(record_id)
        positions.append(row_number)
        if delta.deleted:
            delete_positions.append(row_number)
            continue
        if not delta.updates:
            continue   # noop delta: matches a master row, changes nothing
        applied_positions.append(row_number)
        for column_index, new_value in delta.updates.items():
            entry = patches.get(column_index)
            if entry is None:
                entry = patches[column_index] = ([], [])
            entry[0].append(row_number)
            entry[1].append(new_value)
    return DeltaOverlay(positions, delete_positions, applied_positions,
                        patches)


def cells_for_items(items):
    """The scan rows that resolve to ``items`` — for tests that state
    their deltas as DeltaRecords."""
    cells = []
    for record_id, delta in items:
        data = {update_qualifier(column): encode_value(value)
                for column, value in delta.updates.items()}
        if delta.deleted:
            data[DELETE_MARKER] = b"1"
        cells.append((record_id, data))
    return cells


def overlay_members(overlay):
    """An overlay as plain comparable data (patch lists by column: the
    merge treats columns independently, their dict order means nothing)."""
    return (list(overlay.positions), list(overlay.delete_positions),
            list(overlay.applied_positions),
            {column: (list(rows), list(values))
             for column, (rows, values) in sorted(overlay.patches.items())})
