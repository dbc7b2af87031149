"""The delta fetch this repository used before cells went straight to
the columnar overlay, kept verbatim as the reference for
``tests/test_delta_fetch.py``: a charged ``scan`` resolved per cell
into ``(record_id, DeltaRecord)`` items (``scan_range`` -> ``_resolve``)
and an overlay re-arranged from those objects (``build_overlay(items)``).

The one deliberate difference of the production path is not in here:
the old ``_resolve`` *skipped* a qualifier it did not recognise, the
production kernel raises ``CorruptDeltaError``.
"""

from repro.core.attached import (DELETE_MARKER, DeltaRecord, parse_qualifier,
                                 update_qualifier)
from repro.core.record_id import decode_record_id
from repro.core.union_read import DeltaOverlay, union_read_file
from repro.hive.pushdown import make_stripe_filter
from repro.hive.valuecodec import decode_value, encode_value


def union_read_rows(handler, split, stats=None):
    """One DualTable split as ``(record_id, values)`` pairs, read the
    way the paper states it: the ORC row stream and the file's
    ``DeltaRecord`` items through :func:`union_read_file`.  Charges and
    counts what ``read_split_batches`` does for the split, so a scan
    built on it is ledger-comparable with the production one."""
    payload = split.payload
    handler = handler.shards[payload.get("shard", 0)]
    file_id, projection = payload["file_id"], payload["projection"]
    with handler.env.cluster.tracer.span(
            "substrate", "union-read:%d" % file_id,
            path=payload["path"]) as span:
        reader = handler.master.reader(payload["path"])
        stripe_filter = make_stripe_filter([n for n, _ in reader.schema],
                                           payload["ranges"] or {})
        cells, _ = handler._prepare_union_read(file_id, reader, stripe_filter)
        stats = {} if stats is None else stats
        nrows = 0
        for item in union_read_file(
                file_id, reader.rows(projection=projection,
                                     stripe_filter=stripe_filter),
                handler.attached.delta_items(cells),
                handler._projection_map(projection), stats=stats):
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
