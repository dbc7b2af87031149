"""Columnar batches: the unit every statement path reads and evaluates.

A :class:`ColumnBatch` is the unit of work on the batch path: one Python
list per projected column plus a row count.  Readers produce batches
(ORC stripes decode straight into column lists, so a batch over a stripe
is zero-copy), expression closures evaluate whole columns at a time, and
operators that need row tuples (shuffle, joins) transpose at the edge.

Batching is a *wall-clock* matter only: every simulated charge, metric
and result byte is what row-at-a-time evaluation produces (see
INTERNALS §8 for the determinism contract).

Batches that wrap cached ORC stripe columns share those lists with the
cache — treat every batch as immutable; filtering produces a new batch
via :meth:`ColumnBatch.take`.
"""

from bisect import bisect_right
from collections import defaultdict
from itertools import islice
from operator import itemgetter

#: Default rows per batch; also the MaterializedSource split chunk size
#: (the two are deliberately one knob — see HiveSession.set_batch_rows).
DEFAULT_BATCH_ROWS = 20_000

#: Bounds for the session batch-size knob.  Below 64 rows the per-batch
#: Python overhead dominates and the engine degenerates to row-at-a-time
#: costs; above 1M rows a single batch can pin hundreds of MB of
#: intermediate columns.
MIN_BATCH_ROWS = 64
MAX_BATCH_ROWS = 1_048_576


def validate_batch_rows(batch_rows):
    """Validate and normalize the batch-size knob; returns an int."""
    try:
        value = int(batch_rows)
    except (TypeError, ValueError):
        raise ValueError("batch_rows must be an integer, got %r"
                         % (batch_rows,)) from None
    if not MIN_BATCH_ROWS <= value <= MAX_BATCH_ROWS:
        raise ValueError(
            "batch_rows must be between %d and %d, got %d"
            % (MIN_BATCH_ROWS, MAX_BATCH_ROWS, value))
    return value


class ColumnBatch:
    """A run of rows stored column-wise.

    ``columns``  — one list per projected column, all of length
                   ``length`` (zero-width batches carry row count only);
    ``row_base`` — ordinal of the first row within its source ORC file,
                   or None once provenance is lost (post-filter);
    ``dropped``  — sorted file ordinals of the rows a delta merge deleted
                   from this batch's span.  Together with ``row_base``
                   they let :meth:`ordinals` resolve a surviving row to
                   its file ordinal lazily, for the rows a caller picks.
    """

    __slots__ = ("columns", "length", "row_base", "dropped")

    def __init__(self, columns, length, row_base=None, dropped=()):
        self.columns = columns
        self.length = length
        self.row_base = row_base
        self.dropped = dropped

    def __len__(self):
        return self.length

    def rows(self):
        """Iterate row tuples (transposing at the batch boundary)."""
        if not self.columns:
            return iter([()] * self.length)
        return zip(*self.columns)

    def ordinals(self, indices):
        """File-ordinal row numbers of the rows at ``indices``: one pass
        over ``dropped`` plus a bisect per *picked* row, nothing per
        scanned row."""
        base = self.row_base
        if not self.dropped:
            return [base + i for i in indices]
        # gaps[k] = survivors ahead of the k-th dropped row; the survivor
        # at index i sits behind every dropped row with gaps[k] <= i.
        gaps = [position - base - k
                for k, position in enumerate(self.dropped)]
        return [base + i + bisect_right(gaps, i) for i in indices]

    def take(self, indices):
        """New batch holding only ``indices`` (in order); copies."""
        return ColumnBatch([gather(col, indices) for col in self.columns],
                           len(indices))


def gather(seq, indices):
    """``[seq[i] for i in indices]`` without a Python-level loop."""
    return list(map(seq.__getitem__, indices))


def group_indices(key_cols):
    """Row indices grouped by key tuple: ``{key: [i, ...]}`` with keys in
    first-seen order and each index list ascending."""
    groups = defaultdict(list)
    for i, key in enumerate(zip(*key_cols)):
        groups[key].append(i)
    return groups


def spliced(column, offsets, values, base=0):
    """A copy of ``column`` with ``values[i]`` written at
    ``offsets[i] - base`` — the sparse column-patch primitive."""
    out = list(column)
    for offset, value in zip(offsets, values):
        out[offset - base] = value
    return out


def batch_from_rows(rows, width):
    """One ColumnBatch from a list of row tuples."""
    # One C-level pass per column; zip(*rows) walks every row once per
    # *cell* through as many iterators as there are rows.
    columns = [list(map(itemgetter(i), rows)) for i in range(width)]
    return ColumnBatch(columns, len(rows))


def batches_from_rows(rows, width, batch_rows=None):
    """Chunk rows (a list or any iterator, consumed lazily) into
    ColumnBatches of at most ``batch_rows``."""
    rows = iter(rows)
    size = batch_rows or DEFAULT_BATCH_ROWS
    chunk = list(islice(rows, size))
    while chunk:
        yield batch_from_rows(chunk, width)
        chunk = list(islice(rows, size))
