"""ORC-like file reader: projection, stripe pruning, row numbers.

The reader exposes the three ORC properties DualTable relies on:

* **column projection** — only the byte streams of requested columns are
  decoded *and charged* to the cluster ledger;
* **stripe pruning** — a caller-supplied predicate over per-stripe column
  statistics skips whole stripes without touching their bytes;
* **row numbers** — every row comes back with its ordinal position in the
  file, which costs nothing to store and is the second half of the
  DualTable record ID.

When the backing filesystem belongs to a cluster with an
``orc_cache`` (see :mod:`repro.parallel.cache`), parsed footers and
decoded stripe columns are memoized under a content-derived key
``(path, file_len, crc32(bytes))``.  A hit skips the *real* CPU work
(JSON parse, stream decode) but charges exactly the bytes a miss
charges, so simulated time never depends on cache state; the
content-exact key means a rewritten or corrupted file can never
produce a stale hit (strict invalidation hooks in the handler are
belt-and-braces on top).  A decoded column is weighed by the memory it
pins (:func:`decoded_bytes`), not by its compressed stream: a run-encoded
column of 100 000 ints is a 48-byte stream and ~4 MB of list and ints.
"""

import json
import struct
import sys
import zlib
from itertools import chain, repeat
from operator import add

from repro.common.errors import CorruptOrcFileError
from repro.orc.encodings import DECODERS
from repro.orc.writer import MAGIC

#: what a decoder raises on a stream that is not what an encoder wrote
#: (UnicodeDecodeError is a ValueError).
_DECODE_ERRORS = (zlib.error, IndexError, struct.error, StopIteration,
                  ValueError)

_LIST_BYTES = sys.getsizeof([])
#: bytes one decoded value holds beyond its list slot, by column kind:
#: an int object (28 bytes, allocated in 32), a float; booleans are the
#: two shared singletons.  Strings are sized by :func:`decoded_bytes`.
_VALUE_BYTES = {"int": 32, "double": 24, "boolean": 0}
#: strings per decoded column that :func:`decoded_bytes` sizes.
_STRING_SAMPLE = 64


def decoded_bytes(kind, column):
    """Estimated bytes a decoded ``kind`` column holds: its list's slots
    plus its value objects.

    A string's size varies, and a dictionary-encoded column shares one
    object per distinct string, so strings are sized from an evenly
    spaced sample in which an object met twice counts once.
    """
    n = len(column)
    per_value = _VALUE_BYTES.get(kind)
    if per_value is not None:
        return _LIST_BYTES + (8 + per_value) * n
    sample = column[::max(1, n // _STRING_SAMPLE)]
    distinct = dict(zip(map(id, sample), sample)).values()
    return (_LIST_BYTES + 8 * n
            + sum(map(sys.getsizeof, distinct)) * n // max(1, len(sample)))


class StripeInfo:
    """Directory entry for one stripe (offsets, row count, stats)."""

    __slots__ = ("index", "offset", "length", "num_rows", "columns",
                 "first_row")

    def __init__(self, index, raw, first_row):
        self.index = index
        self.offset = raw["offset"]
        self.length = raw["length"]
        self.num_rows = raw["num_rows"]
        self.columns = raw["columns"]
        self.first_row = first_row

    def stats(self, column_index):
        return self.columns[column_index]["stats"]


def _footer_problem(footer, body_len):
    """What makes a parsed footer not one :class:`OrcWriter` could have
    written, or None.

    Checks what the reader later relies on: schema kinds a decoder
    exists for, one stream per schema column in every stripe, each
    stream inside the ``body_len`` bytes before the footer, statistics
    to prune by, and stripe row counts that add up to ``num_rows``.
    """
    try:
        kinds = [kind for _, kind in footer["schema"]]
        unknown = [kind for kind in kinds if kind not in DECODERS]
        if unknown:
            return "unknown column kind %r" % (unknown[0],)
        if not isinstance(footer["metadata"], dict) \
                or not isinstance(footer["column_stats"], list):
            return "metadata or column_stats of the wrong type"
        stripes = footer["stripes"]
        per_stripe = [stripe["columns"] for stripe in stripes]
        if set(map(len, per_stripe)) - {len(kinds)}:
            return ("a stripe's column streams do not match the %d-column "
                    "schema" % len(kinds))
        # Whole-file lists, not a loop per stripe: a footer is checked
        # on every cache miss and may hold thousands of streams.
        columns = list(chain.from_iterable(per_stripe))
        starts = ([column["offset"] for column in columns]
                  + [stripe["offset"] for stripe in stripes])
        lengths = ([column["length"] for column in columns]
                   + [stripe["length"] for stripe in stripes])
        counts = [stripe["num_rows"] for stripe in stripes]
        numbers = starts + lengths + counts
        if set(map(type, numbers)) - {int} or min(numbers, default=0) < 0:
            return "an offset, length or row count is not a count"
        if max(map(add, starts, lengths), default=0) > body_len:
            return "a stream lies outside the %d-byte body" % body_len
        stats = [column["stats"] for column in columns]
        if not all(all(map(dict.__contains__, stats, repeat(key)))
                   for key in ("min", "max")):
            return "column statistics lack min/max"
        if sum(counts) != footer["num_rows"]:
            return ("stripe row counts sum to %d, the footer says %r"
                    % (sum(counts), footer["num_rows"]))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return None


class OrcReader:
    """Reads an ORC-like file previously produced by :class:`OrcWriter`.

    ``source`` may be raw bytes, or a ``(filesystem, path)`` pair in which
    case partial reads are charged to the filesystem's cluster ledger.
    """

    def __init__(self, source, path=None):
        if path is not None:
            self._fs = source
            self._path = path
            self._data = source.read_file_silent(path)
            self._cache = getattr(source.cluster, "orc_cache", None)
        else:
            self._fs = None
            self._path = None
            self._data = source
            self._cache = None
        if self._cache is not None and self._cache.budget_bytes > 0:
            self._cache_key = (self._path, len(self._data),
                               zlib.crc32(self._data))
        else:
            self._cache = None
            self._cache_key = None
        self._parse_footer()

    def _parse_footer(self):
        data = self._data
        tail = len(MAGIC) + 8
        if len(data) < tail or data[-len(MAGIC):] != MAGIC:
            raise CorruptOrcFileError("bad magic in %r" % (self._path,))
        (footer_len,) = struct.unpack("<Q", data[-tail:-len(MAGIC)])
        footer_start = len(data) - tail - footer_len
        if footer_start < 0:
            raise CorruptOrcFileError("footer overruns file")
        self._footer_bytes = footer_len + tail
        key = self._cache_key + ("footer",) if self._cache_key else None
        cached = self._cache.get(key) if key is not None else None
        if cached is not None:
            # The parsed footer is immutable after construction, so the
            # cached objects are shared; the charge is identical to the
            # miss path's (same bytes, same rates).
            (self.schema, self.num_rows, self.metadata, self.column_stats,
             self._column_index, self.stripes) = cached
            self._charge(self._footer_bytes)
            return
        try:
            footer = json.loads(data[footer_start:footer_start + footer_len])
        except ValueError as exc:
            raise CorruptOrcFileError("unparseable footer: %s" % exc) from exc
        problem = _footer_problem(footer, footer_start)
        if problem is not None:
            raise CorruptOrcFileError("malformed footer in %r: %s"
                                      % (self._path, problem))
        self.schema = [tuple(col) for col in footer["schema"]]
        self.num_rows = footer["num_rows"]
        self.metadata = footer["metadata"]
        self.column_stats = footer["column_stats"]
        self._column_index = {name: i for i, (name, _) in enumerate(self.schema)}
        self.stripes = []
        first_row = 0
        for i, raw in enumerate(footer["stripes"]):
            stripe = StripeInfo(i, raw, first_row)
            first_row += stripe.num_rows
            self.stripes.append(stripe)
        self._charge(self._footer_bytes)
        if key is not None:
            self._cache.put(
                key,
                (self.schema, self.num_rows, self.metadata,
                 self.column_stats, self._column_index, self.stripes),
                nbytes=self._footer_bytes)

    def _charge(self, nbytes):
        if self._fs is not None and nbytes:
            self._fs.charge_read(nbytes)

    def column_index(self, name):
        try:
            return self._column_index[name]
        except KeyError:
            raise CorruptOrcFileError(
                "no column %r in %r" % (name, [n for n, _ in self.schema])
            ) from None

    # ------------------------------------------------------------------
    # Row iteration.
    # ------------------------------------------------------------------
    def rows(self, projection=None, stripe_filter=None):
        """Yield ``(row_number, values_tuple)`` pairs.

        ``projection`` is a list of column names; the returned tuples hold
        those columns in that order (all columns in schema order when
        omitted).  ``stripe_filter`` is called with each
        :class:`StripeInfo` and may return False to skip the stripe.
        """
        if projection is None:
            indices = list(range(len(self.schema)))
        else:
            indices = [self.column_index(name) for name in projection]
        for stripe in self.stripes:
            if stripe_filter is not None and not stripe_filter(stripe):
                continue
            columns = self._decode_stripe_columns(stripe, indices)
            # zip() of no columns is empty; an empty projection still
            # yields one empty tuple per row.
            values = zip(*columns) if columns else repeat((), stripe.num_rows)
            yield from enumerate(values, stripe.first_row)

    def read_all(self, projection=None, stripe_filter=None):
        """Materialize :meth:`rows` into a list."""
        return list(self.rows(projection=projection, stripe_filter=stripe_filter))

    def batches(self, projection=None, stripe_filter=None, batch_rows=None,
                row_spans=None):
        """Yield :class:`~repro.vector.ColumnBatch` per stripe.

        The columnar sibling of :meth:`rows`: identical projection,
        pruning and byte charges (both funnel through
        :meth:`_decode_stripe_columns`), but the decoded column lists
        are handed out directly instead of being transposed into row
        tuples.  A whole stripe that fits in ``batch_rows`` is
        zero-copy — its batch shares the (possibly cached) column
        lists, so callers must not mutate them.  ``row_base`` carries
        each batch's first ordinal row number, replacing the per-row
        numbers of :meth:`rows`.

        ``row_spans`` (``{stripe index: [(start, stop), ...]}``, file
        row ordinals) reads only those runs of rows: a stripe it does
        not name is skipped like a filtered one, a named stripe is
        decoded — and charged — whole and yields the runs' slices.
        """
        from repro.vector import ColumnBatch

        if projection is None:
            indices = list(range(len(self.schema)))
        else:
            indices = [self.column_index(name) for name in projection]
        for stripe in self.stripes:
            if stripe_filter is not None and not stripe_filter(stripe):
                continue
            first = stripe.first_row
            if row_spans is None:
                runs = ((first, first + stripe.num_rows),)
            else:
                runs = row_spans.get(stripe.index)
                if not runs:
                    continue
            columns = self._decode_stripe_columns(stripe, indices)
            for start, stop in runs:
                step = batch_rows or stop - start
                if stop - start == stripe.num_rows <= step:
                    yield ColumnBatch(columns, stripe.num_rows,
                                      row_base=first)
                    continue
                for lo in range(start - first, stop - first, step):
                    hi = min(lo + step, stop - first)
                    yield ColumnBatch([col[lo:hi] for col in columns],
                                      hi - lo, row_base=first + lo)

    def _decode_stripe_columns(self, stripe, indices):
        out = []
        for idx in indices:
            meta = stripe.columns[idx]
            start, length = meta["offset"], meta["length"]
            self._charge(length)
            key = (self._cache_key + ("stripe", stripe.index, idx)
                   if self._cache_key else None)
            column = self._cache.get(key) if key is not None else None
            if column is None:
                stream = self._data[start:start + length]
                name, kind = self.schema[idx]
                try:
                    column = DECODERS[kind](stream)
                    # The bulk decoders tolerate trailing bytes, so this
                    # is what keeps a short or long stream from becoming
                    # silently wrong rows.
                    if len(column) != stripe.num_rows:
                        raise ValueError(
                            "decodes to %d values, stripe has %d rows"
                            % (len(column), stripe.num_rows))
                except _DECODE_ERRORS as exc:
                    raise CorruptOrcFileError(
                        "corrupt %s stream in %r, stripe %d, column %r: "
                        "%s: %s" % (kind, self._path, stripe.index, name,
                                    type(exc).__name__, exc)) from exc
                if key is not None:
                    self._cache.put(key, column,
                                    nbytes=decoded_bytes(kind, column))
            out.append(column)
        return out

    # ------------------------------------------------------------------
    # Size accounting helpers (used by cost estimation).
    # ------------------------------------------------------------------
    def projected_bytes(self, projection=None, stripe_filter=None):
        """Bytes that :meth:`rows` would charge for this access pattern."""
        if projection is None:
            indices = list(range(len(self.schema)))
        else:
            indices = [self.column_index(name) for name in projection]
        total = 0
        for stripe in self.stripes:
            if stripe_filter is not None and not stripe_filter(stripe):
                continue
            total += sum(stripe.columns[i]["length"] for i in indices)
        return total
