"""ORC-like file reader: projection, stripe pruning, row numbers.

The reader exposes the three ORC properties DualTable relies on:

* **column projection** — only the byte streams of requested columns are
  decoded *and charged* to the cluster ledger;
* **stripe pruning** — a caller names the stripes (runs of rows) to
  read, and the others are skipped without touching their bytes;
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

A miss may be served by the file's *seed* instead of by decoding: the
footer and rows its writer kept (:func:`repro.orc.writer.write_orc_file`).
A footer miss takes the seed waiting on the cache when the opened bytes
equal the written ones, exactly; the seed then lives in the footer
entry, and a stripe-column miss takes the seed's column when its values
are exactly what the decoder would return
(:meth:`repro.orc.writer.OrcSeed.column` says when).  A seeded miss
charges what a decoded one does and counts as a miss.
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
_EMPTY_STR_BYTES = sys.getsizeof("")
#: a short ASCII string, as :func:`_seed_bytes` counts each one.
_SEED_STRING_BYTES = _EMPTY_STR_BYTES + 7


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
    distinct = list(dict(zip(map(id, sample), sample)).values())
    return (_LIST_BYTES + 8 * n
            + _sizeof_all(distinct) * n // max(1, len(sample)))


def _sizeof_all(values):
    """``sum(map(sys.getsizeof, values))``, without a call per value when
    every value is an exact ``str`` and all are ASCII: a compact ASCII
    string holds the empty string's bytes plus one per character."""
    if set(map(type, values)) == {str}:
        text = "".join(values)
        if text.isascii():
            return _EMPTY_STR_BYTES * len(values) + len(text)
    return sum(map(sys.getsizeof, values))


def _seed_bytes(schema, num_rows):
    """Estimated bytes a file's seed pins: each row's tuple, its slot in
    the rows tuple and its values."""
    per_row = sys.getsizeof(()) + 8 + sum(
        8 + _VALUE_BYTES.get(kind, _SEED_STRING_BYTES) for _, kind in schema)
    return per_row * num_rows


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
        self._seed = None
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
             self._column_index, self.stripes, seeded) = cached
            if seeded is not None and seeded[0] == data:
                self._seed = seeded[1]
            self._charge(self._footer_bytes)
            return
        seed = self._cache.take_seed(key[1:3]) if key is not None else None
        if seed is not None and seed.data != data:
            seed = None             # changed since it was written
        footer = seed.footer() if seed is not None else None
        if footer is None:
            try:
                footer = json.loads(
                    data[footer_start:footer_start + footer_len])
            except ValueError as exc:
                raise CorruptOrcFileError(
                    "unparseable footer: %s" % exc) from exc
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
            # The seed moves into the footer entry, with the bytes it
            # was matched against: it lives and dies with the file's
            # entries, and a later open uses it only for these bytes.
            self._seed = seed
            nbytes = self._footer_bytes
            if seed is not None:
                nbytes += _seed_bytes(self.schema, self.num_rows)
            self._cache.put(
                key,
                (self.schema, self.num_rows, self.metadata,
                 self.column_stats, self._column_index, self.stripes,
                 None if seed is None else (data, seed)),
                nbytes=nbytes)

    @property
    def footer_bytes(self):
        """What an open reads (and charges): the footer and the tail."""
        return self._footer_bytes

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
    def rows(self, projection=None, row_spans=None):
        """Yield ``(row_number, values_tuple)`` pairs of the rows
        :meth:`batches` reads.

        ``projection`` is a list of column names; the returned tuples hold
        those columns in that order (all columns in schema order when
        omitted).
        """
        for batch in self.batches(projection, row_spans=row_spans):
            # An empty projection still yields one empty tuple per row.
            values = (zip(*batch.columns) if batch.columns
                      else repeat((), batch.length))
            yield from enumerate(values, batch.row_base)

    def read_all(self, projection=None, row_spans=None):
        """Materialize :meth:`rows` into a list."""
        return list(self.rows(projection=projection, row_spans=row_spans))

    def batches(self, projection=None, batch_rows=None, row_spans=None):
        """Yield :class:`~repro.vector.ColumnBatch` per stripe.

        Decoded column lists are handed out directly (every charge goes
        through :meth:`_decode_stripe_columns`).  A whole stripe that
        fits in ``batch_rows`` is zero-copy — its batch shares the
        (possibly cached) column lists, so callers must not mutate them.
        ``row_base`` carries each batch's first ordinal row number.

        ``row_spans`` (``{stripe index: [(start, stop), ...]}``, file
        row ordinals; every row when None) reads only those runs of
        rows: a stripe it does not name is skipped without touching its
        bytes, a named stripe is decoded — and charged — whole and
        yields the runs' slices.  A plan makes them
        (:func:`repro.hive.pushdown.admit_stripes`, a keyed plan's row
        groups); the reader evaluates no statistics.
        """
        from repro.vector import ColumnBatch

        if projection is None:
            indices = list(range(len(self.schema)))
        else:
            indices = [self.column_index(name) for name in projection]
        for stripe in self.stripes:
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
            self._charge(stripe.columns[idx]["length"])
            key = (self._cache_key + ("stripe", stripe.index, idx)
                   if self._cache_key else None)
            column = self._cache.get(key) if key is not None else None
            if column is None:
                kind = self.schema[idx][1]
                if self._seed is not None:
                    column = self._seed.column(idx, kind, stripe.first_row,
                                               stripe.num_rows,
                                               stripe.stats(idx))
                if column is None:
                    column = self._decode(stripe, idx)
                if key is not None:
                    self._cache.put(key, column,
                                    nbytes=decoded_bytes(kind, column))
            out.append(column)
        return out

    def _decode(self, stripe, idx):
        """Column ``idx`` of ``stripe``, decoded from its stream."""
        meta = stripe.columns[idx]
        stream = self._data[meta["offset"]:meta["offset"] + meta["length"]]
        name, kind = self.schema[idx]
        try:
            column = DECODERS[kind](stream)
            # The bulk decoders tolerate trailing bytes, so this is what
            # keeps a short or long stream from becoming silently wrong
            # rows.
            if len(column) != stripe.num_rows:
                raise ValueError("decodes to %d values, stripe has %d rows"
                                 % (len(column), stripe.num_rows))
        except _DECODE_ERRORS as exc:
            raise CorruptOrcFileError(
                "corrupt %s stream in %r, stripe %d, column %r: %s: %s"
                % (kind, self._path, stripe.index, name,
                   type(exc).__name__, exc)) from exc
        return column


class OrcMetadata(OrcReader):
    """What a planner opens: an :class:`OrcReader` of ``(fs, path)``
    that charges nothing.  Its footer and decoded columns come through
    the ORC cache as a task's would (so the task that follows hits
    them), but planners read metadata, tasks read files: only a task's
    charged reader reaches the ledger."""

    def _charge(self, nbytes):
        pass
