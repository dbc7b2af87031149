"""ORC-like file writer: stripes, per-column streams, statistics, metadata.

File layout (all offsets absolute):

.. code-block:: text

    [stripe 0 streams][stripe 1 streams]...[footer JSON][footer_len u64][MAGIC]

The footer records the schema, user metadata (DualTable stores its file ID
here), and per-stripe directory entries: row count plus, for each column,
the stream's (offset, length, statistics).  Statistics carry count, null
count, min, max and — for numeric columns — sum, enabling stripe-level
predicate pushdown in the reader.

:func:`write_orc_file` is how the system writes a file: it also hands
the file's cluster an :class:`OrcSeed`, the writer's own footer and
rows, which the file's first cached read takes instead of decoding
(INTERNALS §6 and §15.3).
"""

import hashlib
import json
import marshal
import struct
import threading
import zlib
from collections import OrderedDict
from itertools import islice
from operator import eq, itemgetter

from repro.common.errors import OrcError
from repro.orc.encodings import ENCODERS, dictionary_encodes, non_null_values

MAGIC = b"ORCSIM1\x00"
DEFAULT_STRIPE_ROWS = 5000

_VALID_KINDS = ("int", "double", "string", "boolean")

MEMO_BYTES = 8 << 20          # file memo's stored file bytes; LRU beyond
_SEEN_LIMIT = 1 << 14         # first-sighting marks before starting over

#: stripes longer than this decode a dictionary-encoded string column
#: rather than take it from a seed (see :meth:`OrcSeed.column`).
_SEED_DICTIONARY_ROWS = 256
#: the exact type of every non-NULL value a column's decoder returns.
_DECODED_TYPE = {"int": int, "double": float, "string": str,
                 "boolean": bool}
_NULL_TYPE = type(None)
_JSON_SCALARS = {str, int, float, bool, _NULL_TYPE}


def _column_stats(kind, count, non_null=(), distinct=()):
    """Statistics of ``count`` values whose non-NULLs are ``non_null``
    (``distinct`` is their set)."""
    stats = {
        "count": count,
        "nulls": count - len(non_null),
        "min": None,
        "max": None,
        "ndv": 0,
    }
    if non_null:
        stats["min"] = min(non_null)
        stats["max"] = max(non_null)
        stats["ndv"] = len(distinct)
        if kind in ("int", "double"):
            stats["sum"] = sum(non_null)
    return stats


def _merge_stats(kind, a, b):
    merged = {
        "count": a["count"] + b["count"],
        "nulls": a["nulls"] + b["nulls"],
        "min": a["min"],
        "max": a["max"],
        # NDV cannot be merged exactly; the sum is a safe upper bound.
        "ndv": a.get("ndv", 0) + b.get("ndv", 0),
    }
    for key, pick in (("min", min), ("max", max)):
        left, right = a[key], b[key]
        if left is None:
            merged[key] = right
        elif right is None:
            merged[key] = left
        else:
            merged[key] = pick(left, right)
    if kind in ("int", "double"):
        merged["sum"] = a.get("sum", 0) + b.get("sum", 0)
    return merged


class _FileMemo:
    """File content -> file bytes, LRU-bounded by the bytes stored.

    A file's first sighting only marks ``hash(rows)``; from the second on
    the key is a digest of its marshalled content, which keeps types,
    float bits and repeated objects (so NaN identity), and raises
    ``ValueError`` on non-builtin types, which then bypass the memo.  A
    NaN-sum column (``ndv`` counts NaNs by identity) is never stored.
    INTERNALS §15.3 has the details."""

    def __init__(self):
        self.used = 0
        self._entries = OrderedDict()   # key -> file bytes, LRU order
        self._footers = {}              # key -> (token, footer) of those
        self._seen = set()
        self._lock = threading.Lock()

    def key(self, schema, rows, stripe_rows, metadata):
        """A digest of the file, or None when first seen or not admitted."""
        try:
            mark = hash(rows)
        except TypeError:                   # a list row, a dict value
            return None
        if mark not in self._seen:        # a race costs work, never a byte
            if len(self._seen) >= _SEEN_LIMIT:
                self._seen.clear()
            self._seen.add(mark)
            return None
        try:
            content = marshal.dumps((schema, stripe_rows, metadata, rows))
        except ValueError:
            return None
        return hashlib.blake2b(content, digest_size=20).digest()

    def get(self, key):
        """The stored ``(data, token, footer)`` of a file, or None."""
        with self._lock:
            if key in self._entries:            # a None key never is
                self._entries.move_to_end(key)
                return (self._entries[key],) + self._footers[key]
        return None

    def put(self, key, built, stripes):
        sums = [column["stats"].get("sum") for stripe in stripes
                for column in stripe["columns"]]
        if key is None or any(total != total for total in sums):
            return
        with self._lock:
            if key not in self._entries:
                self._entries[key] = built[0]
                self._footers[key] = built[1:]
                self.used += len(built[0])
            while self.used > MEMO_BYTES:
                old, data = self._entries.popitem(last=False)
                del self._footers[old]
                self.used -= len(data)


_FILE_MEMO = _FileMemo()


class OrcWriter:
    """Buffers rows and serializes them into an ORC-like byte string.

    ``schema`` is a list of ``(name, kind)`` pairs with kind one of
    ``int``, ``double``, ``string``, ``boolean``.  Rows are tuples in
    schema order.
    """

    def __init__(self, schema, stripe_rows=DEFAULT_STRIPE_ROWS, metadata=None):
        if not schema:
            raise OrcError("schema must have at least one column")
        for name, kind in schema:
            if kind not in _VALID_KINDS:
                raise OrcError("unsupported column kind %r for %r" % (kind, name))
        self.schema = [(str(name), kind) for name, kind in schema]
        self.stripe_rows = int(stripe_rows)
        if self.stripe_rows <= 0:
            raise OrcError("stripe_rows must be positive")
        self.metadata = dict(metadata or {})
        self._columns = [[] for _ in self.schema]
        self._stripes = []
        self._body = bytearray()
        self._num_rows = 0
        self._finished = False

    def write_row(self, row):
        if self._finished:
            raise OrcError("writer already finished")
        if len(row) != len(self.schema):
            raise OrcError(
                "row arity %d != schema arity %d" % (len(row), len(self.schema)))
        for col, value in zip(self._columns, row):
            col.append(value)
        self._num_rows += 1
        if len(self._columns[0]) >= self.stripe_rows:
            self._flush_stripe()

    def write_rows(self, rows):
        """Append ``rows`` a stripe's worth at a time, column-wise."""
        arity = {len(self.schema)}
        rows = iter(rows)
        while True:
            chunk = list(islice(
                rows, self.stripe_rows - len(self._columns[0])))
            if not chunk:
                return
            if self._finished or set(map(len, chunk)) != arity:
                # write_row raises at the offending row, with the rows
                # before it appended.
                for row in chunk:
                    self.write_row(row)
                continue
            for col, values in zip(self._columns, zip(*chunk)):
                col.extend(values)
            self._num_rows += len(chunk)
            if len(self._columns[0]) >= self.stripe_rows:
                self._flush_stripe()

    def _flush_stripe(self):
        n = len(self._columns[0])
        if n == 0:
            return
        stripe = {"offset": len(self._body), "num_rows": n, "columns": []}
        for (name, kind), values in zip(self.schema, self._columns):
            # One non-NULL pass and one set per column, shared by the
            # statistics and the encoder's dictionary decision.
            non_null = non_null_values(values)
            distinct = set(non_null)
            stream = ENCODERS[kind](values, non_null, distinct)
            stats = _column_stats(kind, len(values), non_null, distinct)
            stripe["columns"].append({"offset": len(self._body),
                                      "length": len(stream), "stats": stats})
            self._body.extend(stream)
        stripe["length"] = len(self._body) - stripe["offset"]
        self._stripes.append(stripe)
        self._columns = [[] for _ in self.schema]

    def finish(self):
        """Flush pending rows and return the complete file bytes."""
        if self._finished:
            raise OrcError("writer already finished")
        self._flush_stripe()
        self._finished = True
        file_stats = []
        for idx, (name, kind) in enumerate(self.schema):
            agg = None
            for stripe in self._stripes:
                stats = stripe["columns"][idx]["stats"]
                # A copy for one stripe: a reader given this footer as
                # parsed must not find the file's stats aliasing a stripe's.
                agg = (dict(stats) if agg is None
                       else _merge_stats(kind, agg, stats))
            file_stats.append(agg or _column_stats(kind, 0))
        #: what the footer bytes serialize, kept for the file's seed.
        self.footer = {
            "schema": [list(column) for column in self.schema],
            "num_rows": self._num_rows,
            "metadata": self.metadata,
            "stripes": self._stripes,
            "column_stats": file_stats,
        }
        footer_bytes = json.dumps(self.footer,
                                  separators=(",", ":")).encode("utf-8")
        return (bytes(self._body) + footer_bytes
                + struct.pack("<Q", len(footer_bytes)) + MAGIC)

    @property
    def num_rows(self):
        return self._num_rows


def _round_trips(footer):
    """Does ``footer`` equal its own JSON round trip, types included?

    Then a reader may take it as parsed.  The schema, counts and offsets
    always do; metadata needs ``str`` keys, and metadata and statistics
    need JSON scalars of exact builtin types, none of them NaN."""
    stats = [column["stats"] for stripe in footer["stripes"]
             for column in stripe["columns"]] + footer["column_stats"]
    metadata = footer["metadata"]
    values = [value for entry in stats for value in entry.values()]
    values += metadata.values()
    return (set(map(type, metadata)) <= {str}
            and set(map(type, values)) <= _JSON_SCALARS
            and all(map(eq, values, values)))


class OrcSeed:
    """One written file as its writer knows it: the bytes, their
    ``(length, crc32)`` token, the marshalled footer when the footer
    equals its JSON round trip (else None) and the rows.

    A reader whose opened bytes equal ``data`` may take :meth:`footer`
    as parsed and :meth:`column` instead of a decoded stream.  A file
    built and a file returned by the memo give the same seed, so no
    reader can tell which it was.
    """

    __slots__ = ("data", "token", "_footer", "rows")

    def __init__(self, data, token, footer, rows):
        self.data = data
        self.token = token
        self._footer = footer
        self.rows = rows

    def footer(self):
        """A fresh copy of the footer dict the bytes serialize, or None.

        Marshalled, not kept as a dict: a 16-column, three-stripe footer
        is 5 KB marshalled and 38 KB as objects, a copy loads in about a
        quarter of the time ``json.loads`` and the footer checks take,
        and it references no value of the rows (the memo's marshalled
        keys depend on the values' reference counts)."""
        return None if self._footer is None else marshal.loads(self._footer)

    def column(self, idx, kind, start, count, stats):
        """Column ``idx`` of rows ``start`` .. ``start + count``, whose
        statistics are ``stats``, as a ``kind`` decoder returns it; or
        None, to decode instead.

        None when the decoder would not return these very values: rows
        that are not tuples (a list row can change after the write), a
        value of another type (an ``int`` in a ``double`` column, a
        ``bool`` in an ``int`` one), or a NaN (a NaN sum), which decodes
        to a fresh object per value.  None too for a dictionary-encoded
        string column of a long stripe: its decode is one C-level pass
        per row to one object per distinct string, which grouping and
        joins then compare by identity, where the rows may hold one
        object per row.  A short stripe's decode is mostly fixed cost."""
        if self.rows is None or kind == "string" \
                and count > _SEED_DICTIONARY_ROWS and dictionary_encodes(
                    stats["count"] - stats["nulls"], stats["ndv"]):
            return None
        if kind == "double" and stats.get("sum") != stats.get("sum"):
            return None
        column = list(map(itemgetter(idx), self.rows[start:start + count]))
        if set(map(type, column)) - {_DECODED_TYPE[kind], _NULL_TYPE}:
            return None
        return column


def _write(schema, rows, stripe_rows, metadata):
    """Build ``rows`` into one file, or take it from the memo: its seed."""
    rows = tuple(rows)
    key = _FILE_MEMO.key(schema, rows, stripe_rows, metadata)
    built = _FILE_MEMO.get(key)
    if built is None:
        writer = OrcWriter(schema, stripe_rows=stripe_rows, metadata=metadata)
        writer.write_rows(rows)
        data = writer.finish()
        footer = (marshal.dumps(writer.footer)
                  if _round_trips(writer.footer) else None)
        built = (data, (len(data), zlib.crc32(data)), footer)
        _FILE_MEMO.put(key, built, writer._stripes)
    return OrcSeed(*built, rows if {tuple}.issuperset(map(type, rows))
                   else None)


def write_orc(schema, rows, stripe_rows=DEFAULT_STRIPE_ROWS, metadata=None):
    """Serialize ``rows`` (any iterable) into one file and return its bytes.

    A file seen before in this process is returned from a process-wide
    memo instead of being built again (the same bytes)."""
    return _write(schema, rows, stripe_rows, metadata).data


def write_orc_file(fs, path, schema, rows, stripe_rows=DEFAULT_STRIPE_ROWS,
                   metadata=None):
    """Write ``rows`` as the ORC file ``path`` of ``fs``; its bytes.

    Every file the system writes comes through here.  Once the write has
    returned, the file's seed waits on the cluster's ORC cache for the
    file's first cached read; a failed write leaves none."""
    seed = _write(schema, rows, stripe_rows, metadata)
    fs.write_file(path, seed.data)
    cache = getattr(fs.cluster, "orc_cache", None)
    if cache is not None:
        cache.add_seed(seed.token, seed)
    return seed.data
