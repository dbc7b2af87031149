"""ORC-like file writer: stripes, per-column streams, statistics, metadata.

File layout (all offsets absolute):

.. code-block:: text

    [stripe 0 streams][stripe 1 streams]...[footer JSON][footer_len u64][MAGIC]

The footer records the schema, user metadata (DualTable stores its file ID
here), and per-stripe directory entries: row count plus, for each column,
the stream's (offset, length, statistics).  Statistics carry count, null
count, min, max and — for numeric columns — sum, enabling stripe-level
predicate pushdown in the reader.
"""

import hashlib
import json
import struct
import threading
from collections import OrderedDict
from itertools import islice, repeat
from operator import is_not

from repro.common.errors import OrcError
from repro.orc.encodings import ENCODERS, non_null_values

MAGIC = b"ORCSIM1\x00"
DEFAULT_STRIPE_ROWS = 5000

_VALID_KINDS = ("int", "double", "string", "boolean")

MEMO_BYTES = 8 << 20          # encode memo's stream bytes; LRU beyond
_SEEN_LIMIT = 1 << 14         # first-sighting marks before starting over
_EXACT = {"int": (int, "q"), "double": (float, "d"), "string": (str, "q"),
          "boolean": (bool, "?")}


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


class _StreamMemo:
    """Column content -> ``(stream, stats)``, LRU-bounded by stream bytes.

    Admits values exactly of the kind's type or None (the footer prints
    ``1``, ``true``, ``1.0`` apart) from a second sighting on; NaN-sum
    columns (``ndv`` counts NaNs by identity) are not stored.  The stats
    dicts are shared (a file's may be its stripe's): never mutate them."""

    def __init__(self):
        self.used = 0
        self._entries = OrderedDict()
        self._seen = set()
        self._lock = threading.Lock()

    def _key(self, kind, values):
        """``(kind, rows, digest)``; None when first seen or not admitted."""
        mark = hash((kind, tuple(values)))
        if mark not in self._seen:        # a race costs work, never a byte
            if len(self._seen) >= _SEEN_LIMIT:
                self._seen.clear()
            self._seen.add(mark)
            return None
        exact, code = _EXACT[kind]                  # type, struct code
        types = set(map(type, values))
        if not types <= {exact, type(None)}:
            return None
        non_null = non_null_values(values) if type(None) in types else values
        # Injective: a tagged NULL map if any NULL, a tag, then the values
        # (bit-exact: -0.0 != 0.0; a STRING's lengths, then its UTF-8).
        digest = hashlib.blake2b(digest_size=20)
        if len(non_null) != len(values):
            digest.update(b"N" + bytes(map(is_not, values, repeat(None))))
        digest.update(kind.encode())
        packed = map(len, non_null) if kind == "string" else non_null
        digest.update(struct.pack("<%d%s" % (len(non_null), code), *packed))
        if kind == "string":
            digest.update("".join(non_null).encode("utf-8", "surrogatepass"))
        return kind, len(values), digest.digest()

    def encode(self, kind, values):
        """The stream and statistics of one stripe column."""
        try:    # an unhashable value raises what set() below would raise
            key = self._key(kind, values)
        except struct.error:                # an INT past int64
            key = None
        with self._lock:
            if key in self._entries:            # a None key never is
                self._entries.move_to_end(key)
                return self._entries[key]
        # One non-NULL pass and one set per column, shared by the
        # statistics and the encoder's dictionary decision.
        non_null = non_null_values(values)
        distinct = set(non_null)
        stream = ENCODERS[kind](values, non_null, distinct)
        stats = _column_stats(kind, len(values), non_null, distinct)
        if key is not None and stats.get("sum") == stats.get("sum"):
            with self._lock:
                if key not in self._entries:
                    self._entries[key] = stream, stats
                    self.used += len(stream)
                while self.used > MEMO_BYTES:
                    self.used -= len(self._entries.popitem(last=False)[1][0])
        return stream, stats


_MEMO = _StreamMemo()


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
            stream, stats = _MEMO.encode(kind, values)
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
                agg = stats if agg is None else _merge_stats(kind, agg, stats)
            file_stats.append(agg or _column_stats(kind, 0))
        footer = {
            "schema": self.schema,
            "num_rows": self._num_rows,
            "metadata": self.metadata,
            "stripes": self._stripes,
            "column_stats": file_stats,
        }
        footer_bytes = json.dumps(footer, separators=(",", ":")).encode("utf-8")
        return (bytes(self._body) + footer_bytes
                + struct.pack("<Q", len(footer_bytes)) + MAGIC)

    @property
    def num_rows(self):
        return self._num_rows


def write_orc(schema, rows, stripe_rows=DEFAULT_STRIPE_ROWS, metadata=None):
    """One-shot helper: serialize ``rows`` and return the file bytes."""
    writer = OrcWriter(schema, stripe_rows=stripe_rows, metadata=metadata)
    writer.write_rows(rows)
    return writer.finish()
