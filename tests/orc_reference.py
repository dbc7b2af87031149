"""Reference oracle for the ORC codec: the per-value implementation.

These are the column encoders/decoders and the row-at-a-time writer
loop exactly as they stood in ``src/repro/orc`` before the bulk kernels
replaced them (moved here verbatim; only this docstring and the
``Reference*`` names are new).  ``tests/test_orc_codec_differential.py``
holds the kernels to them: same stream bytes, same file bytes, same
decoded values and element types.

The one known defect is kept on purpose: ``_zigzag`` is wrong for
``n >= 2**63``, so the oracle silently corrupts those values and the
differential test excludes exactly that range.
"""

import struct
import zlib

from repro.common.errors import OrcError
from repro.orc.writer import OrcWriter

_DIRECT = 0
_DICT = 1


# ----------------------------------------------------------------------
# Varint / zigzag primitives.
# ----------------------------------------------------------------------
def _zigzag(n):
    return (n << 1) ^ (n >> 63) if n >= 0 else ((-n) << 1) - 1


def _unzigzag(z):
    return (z >> 1) if (z & 1) == 0 else -((z + 1) >> 1)


def write_varint(buf, value):
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def read_varint(data, pos):
    shift = 0
    result = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


# ----------------------------------------------------------------------
# Null bitmap.
# ----------------------------------------------------------------------
def _pack_bits(flags):
    out = bytearray()
    byte = 0
    for i, flag in enumerate(flags):
        if flag:
            byte |= 1 << (i & 7)
        if (i & 7) == 7:
            out.append(byte)
            byte = 0
    if len(flags) & 7:
        out.append(byte)
    return bytes(out)


def _unpack_bits(data, count):
    return [bool(data[i >> 3] & (1 << (i & 7))) for i in range(count)]


# ----------------------------------------------------------------------
# Integer column: RLE over zigzag deltas.
# ----------------------------------------------------------------------
def encode_int_column(values):
    present = [v is not None for v in values]
    buf = bytearray()
    write_varint(buf, len(values))
    bitmap = _pack_bits(present)
    write_varint(buf, len(bitmap))
    buf.extend(bitmap)
    ints = [v for v in values if v is not None]
    # RLE runs: (repeat_count, first_value, delta); literal runs fall back
    # to delta-encoding each value against its predecessor.
    i, n = 0, len(ints)
    runs = []
    while i < n:
        j = i + 1
        if j < n:
            delta = ints[j] - ints[i]
            while j + 1 < n and ints[j + 1] - ints[j] == delta:
                j += 1
        if j - i >= 2:
            runs.append(("run", j - i + 1, ints[i], delta))
            i = j + 1
        else:
            start = i
            while i < n:
                j = i + 1
                if j < n:
                    delta = ints[j] - ints[i]
                    k = j
                    while k + 1 < n and ints[k + 1] - ints[k] == delta:
                        k += 1
                    if k - i >= 2:
                        break
                i += 1
            runs.append(("lit", ints[start:i]))
    write_varint(buf, len(runs))
    for run in runs:
        if run[0] == "run":
            _, count, first, delta = run
            buf.append(1)
            write_varint(buf, count)
            write_varint(buf, _zigzag(first))
            write_varint(buf, _zigzag(delta))
        else:
            literals = run[1]
            buf.append(0)
            write_varint(buf, len(literals))
            prev = 0
            for v in literals:
                write_varint(buf, _zigzag(v - prev))
                prev = v
    return zlib.compress(bytes(buf))


def decode_int_column(data):
    raw = zlib.decompress(data)
    pos = 0
    count, pos = read_varint(raw, pos)
    bitmap_len, pos = read_varint(raw, pos)
    present = _unpack_bits(raw[pos:pos + bitmap_len], count)
    pos += bitmap_len
    nruns, pos = read_varint(raw, pos)
    ints = []
    for _ in range(nruns):
        kind = raw[pos]
        pos += 1
        if kind == 1:
            run_len, pos = read_varint(raw, pos)
            z, pos = read_varint(raw, pos)
            first = _unzigzag(z)
            z, pos = read_varint(raw, pos)
            delta = _unzigzag(z)
            ints.extend(first + delta * k for k in range(run_len))
        else:
            nlit, pos = read_varint(raw, pos)
            prev = 0
            for _ in range(nlit):
                z, pos = read_varint(raw, pos)
                prev += _unzigzag(z)
                ints.append(prev)
    out = []
    it = iter(ints)
    for flag in present:
        out.append(next(it) if flag else None)
    return out


# ----------------------------------------------------------------------
# Double column.
# ----------------------------------------------------------------------
def encode_double_column(values):
    present = [v is not None for v in values]
    buf = bytearray()
    write_varint(buf, len(values))
    bitmap = _pack_bits(present)
    write_varint(buf, len(bitmap))
    buf.extend(bitmap)
    doubles = [float(v) for v in values if v is not None]
    buf.extend(struct.pack("<%dd" % len(doubles), *doubles))
    return zlib.compress(bytes(buf))


def decode_double_column(data):
    raw = zlib.decompress(data)
    pos = 0
    count, pos = read_varint(raw, pos)
    bitmap_len, pos = read_varint(raw, pos)
    present = _unpack_bits(raw[pos:pos + bitmap_len], count)
    pos += bitmap_len
    n_present = sum(present)
    doubles = struct.unpack_from("<%dd" % n_present, raw, pos)
    out = []
    it = iter(doubles)
    for flag in present:
        out.append(next(it) if flag else None)
    return out


# ----------------------------------------------------------------------
# String column: dictionary or direct.
# ----------------------------------------------------------------------
def encode_string_column(values):
    present = [v is not None for v in values]
    strings = [v for v in values if v is not None]
    distinct = set(strings)
    use_dict = strings and len(distinct) <= max(16, len(strings) // 2)
    buf = bytearray()
    write_varint(buf, len(values))
    bitmap = _pack_bits(present)
    write_varint(buf, len(bitmap))
    buf.extend(bitmap)
    if use_dict:
        buf.append(_DICT)
        ordered = sorted(distinct)
        index = {s: i for i, s in enumerate(ordered)}
        write_varint(buf, len(ordered))
        for s in ordered:
            encoded = s.encode("utf-8")
            write_varint(buf, len(encoded))
            buf.extend(encoded)
        for s in strings:
            write_varint(buf, index[s])
    else:
        buf.append(_DIRECT)
        for s in strings:
            encoded = s.encode("utf-8")
            write_varint(buf, len(encoded))
            buf.extend(encoded)
    return zlib.compress(bytes(buf))


def decode_string_column(data):
    raw = zlib.decompress(data)
    pos = 0
    count, pos = read_varint(raw, pos)
    bitmap_len, pos = read_varint(raw, pos)
    present = _unpack_bits(raw[pos:pos + bitmap_len], count)
    pos += bitmap_len
    mode = raw[pos]
    pos += 1
    strings = []
    n_present = sum(present)
    if mode == _DICT:
        dict_size, pos = read_varint(raw, pos)
        dictionary = []
        for _ in range(dict_size):
            length, pos = read_varint(raw, pos)
            dictionary.append(raw[pos:pos + length].decode("utf-8"))
            pos += length
        for _ in range(n_present):
            idx, pos = read_varint(raw, pos)
            strings.append(dictionary[idx])
    elif mode == _DIRECT:
        for _ in range(n_present):
            length, pos = read_varint(raw, pos)
            strings.append(raw[pos:pos + length].decode("utf-8"))
            pos += length
    else:
        raise OrcError("unknown string encoding mode %d" % mode)
    out = []
    it = iter(strings)
    for flag in present:
        out.append(next(it) if flag else None)
    return out


# ----------------------------------------------------------------------
# Boolean column.
# ----------------------------------------------------------------------
def encode_boolean_column(values):
    present = [v is not None for v in values]
    bools = [bool(v) for v in values if v is not None]
    buf = bytearray()
    write_varint(buf, len(values))
    bitmap = _pack_bits(present)
    write_varint(buf, len(bitmap))
    buf.extend(bitmap)
    packed = _pack_bits(bools)
    write_varint(buf, len(packed))
    buf.extend(packed)
    return zlib.compress(bytes(buf))


def decode_boolean_column(data):
    raw = zlib.decompress(data)
    pos = 0
    count, pos = read_varint(raw, pos)
    bitmap_len, pos = read_varint(raw, pos)
    present = _unpack_bits(raw[pos:pos + bitmap_len], count)
    pos += bitmap_len
    packed_len, pos = read_varint(raw, pos)
    n_present = sum(present)
    bools = _unpack_bits(raw[pos:pos + packed_len], n_present)
    out = []
    it = iter(bools)
    for flag in present:
        out.append(next(it) if flag else None)
    return out


ENCODERS = {
    "int": encode_int_column,
    "double": encode_double_column,
    "string": encode_string_column,
    "boolean": encode_boolean_column,
}

DECODERS = {
    "int": decode_int_column,
    "double": decode_double_column,
    "string": decode_string_column,
    "boolean": decode_boolean_column,
}


# ----------------------------------------------------------------------
# Writer: one ``write_row`` per row, two non-null passes per column.
# ----------------------------------------------------------------------
def _column_stats(kind, values):
    non_null = [v for v in values if v is not None]
    stats = {
        "count": len(values),
        "nulls": len(values) - len(non_null),
        "min": None,
        "max": None,
        "ndv": 0,
    }
    if non_null:
        stats["min"] = min(non_null)
        stats["max"] = max(non_null)
        stats["ndv"] = len(set(non_null))
        if kind in ("int", "double"):
            stats["sum"] = sum(non_null)
    return stats


class ReferenceOrcWriter(OrcWriter):
    """The pre-kernel writer; ``finish`` (footer layout) is inherited."""

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
        for row in rows:
            self.write_row(row)

    def _flush_stripe(self):
        n = len(self._columns[0])
        if n == 0:
            return
        stripe = {"offset": len(self._body), "num_rows": n, "columns": []}
        for (name, kind), values in zip(self.schema, self._columns):
            stream = ENCODERS[kind](values)
            stripe["columns"].append({
                "offset": len(self._body),
                "length": len(stream),
                "stats": _column_stats(kind, values),
            })
            self._body.extend(stream)
        stripe["length"] = len(self._body) - stripe["offset"]
        self._stripes.append(stripe)
        self._columns = [[] for _ in self.schema]


def reference_write_orc(schema, rows, stripe_rows=5000, metadata=None):
    writer = ReferenceOrcWriter(schema, stripe_rows=stripe_rows,
                                metadata=metadata)
    writer.write_rows(rows)
    return writer.finish()
