"""Column stream encodings for the ORC-like file format.

Implements the encodings that give ORC its compactness:

* integers: zigzag varints with run-length encoding of repeats and deltas,
* doubles: fixed 8-byte IEEE754,
* strings: dictionary encoding when the column repeats, direct otherwise,
* booleans: bit packing,

each preceded by a null-presence bitmap and finally compressed with zlib.
Values decode to exactly what was encoded (round-trip property-tested).

The byte layout is written down in docs/INTERNALS.md ("ORC stream layout
and codec kernels").  Every function here works on a whole column with
C-level bulk operations (``bytes``, ``map``, ``struct``, ``str.join``)
and drops to a per-value loop only for the inputs a fast path cannot
express; which path runs never changes the bytes.  The per-value codec
these kernels replaced lives on as the oracle in
``tests/orc_reference.py``.

Encoders take the column plus, optionally, what the writer has already
computed for its statistics: the non-NULL values (the column itself
when nothing is NULL) and their ``set``.
"""

import struct
import zlib
from itertools import accumulate, chain, repeat
from operator import eq, is_not, sub

from repro.common.errors import OrcError

_DIRECT = 0
_DICT = 1

#: byte -> its eight flags, least significant bit first.
_BYTE_FLAGS = [tuple(bool(byte >> bit & 1) for bit in range(8))
               for byte in range(256)]
#: 0/1 flag bytes -> ASCII binary digits, for ``int(text, 2)``.
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


# ----------------------------------------------------------------------
# Varint / zigzag primitives.
# ----------------------------------------------------------------------
def _varint(value):
    """One unsigned LEB128 varint (header fields, run descriptors)."""
    return bytes((value,)) if value < 128 else bytes(_varints((value,)))


def _zigzag(n):
    return n << 1 if n >= 0 else (-n << 1) - 1


def _unzigzag(z):
    return z >> 1 if not z & 1 else -((z + 1) >> 1)


def _varints(values):
    """Concatenated varints of non-negative ``values``."""
    if not values or max(values) < 128:
        return bytes(values)
    out = bytearray()
    append = out.append
    for value in values:
        while value > 127:
            append(value & 127 | 128)
            value >>= 7
        append(value)
    return out


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


def _read_varints(data):
    """Every varint in ``data`` (a truncated last one is dropped; the
    reader's row-count check is what catches a short stream)."""
    if not data or max(data) < 128:
        return list(data)
    out = []
    append = out.append
    it = iter(data)
    for byte in it:
        if byte < 128:
            append(byte)
            continue
        result = byte & 127
        shift = 7
        for byte in it:                # the rest of a multi-byte varint
            if byte < 128:
                append(result | byte << shift)
                break
            result |= (byte & 127) << shift
            shift += 7
    return out


# ----------------------------------------------------------------------
# Null bitmap and stream header.
# ----------------------------------------------------------------------
def _pack_bits(flags):
    """Bit ``i & 7`` of byte ``i >> 3`` is the i-th of ``flags`` (bools)."""
    flags = bytes(flags)
    if not flags:
        return b""
    # Flag i is bit i of one big integer: reversed binary text, parsed
    # in base 2 (power-of-two bases are exempt from the int digit limit).
    digits = flags[::-1].translate(_FLAG_DIGITS)
    return int(digits, 2).to_bytes((len(flags) + 7) >> 3, "little")


def _unpack_bits(data, count):
    flags = list(chain.from_iterable(map(_BYTE_FLAGS.__getitem__, data)))
    del flags[count:]
    return flags


def _all_set(count):
    """The bitmap of ``count`` set flags."""
    tail = count & 7
    return b"\xff" * (count >> 3) + (bytes(((1 << tail) - 1,)) if tail else b"")


def non_null_values(values):
    """``values`` without its NULLs; the same list when it has none."""
    return (values if None not in values
            else [v for v in values if v is not None])


def _split(values, non_null):
    """``(non_null, header)`` of a column: count, bitmap length, bitmap."""
    if non_null is None:
        non_null = non_null_values(values)
    count = len(values)
    if len(non_null) == count:
        bitmap = _all_set(count)
    else:
        bitmap = _pack_bits(map(is_not, values, repeat(None)))
    return non_null, _varint(count) + _varint(len(bitmap)) + bitmap


def _read_header(raw):
    """``(present, n_present, pos)``; ``present`` is None when nothing is
    NULL, else one flag per value."""
    count, pos = read_varint(raw, 0)
    bitmap_len, pos = read_varint(raw, pos)
    if bitmap_len != (count + 7) >> 3:
        raise ValueError("bitmap of %d bytes for %d values"
                         % (bitmap_len, count))
    bitmap = raw[pos:pos + bitmap_len]
    pos += bitmap_len
    if bitmap == _all_set(count):
        return None, count, pos
    present = _unpack_bits(bitmap, count)
    return present, sum(present), pos


def _scatter(present, values):
    """Re-insert the NULLs: ``values`` in order where ``present``."""
    if present is None:
        return values
    it = iter(values)
    return [next(it) if flag else None for flag in present]


# ----------------------------------------------------------------------
# Integer column: RLE over zigzag deltas.
# ----------------------------------------------------------------------
def encode_int_column(values, non_null=None, distinct=None):
    ints, header = _split(values, non_null)
    n = len(ints)
    deltas = list(map(sub, ints[1:], ints))
    # A run is >= 3 values with a constant delta, so it can only start
    # where two consecutive deltas agree.  Greedy, left to right: the
    # first such position starts a run that extends while the delta
    # holds; the literals before it form one block whose first value is
    # encoded against 0.
    agree = bytes(map(eq, deltas, deltas[1:]))
    segments = []
    i = 0
    while i < n:
        start = agree.find(1, i)
        if start < 0:
            start = n
        if start > i:
            segments.append(
                b"\x00" + _varint(start - i) + _varints(  # _zigzag, inlined
                    [v << 1 if v >= 0 else (-v << 1) - 1
                     for v in (ints[i], *deltas[i:start - 1])]))
            if start == n:
                break
        stop = agree.find(0, start)
        if stop < 0:
            stop = n - 2
        segments.append(b"\x01" + _varint(stop + 2 - start)
                        + _varint(_zigzag(ints[start]))
                        + _varint(_zigzag(deltas[start])))
        i = stop + 2
    return zlib.compress(
        b"".join([header, _varint(len(segments))] + segments))


def decode_int_column(data):
    raw = zlib.decompress(data)
    present, n_present, pos = _read_header(raw)
    # Everything after the bitmap is a varint, the run kind included.
    words = _read_varints(raw[pos:])
    ints = []
    pos = 1
    for _ in range(words[0]):
        if words[pos] == 1:
            run_len, first, delta = words[pos + 1:pos + 4]
            if run_len > n_present:
                raise ValueError("run of %d in %d values"
                                 % (run_len, n_present))
            first, delta = _unzigzag(first), _unzigzag(delta)
            ints.extend(range(first, first + delta * run_len, delta)
                        if delta else [first] * run_len)
            pos += 4
        else:
            stop = pos + 2 + words[pos + 1]
            ints.extend(accumulate(              # _unzigzag, inlined
                [z >> 1 if not z & 1 else -((z + 1) >> 1)
                 for z in words[pos + 2:stop]]))
            pos = stop
    return _scatter(present, ints)


# ----------------------------------------------------------------------
# Double column.
# ----------------------------------------------------------------------
def encode_double_column(values, non_null=None, distinct=None):
    doubles, header = _split(values, non_null)
    return zlib.compress(
        header + struct.pack("<%dd" % len(doubles), *map(float, doubles)))


def decode_double_column(data):
    raw = zlib.decompress(data)
    present, n_present, pos = _read_header(raw)
    return _scatter(present,
                    list(struct.unpack_from("<%dd" % n_present, raw, pos)))


# ----------------------------------------------------------------------
# String column: dictionary or direct.
# ----------------------------------------------------------------------
def _length_prefixed(strings):
    """Each string as varint(byte length) + UTF-8 bytes."""
    try:
        # chr(length) is that varint while length < 128, and a longer
        # or non-ASCII string makes the ASCII encode fail.
        return "".join(
            [chr(len(s)) + s for s in strings]).encode("ascii")
    except ValueError:
        out = bytearray()
        for s in strings:
            encoded = s.encode("utf-8")
            out += _varint(len(encoded))
            out += encoded
        return out


def _read_length_prefixed(raw, pos, n):
    strings = []
    for _ in range(n):
        length = raw[pos]
        pos += 1
        if length > 127:
            length, pos = read_varint(raw, pos - 1)
        strings.append(raw[pos:pos + length].decode("utf-8"))
        pos += length
    if pos > len(raw):
        # A slice past the end is silently short; the lengths are not.
        raise ValueError("string block overruns its stream")
    return strings, pos


def encode_string_column(values, non_null=None, distinct=None):
    strings, header = _split(values, non_null)
    if distinct is None:
        distinct = set(strings)
    if strings and len(distinct) <= max(16, len(strings) // 2):
        ordered = sorted(distinct)
        index = dict(zip(ordered, range(len(ordered))))
        indices = map(index.__getitem__, strings)
        body = (bytes((_DICT,)) + _varint(len(ordered))
                + _length_prefixed(ordered)
                + (bytes(indices) if len(ordered) <= 128
                   else _varints(list(indices))))
    else:
        body = bytes((_DIRECT,)) + _length_prefixed(strings)
    return zlib.compress(header + body)


def decode_string_column(data):
    raw = zlib.decompress(data)
    present, n_present, pos = _read_header(raw)
    mode = raw[pos]
    pos += 1
    if mode == _DICT:
        dict_size, pos = read_varint(raw, pos)
        dictionary, pos = _read_length_prefixed(raw, pos, dict_size)
        indices = (raw[pos:pos + n_present] if dict_size <= 128
                   else _read_varints(raw[pos:])[:n_present])
        strings = list(map(dictionary.__getitem__, indices))
    elif mode == _DIRECT:
        strings, pos = _read_length_prefixed(raw, pos, n_present)
    else:
        raise OrcError("unknown string encoding mode %d" % mode)
    return _scatter(present, strings)


# ----------------------------------------------------------------------
# Boolean column.
# ----------------------------------------------------------------------
def encode_boolean_column(values, non_null=None, distinct=None):
    bools, header = _split(values, non_null)
    packed = _pack_bits(map(bool, bools))
    return zlib.compress(header + _varint(len(packed)) + packed)


def decode_boolean_column(data):
    raw = zlib.decompress(data)
    present, n_present, pos = _read_header(raw)
    packed_len, pos = read_varint(raw, pos)
    return _scatter(present,
                    _unpack_bits(raw[pos:pos + packed_len], n_present))


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
