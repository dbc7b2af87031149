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
express; which path runs never changes the bytes.  An int body of
mostly 1- and 2-byte varints decodes in 16-bit lanes of one Python int
(:func:`_lane_zigzags`, INTERNALS §15.2); short, all-ASCII or
wide-varint bodies go through the byte loop.  The per-value codec
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
    if data.isascii():
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


#: byte -> 1 if it ends a varint (high bit clear), else 0.
_ENDS = bytes(byte < 128 for byte in range(256))
#: the lane kernel runs on bodies of at least this many bytes ...
_LANE_MIN_BYTES = 96
#: ... holding at most one varint of 3+ bytes per this many bytes.
_LANE_BYTES_PER_WIDE = 16
#: lane masks by (lane pattern, lanes), lanes a power of two up to
#: ``_LANE_MASK_CACHE_MAX``; one entry per pattern and size.
_LANE_MASKS = {}
_LANE_MASK_CACHE_MAX = 1 << 16


def _lane_mask(pattern, lanes):
    """An int with the 2-byte ``pattern`` in each of at least ``lanes``
    16-bit lanes (extra lanes are harmless to an ``&``)."""
    size = 1 << (lanes - 1).bit_length()
    mask = _LANE_MASKS.get((pattern, size))
    if mask is None:
        mask = int.from_bytes(pattern * size, "little")
        if size <= _LANE_MASK_CACHE_MAX:
            _LANE_MASKS[pattern, size] = mask
    return mask


def _read_zigzags(data):
    """Every varint in ``data``, unzigzagged, as a sequence (a truncated
    last one is dropped, as by :func:`_read_varints`).  A long body of
    mostly 1- and 2-byte varints goes through :func:`_lane_zigzags`;
    anything else through the byte loop."""
    n = len(data)
    if n >= _LANE_MIN_BYTES and not data.isascii():
        ends = data.translate(_ENDS)
        # A varint of 3+ bytes starts with two continuation bytes.
        wide = ends.count(b"\x01\x00\x00") + ends.startswith(b"\x00\x00")
        if wide * _LANE_BYTES_PER_WIDE <= n:
            return _lane_zigzags(data, ends)
    return [z >> 1 ^ -(z & 1) for z in _read_varints(data)]


def _lane_zigzags(data, ends):
    """The lane kernel behind :func:`_read_zigzags`; ``ends`` is
    ``data.translate(_ENDS)``.

    Byte i of ``data`` goes to 16-bit lane i of one int.  The lane where
    a varint starts gets its two 7-bit groups, low group in the low
    byte; every other lane becomes 0xFFFF, and deleting the 0xFF bytes
    leaves one lane per varint (a kept lane's bytes are at most 0x7F).
    The groups are joined and unzigzagged in place and read as int16.
    A varint of 3+ bytes comes out wrong but at its index and is
    decoded again on its own.
    """
    last = ends.rfind(1) + 1
    if last < len(data):                  # a truncated last varint
        data, ends = data[:last], ends[:last]
    n = len(data)
    spread = bytearray(2 * n)
    spread[0::2] = data
    cur = int.from_bytes(spread, "little")
    cont = cur & _lane_mask(b"\x80\x00", n)    # bit 7: more to come
    lanes = (cur & _lane_mask(b"\x7f\x00", n)
             # the next byte's group, if this one continues
             | cur >> 8 & (cont << 8) - (cont << 1)
             # 0xFFFF where the byte before continues
             | (cont << 25) - (cont << 9))
    joined = lanes.to_bytes(2 * n, "little").translate(None, b"\xff")
    m = len(joined) >> 1
    y = int.from_bytes(joined, "little")
    # z = high << 7 | low; lane = z >> 1 ^ -(z & 1), in 16 bits.
    odd = y & _lane_mask(b"\x01\x00", m)
    lanes = ((y >> 2 & _lane_mask(b"\xc0\x1f", m)
              | y >> 1 & _lane_mask(b"\x3f\x00", m))
             ^ (odd << 16) - odd)
    out = struct.unpack("<%dh" % m, lanes.to_bytes(2 * m, "little"))
    at = ends.find(b"\x00\x00")
    if at < 0:
        return out
    out = list(out)
    index = done = 0
    while at >= 0:
        # ``done`` follows a varint's end, so ``at`` starts a varint.
        index += ends.count(1, done, at)
        z, done = read_varint(data, at)
        out[index] = z >> 1 ^ -(z & 1)
        index += 1
        at = ends.find(b"\x00\x00", done)
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
    # They come unzigzagged, so the unsigned ones (segment count, kind,
    # length) are zigzagged back.
    words = _read_zigzags(raw[pos:])
    ints = []
    pos = 1
    for _ in range(_zigzag(words[0])):
        if words[pos] == -1:                        # kind 1: a run
            run_len = _zigzag(words[pos + 1])
            if run_len > n_present:
                raise ValueError("run of %d in %d values"
                                 % (run_len, n_present))
            first, delta = words[pos + 2:pos + 4]
            ints.extend(range(first, first + delta * run_len, delta)
                        if delta else [first] * run_len)
            pos += 4
        else:
            stop = pos + 2 + _zigzag(words[pos + 1])
            ints.extend(accumulate(words[pos + 2:stop]))
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


def dictionary_encodes(n_strings, n_distinct):
    """Does a string column of ``n_strings`` non-NULL values,
    ``n_distinct`` of them distinct, take the dictionary encoding?"""
    return 0 < n_strings and n_distinct <= max(16, n_strings // 2)


def encode_string_column(values, non_null=None, distinct=None):
    strings, header = _split(values, non_null)
    if distinct is None:
        distinct = set(strings)
    if dictionary_encodes(len(strings), len(distinct)):
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
