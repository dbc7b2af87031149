"""Byte codec for typed values stored in HBase cells.

Used by both the Hive-on-HBase storage handler and the DualTable Attached
Table.  Encodings are compact and self-describing enough to round-trip
NULLs and every physical kind.
"""

import struct
from operator import itemgetter

from repro.common.errors import HBaseError

_NULL = b"\x00"
_INT = b"i"
_DOUBLE = b"d"
_STRING = b"s"
_BOOL_TRUE = b"T"
_BOOL_FALSE = b"F"


def encode_value(value):
    """Encode a python value (int/float/str/bool/None) to bytes."""
    if value is None:
        return _NULL
    if value is True:
        return _BOOL_TRUE
    if value is False:
        return _BOOL_FALSE
    if isinstance(value, int):
        return _INT + struct.pack("<q", value)
    if isinstance(value, float):
        return _DOUBLE + struct.pack("<d", value)
    if isinstance(value, str):
        return _STRING + value.encode("utf-8")
    raise HBaseError("cannot encode value of type %s" % type(value).__name__)


def decode_value(data):
    """Inverse of :func:`encode_value`."""
    if not data:
        raise HBaseError("empty cell value")
    tag, payload = data[:1], data[1:]
    if tag == _NULL:
        return None
    if tag == _BOOL_TRUE:
        return True
    if tag == _BOOL_FALSE:
        return False
    if tag == _INT:
        return struct.unpack("<q", payload)[0]
    if tag == _DOUBLE:
        return struct.unpack("<d", payload)[0]
    if tag == _STRING:
        return payload.decode("utf-8")
    raise HBaseError("unknown value tag %r" % tag)


_TAG = itemgetter(0)
_FIXED = {_INT[0]: "xq", _DOUBLE[0]: "xd"}


def decode_values(cells):
    """:func:`decode_value` over a list of cell values: all ints or all
    doubles (one tag, every value 9 bytes) in one ``struct.unpack``, all
    strings without the tag dispatch, anything else — NULLs, bools,
    mixed types, a malformed value — value by value."""
    if b"" not in cells:
        tags = set(map(_TAG, cells))
        if len(tags) == 1:
            (tag,) = tags
            if tag in _FIXED and set(map(len, cells)) == {9}:
                return list(struct.unpack("<" + _FIXED[tag] * len(cells),
                                          b"".join(cells)))
            if tag == _STRING[0]:
                return [str(cell[1:], "utf-8") for cell in cells]
    return [decode_value(cell) for cell in cells]
