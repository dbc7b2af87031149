"""DualTable record IDs.

A record ID uniquely identifies a row inside one DualTable (Section V-B):
the Master-Table **file ID** (allocated from a system-wide metadata table
whenever a mapper creates a new ORC file) concatenated with the row's
**row number** inside that file (computed for free while reading ORC).

Encoded big-endian so that byte order == (file_id, row_number) order: the
Attached Table's HBase row keys then sort exactly like a Master-Table
scan, which is what makes UNION READ a linear merge of two sorted streams.
"""

import struct

_FORMAT = ">IQ"     # 4-byte file id, 8-byte row number
RECORD_ID_BYTES = struct.calcsize(_FORMAT)


def encode_record_id(file_id, row_number):
    """Pack (file_id, row_number) into a sortable 12-byte key."""
    return struct.pack(_FORMAT, file_id, row_number)


def decode_record_id(key):
    """Inverse of :func:`encode_record_id`."""
    return struct.unpack(_FORMAT, key)


def decode_row_numbers(keys):
    """Row numbers of many record IDs at once (one ``struct.unpack``)."""
    if set(map(len, keys)) - {RECORD_ID_BYTES}:
        raise struct.error("record id is not %d bytes" % RECORD_ID_BYTES)
    return list(struct.unpack(">" + "4xQ" * len(keys), b"".join(keys)))


def file_key_range(file_id):
    """The half-open HBase key range covering one master file's records."""
    start = struct.pack(">I", file_id) + b"\x00" * 8
    stop = struct.pack(">I", file_id + 1) + b"\x00" * 8
    return start, stop
