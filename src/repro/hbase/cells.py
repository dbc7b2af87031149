"""HBase cell model: KeyValues with type, timestamp and sort order.

HBase's on-disk and in-memory structures are all sorted runs of
``KeyValue`` entries ordered by ``(row, qualifier, timestamp DESC)``.
Newer versions sort *before* older ones so the first match wins.  Delete
tombstones shadow older puts of the same coordinates.
"""

from enum import IntEnum


class CellType(IntEnum):
    PUT = 0
    DELETE_COLUMN = 1   # delete all versions of one (row, qualifier)
    DELETE_ROW = 2      # delete every column of the row


class KeyValue:
    """One cell: the atom of the HBase data model."""

    __slots__ = ("row", "qualifier", "ts", "cell_type", "value")

    def __init__(self, row, qualifier, ts, cell_type, value=b""):
        if not isinstance(row, bytes):
            raise TypeError("row key must be bytes, got %r" % type(row))
        if not isinstance(qualifier, bytes):
            raise TypeError("qualifier must be bytes, got %r" % type(qualifier))
        self.row = row
        self.qualifier = qualifier
        self.ts = int(ts)
        self.cell_type = CellType(cell_type)
        self.value = value

    def sort_key(self):
        """Total order: row asc, qualifier asc, timestamp DESC, tombstones
        first within equal timestamps (so a delete at ts shadows a put at
        the same ts, matching HBase semantics)."""
        return (self.row, self.qualifier, -self.ts, -int(self.cell_type))

    def size_bytes(self):
        """Approximate storage footprint (key + ts + type + value)."""
        return len(self.row) + len(self.qualifier) + 9 + len(self.value)

    def __eq__(self, other):
        return (isinstance(other, KeyValue)
                and self.sort_key() == other.sort_key()
                and self.value == other.value)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return "KeyValue(%r, %r, ts=%d, %s, %dB)" % (
            self.row, self.qualifier, self.ts, self.cell_type.name,
            len(self.value))


ROW_TOMBSTONE_QUALIFIER = b""


def row_tombstone(row, ts):
    """A whole-row delete marker (sorts before any real qualifier)."""
    return KeyValue(row, ROW_TOMBSTONE_QUALIFIER, ts, CellType.DELETE_ROW)
