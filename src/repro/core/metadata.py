"""System-wide DualTable metadata table (Section V-B, point 1).

One HBase table holds an incremental integer **file ID** counter per
DualTable, plus bookkeeping the cost evaluator uses (historical update
ratios).  Mappers that create new Master-Table files fetch a unique ID
here and store it in the ORC file's user metadata.
"""

import struct

META_TABLE = "__dualtable_meta__"

_Q_COUNTER = b"next_file_id"
_Q_HISTORY = b"ratio_history"


class DualTableMetadata:
    """Accessor for the system metadata table."""

    def __init__(self, hbase_service):
        self._service = hbase_service
        self._table = hbase_service.ensure_table(META_TABLE, system=True)

    def _rowkey(self, table_name):
        return b"dt:" + table_name.encode("utf-8")

    def register_table(self, table_name):
        row = self._rowkey(table_name)
        if self._table.get(row) is None:
            self._table.put(row, {_Q_COUNTER: struct.pack(">I", 0)})

    def unregister_table(self, table_name):
        self._table.delete_row(self._rowkey(table_name))

    def next_file_id(self, table_name):
        """Allocate the next unique master-file ID for a DualTable."""
        row = self._rowkey(table_name)
        cells = self._table.get(row)
        current = 0
        if cells and _Q_COUNTER in cells:
            current = struct.unpack(">I", cells[_Q_COUNTER])[0]
        self._table.put(row, {_Q_COUNTER: struct.pack(">I", current + 1)})
        return current

    def record_ratio(self, table_name, ratio):
        """Append an observed modification ratio (cost-model history)."""
        row = self._rowkey(table_name)
        cells = self._table.get(row)
        history = b""
        if cells and _Q_HISTORY in cells:
            history = cells[_Q_HISTORY]
        history += struct.pack(">d", float(ratio))
        # Keep the last 32 observations.
        history = history[-32 * 8:]
        self._table.put(row, {_Q_HISTORY: history})

    def ratio_history(self, table_name):
        cells = self._table.get(self._rowkey(table_name))
        if not cells or _Q_HISTORY not in cells:
            return []
        raw = cells[_Q_HISTORY]
        return [struct.unpack(">d", raw[i:i + 8])[0]
                for i in range(0, len(raw), 8)]

