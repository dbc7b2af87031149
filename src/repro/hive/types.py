"""Hive type system and table schemas.

Types map onto the ORC-like format's physical kinds; ``DATE`` is stored as
an ISO-8601 string so lexicographic order equals date order (which is what
makes stripe pruning on date predicates work, as in the State Grid
workload).
"""

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from repro.common.errors import AnalysisError


class HiveType(Enum):
    INT = "int"
    BIGINT = "bigint"
    DOUBLE = "double"
    DECIMAL = "decimal"
    STRING = "string"
    DATE = "date"
    BOOLEAN = "boolean"

    @classmethod
    def parse(cls, text):
        text = text.strip().lower()
        aliases = {
            "integer": "int",
            "long": "bigint",
            "float": "double",
            "varchar": "string",
            "char": "string",
            "bool": "boolean",
            "timestamp": "date",
        }
        text = aliases.get(text, text)
        try:
            return cls(text)
        except ValueError:
            raise AnalysisError("unknown Hive type: %r" % text) from None


# Physical column kind in the ORC-like format / HBase value codec.
PHYSICAL_KIND = {
    HiveType.INT: "int",
    HiveType.BIGINT: "int",
    HiveType.DOUBLE: "double",
    HiveType.DECIMAL: "double",
    HiveType.STRING: "string",
    HiveType.DATE: "string",
    HiveType.BOOLEAN: "boolean",
}

_PYTHON_COERCERS = {
    "int": int,
    "double": float,
    "string": str,
    "boolean": bool,
}


@dataclass(frozen=True)
class Column:
    """One table column."""

    name: str
    htype: HiveType

    @property
    def physical_kind(self):
        return PHYSICAL_KIND[self.htype]

    @property
    def python_type(self):
        """The exact Python type stored values of this column have."""
        return _PYTHON_COERCERS[self.physical_kind]


class TableSchema:
    """Ordered column list with name lookup and row validation."""

    def __init__(self, columns):
        self.columns = [
            col if isinstance(col, Column) else Column(col[0], HiveType.parse(col[1]))
            for col in columns
        ]
        if not self.columns:
            raise AnalysisError("a table needs at least one column")
        self._index = {}
        for i, col in enumerate(self.columns):
            key = col.name.lower()
            if key in self._index:
                raise AnalysisError("duplicate column name: %s" % col.name)
            self._index[key] = i
        self._coercers = [col.python_type for col in self.columns]

    def __len__(self):
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __eq__(self, other):
        return (isinstance(other, TableSchema)
                and self.columns == other.columns)

    @property
    def names(self):
        return [c.name for c in self.columns]

    def has_column(self, name):
        return name.lower() in self._index

    def index_of(self, name):
        try:
            return self._index[name.lower()]
        except KeyError:
            raise AnalysisError(
                "no column %r (have: %s)" % (name, ", ".join(self.names))
            ) from None

    def column(self, name):
        return self.columns[self.index_of(name)]

    def orc_schema(self):
        """The physical schema handed to the ORC writer."""
        return [(c.name, c.physical_kind) for c in self.columns]

    def coerce_row(self, row):
        """Validate arity and coerce values to the declared types."""
        if len(row) != len(self.columns):
            raise AnalysisError(
                "row arity %d != schema arity %d" % (len(row), len(self.columns)))
        try:
            return tuple([
                value if value is None or type(value) is coercer
                else coercer(value)
                for value, coercer in zip(row, self._coercers)])
        except (TypeError, ValueError):
            # Errors only: walk the row again to name the offending cell.
            for index, value in enumerate(row):
                self.coerce_value(index, value)
            raise

    def coerce_value(self, index, value):
        """``value`` as column ``index`` stores it."""
        coercer = self._coercers[index]
        if value is None or type(value) is coercer:
            return value
        try:
            return coercer(value)
        except (TypeError, ValueError) as exc:
            column = self.columns[index]
            raise AnalysisError(
                "cannot coerce %r to %s for column %s: %s"
                % (value, column.htype.value, column.name, exc)) from exc

    def coerce_rows(self, rows):
        """``[coerce_row(r) for r in rows]``, worked column by column.

        One C-level pass per column finds the types it holds; only a
        column holding a foreign type is walked value by value, and rows
        that need nothing come back as the tuples they are.  A row of the
        wrong arity or a value that cannot be coerced hands the list to
        :meth:`coerce_row`, which names the first bad row and cell.
        """
        rows = rows if isinstance(rows, list) else list(rows)
        try:
            if {len(self.columns)}.issuperset(map(len, rows)):
                as_is = {tuple}.issuperset(map(type, rows))
                columns = []
                for index, coercer in enumerate(self._coercers):
                    column = list(map(itemgetter(index), rows))
                    if not {coercer, type(None)}.issuperset(
                            map(type, column)):
                        as_is = False
                        column = [value if value is None
                                  or type(value) is coercer
                                  else coercer(value) for value in column]
                    columns.append(column)
                return rows if as_is else list(zip(*columns))
        except (ArithmeticError, TypeError, ValueError):
            pass
        return [self.coerce_row(row) for row in rows]

    def __repr__(self):
        cols = ", ".join("%s %s" % (c.name, c.htype.value) for c in self.columns)
        return "TableSchema(%s)" % cols
