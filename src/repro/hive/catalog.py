"""Metastore: table catalog plus the storage-handler registry.

Handler kinds are registered by name (``orc``, ``hbase``, ``dualtable``,
``acid``) so new storage models plug in exactly the way DualTable plugs
into Hive in the paper — without the catalog knowing their internals.
"""

from dataclasses import dataclass, field

from repro.common.errors import CatalogError
from repro.hive.types import TableSchema

_HANDLER_REGISTRY = {}


def register_handler(kind, factory):
    """Register a storage handler class under ``kind``."""
    _HANDLER_REGISTRY[kind.lower()] = factory


def handler_kinds():
    return sorted(_HANDLER_REGISTRY)


@dataclass
class TableInfo:
    """Catalog entry for one table."""

    name: str
    schema: TableSchema
    storage: str
    properties: dict = field(default_factory=dict)
    handler: object = None


class HiveEnv:
    """Shared runtime services handed to every storage handler."""

    def __init__(self, cluster, fs, hbase, runner):
        self.cluster = cluster
        self.fs = fs
        self.hbase = hbase
        self.runner = runner


class Metastore:
    """In-memory table catalog."""

    def __init__(self, env):
        self.env = env
        self._tables = {}

    def create_table(self, name, schema, storage="orc", properties=None,
                     if_not_exists=False):
        key = name.lower()
        if key in self._tables:
            if if_not_exists:
                return self._tables[key]
            raise CatalogError("table already exists: %s" % name)
        if not isinstance(schema, TableSchema):
            schema = TableSchema(schema)
        storage = storage.lower()
        factory = _HANDLER_REGISTRY.get(storage)
        if factory is None:
            raise CatalogError(
                "unknown storage kind %r (registered: %s)"
                % (storage, ", ".join(handler_kinds())))
        info = TableInfo(name=name.lower(), schema=schema, storage=storage,
                         properties=dict(properties or {}))
        info.handler = factory(info, self.env)
        info.handler.create()
        self._tables[key] = info
        return info

    def drop_table(self, name, if_exists=False):
        key = name.lower()
        info = self._tables.pop(key, None)
        if info is None:
            if if_exists:
                return False
            raise CatalogError("no such table: %s" % name)
        info.handler.drop()
        return True

    def table(self, name):
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError("no such table: %s" % name) from None

    def has_table(self, name):
        return name.lower() in self._tables

    def list_tables(self):
        return sorted(self._tables)
