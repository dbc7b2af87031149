"""Tripwire for ROADMAP item 1: one execution path, ColumnBatches only.

``StorageHandler``'s reads are ``scan_splits`` and
``read_split_batches``; every statement path consumes ColumnBatches.
``read_split`` / ``read_split_with_rids`` survive only as the private
row iterators of the two row-oriented stores — a definition or a call
anywhere else is a statement path sliding back to per-row work, and a
source line naming one of the deleted knobs is a second execution
strategy on its way back in.  So is ``attached_for_split``: MERGE's
matched arm runs through each storage's UPDATE path, and nothing writes
to an Attached Table outside the EditBatch any more.
"""

import ast
import pathlib

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import AnalysisError
from repro.hive import HiveSession
from repro.hive.storage.base import StorageHandler

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
ROW_READS = {"read_split", "read_split_with_rids"}

#: ``module:function`` prefix -> why it may define or call a row read.
ALLOWED = {
    "acid/": "the Hive-ACID baseline merges on read, row by row",
}
GONE = ("engine ==", "make_reader", "merge_mode", "REPRO_ENGINE",
        "REPRO_MERGE", "attached_for_split")


def row_reads():
    """``module:function`` of every definition of, or call to, a row
    read; a closure (a map function) counts for the function or method
    that builds it."""
    found = set()

    def visit(node, module, owner, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, owner + [child.name], in_function)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name in ROW_READS:
                    found.add("%s:%s" % (module, ".".join(owner)))
                visit(child, module,
                      owner if in_function else owner + [child.name], True)
            else:
                if isinstance(child, ast.Call) \
                        and isinstance(child.func, ast.Attribute) \
                        and child.func.attr in ROW_READS:
                    found.add("%s:%s" % (module, ".".join(owner)))
                visit(child, module, owner, in_function)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)),
              path.relative_to(SRC).as_posix(), [], False)
    return found


def test_row_path_is_called_only_from_the_allow_list():
    found = row_reads()
    strays = [where for where in found
              if not any(where.startswith(prefix) for prefix in ALLOWED)]
    assert not strays, ("row-at-a-time readers; read ColumnBatches "
                        "(read_split_batches) instead")
    idle = [prefix for prefix in ALLOWED
            if not any(where.startswith(prefix) for where in found)]
    assert not idle, "no longer reading rows: drop them from ALLOWED"


def test_the_session_dml_left_the_row_path():
    assert StorageHandler.__abstractmethods__ >= {"scan_splits",
                                                  "read_split_batches"}
    assert not ROW_READS & set(vars(StorageHandler))
    assert not [where for where in row_reads()
                if where.startswith(("hive/session.py", "hive/executor.py",
                                     "core/", "shard/"))]


def test_no_source_line_names_a_deleted_knob():
    named = [(path.relative_to(SRC).as_posix(), word)
             for path in sorted(SRC.rglob("*.py"))
             for word in GONE if word in path.read_text()]
    assert not named


def test_set_merge_is_an_unknown_option():
    session = HiveSession(profile=ClusterProfile.laptop())
    with pytest.raises(AnalysisError) as raised:
        session.execute("SET dualtable.merge = row")
    assert "unknown session option" in str(raised.value)
    for option in HiveSession.SESSION_OPTIONS:
        assert option in str(raised.value)
