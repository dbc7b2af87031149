"""Tripwire for ROADMAP item 3: who still reads row at a time.

``read_split`` / ``read_split_with_rids`` are the row path's entry
points.  Every production statement path except the ones listed here
reads ``ColumnBatch``es; a new caller outside the list is a statement
path sliding back to per-row work (or a new one born there), and an
entry nothing matches any more has to leave the list — that is how the
list shrinks to nothing.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
ROW_READS = {"read_split", "read_split_with_rids"}

#: ``module:function`` prefix -> why it may still call the row path.
ALLOWED = {
    "hive/executor.py:ScanSource.make_reader":
        "the row engine's reader: the oracle the batch engine is held to",
    "hive/merge.py:": "MERGE is row-at-a-time on every storage kind",
    "acid/": "the Hive-ACID baseline, kept or dropped as a whole",
    "core/handler.py:DualTableHandler.read_split":
        "read_split delegates to read_split_with_rids",
    "shard/sharded.py:ShardedDualTableHandler.read_split":
        "both delegate to the owning shard",
    "hive/storage/base.py:StorageHandler.read_split_batches":
        "default for handlers with no columnar reader (HBase)",
    "hive/storage/base.py:StorageHandler.read_all_rows": "tests and tools",
}


def row_path_callers():
    """``module:function`` of every call to the row path; a closure (a
    map function) counts for the function or method that builds it."""
    found = set()

    def visit(node, module, owner, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, owner + [child.name], in_function)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
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
    callers = row_path_callers()
    strays = [caller for caller in callers
              if not any(caller.startswith(prefix) for prefix in ALLOWED)]
    assert not strays, ("new row-at-a-time readers; read ColumnBatches "
                        "(read_split_batches) instead")
    idle = [prefix for prefix in ALLOWED
            if not any(caller.startswith(prefix) for caller in callers)]
    assert not idle, "no longer on the row path: drop them from ALLOWED"


def test_the_session_dml_left_the_row_path():
    assert not [caller for caller in row_path_callers()
                if caller.startswith("hive/session.py")]
