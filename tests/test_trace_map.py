"""Guard for perfbench's wall-clock layer attribution.

``perfbench/trace.py`` wraps each layer's entry points *by name*
(``LAYER_MAP``, ``FACTORY_MAP``).  A refactor that renames, moves or
deletes one of them does not fail anything: the spec just resolves to
nothing, and the layer's time silently lands in its caller.  This test
makes that loud.  ``perfbench`` is imported read-only.
"""

from perfbench.trace import FACTORY_MAP, LAYER_MAP, Tracing

#: specs that already resolve to nothing; the next change to perfbench
#: should prune them (and this set).
STALE = {
    "repro.core.union_read:union_read_batches",
    "repro.core.handler:DualTableHandler.read_split",
    "repro.core.handler:DualTableHandler.read_split_with_rids",
    "repro.shard.sharded:ShardedDualTableHandler._edit_update",
    "repro.shard.sharded:ShardedDualTableHandler._edit_delete",
    "repro.shard.sharded:ShardedDualTableHandler._commit_edit_batch",
    # the store reads its own files now; the time stays in
    # ``DualTableHandler.read_split_batches``, the same layer.
    "repro.core.handler:DualTableHandler._prepare_union_read",
    # a DELETE runs through ``execute_update`` now, traced in the same
    # ``core.handler.dml`` layer.
    "repro.core.handler:DualTableHandler.execute_delete",
    # the paper's row merge is the tests' specification
    # (``tests/delta_reference.py``); no read of ``src/`` called it.
    "repro.core.union_read:union_read_file",
}


def specs():
    return [spec for table in (LAYER_MAP, FACTORY_MAP)
            for entry_points in table.values() for spec in entry_points]


def test_every_traced_spec_resolves_to_a_target():
    tracing = Tracing()
    unresolved = {spec for spec in specs() if not tracing._targets(spec)}
    assert unresolved - STALE == set(), "a traced layer lost its entry point"
    assert unresolved == STALE & set(specs()), \
        "a stale spec resolves again: drop it from STALE"
