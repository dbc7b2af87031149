"""Chaos property tests: randomized fault schedules, seeded end-to-end.

Each schedule installs a random :class:`FaultPlan`, runs a random DML
script against a DualTable of one flavour (``dml``: plain, ``lookup``:
PRIMARY KEY, ``shard``: sharded PRIMARY KEY), and checks after every
statement that UNION READ matches a plain-dict replay oracle — with
crashed statements resolved through :meth:`DualTableHandler.recover`
(redo log durable ⇒ rolled forward, else rolled back).  The runner
asserts invariants 1-5 of :mod:`repro.faults.chaos` on every flavour;
the tests here sanity-check the summary it returns and the coverage.

``CHAOS_SCHEDULES`` sets the seed count of every flavour and of the
server schedules (defaults 50 / 30 / 20 and 12; CI's smoke jobs run 10).
Fixed seed ranges of every flavour also run with the cycle collector off
and must leave no cyclic garbage (INTERNALS §6).
"""

import os

import pytest

from repro.faults.chaos import (FLAVOURS, run_chaos_schedule,
                                run_server_chaos_schedule)
from tests.test_memory_bounds import cyclic_garbage

_N = os.environ.get("CHAOS_SCHEDULES")


def _seeds(default):
    return int(_N) if _N is not None else default


N_SCHEDULES = _seeds(50)
N_LOOKUP_SCHEDULES = _seeds(30)
N_SHARD_SCHEDULES = _seeds(20)
N_SERVER_SCHEDULES = _seeds(12)

#: the ``fired`` lists of seeds 0-4 per flavour, recorded before the
#: three per-flavour runners became one.  A change to a fault registry,
#: a statement mix or the RNG draw order moves them.
PINNED_FIRED = {
    "dml": [
        [], [],
        [("dualtable.compact.partial.manifest", "kill"),
         ("dualtable.compact.partial.delta_drop", "kill")],
        [("mapreduce.map", "slow")],
        [],
    ],
    "lookup": [
        [("lookup.hbase_probe", "region_crash")],
        [("lookup.hbase_probe", "region_crash"),
         ("lookup.index_read", "crash"), ("lookup.index_read", "crash")],
        [("lookup.index_read", "crash"),
         ("lookup.hbase_probe", "region_crash")],
        [("lookup.index_read", "crash"), ("lookup.index_read", "crash"),
         ("lookup.hbase_probe", "region_crash")],
        [("lookup.hbase_probe", "region_crash"),
         ("lookup.index_read", "crash")],
    ],
    "shard": [
        [("dualtable.rebalance.spill", "crash")],
        [("hbase.put", "region_crash")],
        [("dualtable.rebalance.manifest", "kill"),
         ("dualtable.rebalance.manifest", "crash"),
         ("dualtable.rebalance.apply", "crash")],
        [("lookup.hbase_probe", "region_crash"),
         ("hbase.put", "region_crash"),
         ("dualtable.rebalance.apply", "kill")],
        [("dualtable.rebalance.manifest", "kill")],
    ],
}


@pytest.mark.parametrize("seed", range(N_SCHEDULES))
def test_chaos_schedule_invariants(seed):
    summary = run_chaos_schedule(seed)
    assert summary["statements"] == 6
    assert summary["failed"] >= summary["rolled_forward"]


def test_chaos_schedules_are_reproducible():
    a = run_chaos_schedule(3)
    b = run_chaos_schedule(3)
    assert a["fired"] == b["fired"]
    assert (a["failed"], a["rolled_forward"]) == \
        (b["failed"], b["rolled_forward"])


def test_chaos_seeds_are_pinned():
    """Seeds keep drawing the same faults across refactors, per flavour."""
    for flavour, fired in PINNED_FIRED.items():
        assert [run_chaos_schedule(seed, flavour)["fired"]
                for seed in range(5)] == fired, flavour


@pytest.mark.parametrize("flavour", sorted(FLAVOURS) + ["server"])
def test_chaos_leaves_no_cyclic_garbage(flavour):
    """Fault actions, region crashes, ``recover()`` and failed server
    statements hold no reference cycle: seeds 0-4 of every flavour and
    server seeds 0-2 leave nothing for the cycle collector."""
    def schedules():
        if flavour == "server":
            for seed in range(3):
                run_server_chaos_schedule(seed)
        else:
            for seed in range(5):
                run_chaos_schedule(seed, flavour)
        return [], []

    _, _, found = cyclic_garbage(schedules)
    assert found == []


def test_chaos_coverage_across_seeds():
    """The default seed range must actually exercise the fault layer."""
    fired = []
    for seed in range(min(N_SCHEDULES, 30)):
        fired.extend(run_chaos_schedule(seed)["fired"])
    assert fired, "no faults fired across the chaos seed range"
    points = {point for point, _ in fired}
    assert len(points) >= 3, "chaos schedules hit too few injection points"


@pytest.mark.parametrize("seed", range(N_SERVER_SCHEDULES))
def test_server_chaos_schedule_invariants(seed):
    """Concurrent chaos: kills + faults under a multi-session server.

    All invariants (zero lost/phantom writes, no orphaned txn state,
    recover() idempotence) are asserted inside the schedule runner;
    here we only sanity-check the shape of the summary it returns.
    """
    summary = run_server_chaos_schedule(seed)
    assert summary["seed"] == seed
    assert 1 <= summary["kills"] <= 3
    assert summary["statements"] == sum(summary["by_status"].values())


def test_server_chaos_schedules_are_reproducible():
    a = run_server_chaos_schedule(5)
    b = run_server_chaos_schedule(5)
    assert a["fired"] == b["fired"]
    assert a["by_status"] == b["by_status"]
    assert a["final_total"] == b["final_total"]


@pytest.mark.parametrize("seed", range(N_LOOKUP_SCHEDULES))
def test_lookup_chaos_schedule_invariants(seed):
    """LOOKUP-plan chaos: faults at ``lookup.index_read`` and
    ``lookup.hbase_probe`` mid-point-read and mid-EDIT-by-key.

    Every fault here is a LOOKUP fault, so no statement may fail: a
    faulted LOOKUP falls back to the MR scan plan with the correct rows
    and a faulted keyed write runs the job.  Here we sanity-check the
    shape.
    """
    summary = run_chaos_schedule(seed, "lookup")
    assert summary["seed"] == seed
    assert summary["statements"] == 10
    assert summary["failed"] == 0
    assert summary["fallbacks"] <= summary["lookups"] + summary["keyed_dml"]


def test_lookup_chaos_schedules_are_reproducible():
    a = run_chaos_schedule(7, "lookup")
    b = run_chaos_schedule(7, "lookup")
    assert a["fired"] == b["fired"]
    assert (a["lookups"], a["keyed_dml"], a["fallbacks"]) \
        == (b["lookups"], b["keyed_dml"], b["fallbacks"])


def test_lookup_chaos_coverage_across_seeds():
    """The seed range must actually crash lookups and force fallbacks."""
    fired, fallbacks = [], 0
    for seed in range(min(N_LOOKUP_SCHEDULES, 20)):
        summary = run_chaos_schedule(seed, "lookup")
        fired.extend(summary["fired"])
        fallbacks += summary["fallbacks"]
    lookup_points = {point for point, _ in fired
                     if point.startswith("lookup.")}
    assert lookup_points, "no lookup faults fired across the seed range"
    assert fallbacks, "no scan fallback exercised across the seed range"


@pytest.mark.parametrize("seed", range(N_SHARD_SCHEDULES))
def test_shard_chaos_schedule_invariants(seed):
    """Shard-kill chaos: region-server crashes mid-LOOKUP/mid-commit and
    ``kill``s inside the rebalance 2PC, over a 4-shard table.

    The runner asserts the invariants itself (routed reads return the
    oracle's rows after failover, keyed writes skip the job, rebalance
    recovery is data-neutral, recover() is idempotent); here we
    sanity-check the summary shape.
    """
    summary = run_chaos_schedule(seed, "shard")
    assert summary["seed"] == seed
    assert summary["statements"] == 12
    assert summary["failed"] >= summary["rolled_forward"]


def test_shard_chaos_schedules_are_reproducible():
    a = run_chaos_schedule(2, "shard")
    b = run_chaos_schedule(2, "shard")
    assert a["fired"] == b["fired"]
    assert (a["failed"], a["rolled_forward"], a["rebalances"]) == \
        (b["failed"], b["rolled_forward"], b["rebalances"])


def test_shard_chaos_coverage_across_seeds():
    """The seed range must crash region servers and both 2PC arms."""
    fired, rolled_forward, failed = [], 0, 0
    for seed in range(min(N_SHARD_SCHEDULES, 12)):
        summary = run_chaos_schedule(seed, "shard")
        fired.extend(summary["fired"])
        rolled_forward += summary["rolled_forward"]
        failed += summary["failed"]
    kinds = {kind for _, kind in fired}
    assert "region_crash" in kinds, "no region server died across seeds"
    points = {point for point, _ in fired}
    assert any(p.startswith("dualtable.rebalance.") for p in points), (
        "no rebalance 2PC fault fired across the seed range")
    assert rolled_forward, "no rebalance rolled forward across seeds"
    assert failed > rolled_forward, "no statement rolled back across seeds"


def test_server_chaos_coverage_across_seeds():
    """The server seed range must fire faults and land kills."""
    fired, kills = [], 0
    for seed in range(min(N_SERVER_SCHEDULES, 8)):
        summary = run_server_chaos_schedule(seed)
        fired.extend(summary["fired"])
        kills += summary["by_status"].get("killed", 0)
    assert fired, "no faults fired across the server chaos seed range"
    assert kills, "no session kill landed mid-statement across seeds"
