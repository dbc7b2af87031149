"""Seeded open-loop ledger workload: the server's determinism oracle.

The workload is a bank-ledger table of ``accounts`` rows whose updates
are *commutative* (``UPDATE ledger SET v = v + d WHERE id = k``), so the
final ``SUM(v)`` depends only on **which** statements committed — never
on the order they interleaved.  That gives two checkable bars:

* **zero lost writes**: ``final SUM(v) == initial SUM(v) + Σ delta`` over
  exactly the statements the server reported committed — under chaos,
  kills, conflicts and retries;
* **determinism across concurrency**: with shedding disabled (a large
  ``max_queue``) and no kills, every statement eventually commits, so
  concurrency 1, 4 and 16 runs of the same seed produce byte-identical
  ledger totals even though their interleavings differ.

``tests/test_server.py`` gates determinism at concurrency 1/4/16 and
``run_server_chaos_schedule`` gates zero lost writes under chaos.
"""

from repro.common.rng import make_rng


def build_ledger_server(accounts=64, seed=0, concurrency=4,
                        max_queue=1_000_000, timeout_s=None,
                        rows_per_file=16, num_workers=3):
    """A server over a fresh DualTable ledger of ``accounts`` rows.

    ``max_queue`` defaults to effectively-unbounded because the
    determinism gate needs every statement to commit; overload tests
    pass a small bound explicitly.
    """
    from repro.cluster import ClusterProfile
    from repro.hive import HiveSession
    from repro.server.server import DualTableServer

    engine = HiveSession(profile=ClusterProfile.laptop(
        num_workers=num_workers))
    # mode=edit pins the plan the cost model would pick at production
    # scale for single-row updates; on a simulation-sized table the
    # OVERWRITE plan would win on raw cost and serialize everything
    # through exclusive escalation, hiding the optimistic path this
    # driver exists to stress.
    engine.execute(
        "CREATE TABLE ledger (id int, v int) STORED AS DUALTABLE "
        "TBLPROPERTIES ('orc.rows_per_file' = '%d', "
        "'orc.stripe_rows' = '8', 'dualtable.mode' = 'edit')"
        % rows_per_file)
    engine.load_rows("ledger", [(i, 0) for i in range(accounts)])
    return DualTableServer(engine, concurrency=concurrency,
                           max_queue=max_queue, timeout_s=timeout_s,
                           seed=seed)


def ledger_arrivals(server, clients=1000, statements=200, accounts=64,
                    seed=0, tenants=4, mean_gap_s=0.05,
                    read_fraction=0.2):
    """A seeded open-loop arrival schedule over ``clients`` sessions.

    Open-loop means arrival times are drawn up front (exponential gaps)
    and never react to completions — the clients keep sending even when
    the server is saturated, which is exactly the regime admission
    control exists for.  The schedule depends only on the seed, so every
    concurrency level replays the identical offered load.
    """
    from repro.server.server import Arrival

    rng = make_rng("server-ledger", seed, clients, statements, accounts)
    sessions = [server.connect(tenant="t%02d" % (i % tenants))
                for i in range(clients)]
    arrivals = []
    now = 0.0
    for _ in range(statements):
        now += rng.expovariate(1.0 / mean_gap_s)
        session = sessions[rng.randrange(clients)]
        if rng.random() < read_fraction:
            arrivals.append(Arrival(
                time=now, session=session,
                sql="SELECT SUM(v) FROM ledger",
                payload={"kind": "read"}))
        else:
            account = rng.randrange(accounts)
            delta = rng.randint(1, 9)
            arrivals.append(Arrival(
                time=now, session=session,
                sql="UPDATE ledger SET v = v + %d WHERE id = %d"
                    % (delta, account),
                payload={"kind": "update", "delta": delta,
                         "account": account}))
    return arrivals


def ledger_totals(engine):
    """``(SUM(v), COUNT(*))`` read straight from the engine (injection
    paused so verification cannot perturb a chaos schedule)."""
    with engine.cluster.faults.paused():
        row = engine.execute(
            "SELECT SUM(v), COUNT(*) FROM ledger").rows[0]
    return (row[0] or 0, row[1])


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def run_open_loop(server, arrivals, kills=(), concurrency=None):
    """Run a schedule and audit the ledger against the outcomes.

    Returns a summary dict; ``summary["lost_writes"]`` is the number of
    committed deltas missing from the final total (must be 0) and
    ``summary["phantom_writes"]`` counts the reverse direction (a total
    higher than the committed deltas explain — e.g. a statement the
    server reported aborted whose edits leaked).
    """
    initial_total, count = ledger_totals(server.engine)
    counters_before = dict(server.metrics.counters)
    outcomes = server.run(arrivals, kills=kills, concurrency=concurrency)
    final_total, final_count = ledger_totals(server.engine)

    committed_delta = sum(o["payload"].get("delta", 0) for o in outcomes
                          if o["status"] == "committed")
    expected_total = initial_total + committed_delta
    by_status = {}
    for outcome in outcomes:
        by_status[outcome["status"]] = by_status.get(outcome["status"], 0) + 1
    latencies = sorted(o["latency_s"] for o in outcomes
                       if o["status"] == "committed")
    counters = server.metrics.counters

    def delta(name):
        return counters.get(name, 0) - counters_before.get(name, 0)

    return {
        "statements": len(outcomes),
        "by_status": by_status,
        "initial_total": initial_total,
        "final_total": final_total,
        "expected_total": expected_total,
        "committed_delta": committed_delta,
        "lost_writes": max(0, expected_total - final_total),
        "phantom_writes": max(0, final_total - expected_total),
        "rows": final_count,
        "rows_changed": final_count - count,
        "conflicts": delta("server.conflicts"),
        "conflict_retries": delta("server.conflict_retries"),
        "escalations": delta("server.escalations"),
        "shed": delta("server.shed"),
        "timeouts": delta("server.timeouts"),
        "killed": delta("server.killed"),
        "commits": delta("server.commits"),
        "latency_p50_s": _percentile(latencies, 0.50),
        "latency_p95_s": _percentile(latencies, 0.95),
        "latency_max_s": latencies[-1] if latencies else 0.0,
    }
