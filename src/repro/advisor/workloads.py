"""Seeded canned workloads exercising the advisor end-to-end.

Three deterministic workload shapes — scan-heavy, update-heavy and
mixed HTAP (through a :class:`DualTableServer` with competing tenants)
— each built to trip a known, distinct set of advisor findings.  The
CI ``advisor-smoke`` job, ``scripts/export_dashboard.py`` and
``tests/test_advisor.py`` all run these and assert the finding sets in
:data:`EXPECTED_FINDINGS`, byte-identical across two runs and worker
counts.

Everything is seeded through :mod:`repro.common.rng`; no wall-clock
value ever reaches a statement or a finding.
"""

from repro.cluster import ClusterProfile
from repro.common.rng import make_rng

#: canonical workload order (dashboards, CI artifacts, tests).
WORKLOAD_NAMES = ("scan_heavy", "update_heavy", "mixed")

#: the finding set each canned workload must produce, as sorted
#: ``(code, subject)`` pairs — the advisor acceptance oracle.
EXPECTED_FINDINGS = {
    # Tiny tables make the cost model's I/O-only estimate drown in the
    # fixed startup overhead, so every canned workload also carries a
    # cost-model-drift finding — a real property of this scale, and the
    # positive arm of the drift test coverage.
    "scan_heavy": [
        ("cost-model-drift", "events"),
        ("read-factor-mismatch", "events"),
        ("scan-heavy-dirty", "events"),
    ],
    "update_heavy": [
        ("overwrite-plan-regret", "audit_log"),
        ("cost-model-drift", "accounts"),
        ("update-heavy-autocompact-off", "accounts"),
    ],
    "mixed": [
        ("cost-model-drift", "orders_ht"),
        ("mixed-htap", "orders_ht"),
        ("read-factor-mismatch", "orders_ht"),
        ("tenant-pressure", "tenant:analytics"),
        ("tenant-pressure", "tenant:ops"),
    ],
}


def build_session(workers=1, batch_rows=None):
    """A fresh laptop-profile session for one canned workload."""
    from repro.hive import HiveSession

    profile = ClusterProfile.laptop(workers=max(1, int(workers)))
    return HiveSession(profile=profile, batch_rows=batch_rows)


def _load(session, table, n_rows, seed, storage_props=""):
    """Create one small multi-file DualTable and bulk-load seeded rows."""
    session.execute(
        "CREATE TABLE %s (id INT, v INT, note STRING) "
        "STORED AS DUALTABLE TBLPROPERTIES ("
        "'orc.rows_per_file' = 64, 'orc.stripe_rows' = 16%s)"
        % (table, storage_props))
    rng = make_rng("advisor-workload", table, seed)
    session.load_rows(table, [(i, rng.randrange(1000), "n%04d" % i)
                              for i in range(n_rows)])


class _Sampler:
    """Per-statement cumulative counter series for the dashboard."""

    def __init__(self, session, tables):
        self.session = session
        self.tables = tuple(tables)
        self.series = {table: {"scans": [], "dmls": []}
                       for table in self.tables}

    def sample(self):
        counters = self.session.cluster.metrics.counters
        for table in self.tables:
            series = self.series[table]
            series["scans"].append(
                counters.get("dualtable.scans.%s" % table, 0))
            series["dmls"].append(
                counters.get("dualtable.dml.%s" % table, 0))

    def run(self, sql):
        result = self.session.execute(sql)
        self.sample()
        return result


def run_scan_heavy(session, seed=0):
    """Analytics-shaped: many scans over a table with stranded deltas.

    A handful of UPDATEs leave attached deltas, AUTOCOMPACT stays off,
    then a long scan streak pays union-read overhead on every query —
    the ``scan-heavy-dirty`` shape (the EWMA also learns reads-per-DML
    far above the declared ``read_factor``).
    """
    _load(session, "events", 320, seed)
    sampler = _Sampler(session, ["events"])
    rng = make_rng("advisor-scan-heavy", seed)
    for i in range(3):
        sampler.run("UPDATE events SET v = v + %d WHERE id %% 80 = %d"
                    % (i + 1, rng.randrange(80)))
    for _ in range(30):
        threshold = rng.randrange(900)
        sampler.run("SELECT count(*) FROM events WHERE v > %d"
                    % threshold)
    return {"session": session, "server": None,
            "series": sampler.series, "workload": "scan_heavy"}


def run_update_heavy(session, seed=0):
    """OLTP-shaped: a churn table with AUTOCOMPACT off, plus a table
    pinned to the forced OVERWRITE plan where EDIT predicts cheaper
    (``overwrite-plan-regret``)."""
    _load(session, "accounts", 256, seed)
    _load(session, "audit_log", 192, seed,
          storage_props=", 'dualtable.mode' = 'overwrite'")
    sampler = _Sampler(session, ["accounts", "audit_log"])
    rng = make_rng("advisor-update-heavy", seed)
    for i in range(10):
        sampler.run("UPDATE accounts SET v = v + %d WHERE id %% 64 = %d"
                    % (i + 1, rng.randrange(64)))
    for i in range(2):
        sampler.run("UPDATE audit_log SET v = %d WHERE id = %d"
                    % (i, rng.randrange(192)))
    sampler.run("SELECT count(*) FROM accounts")
    return {"session": session, "server": None,
            "series": sampler.series, "workload": "update_heavy"}


def run_mixed(session, seed=0):
    """HTAP-shaped, through the server: an ``analytics`` tenant scans
    while an ``ops`` tenant mutates the same table, with an arrival
    burst past ``max_queue`` so admission control sheds — the
    ``mixed-htap`` + ``tenant-pressure`` shape."""
    from repro.server import Arrival, DualTableServer

    _load(session, "orders_ht", 320, seed)
    server = DualTableServer(engine=session, concurrency=2, max_queue=3,
                             seed=seed)
    analytics = server.connect(tenant="analytics")
    ops = server.connect(tenant="ops")
    rng = make_rng("advisor-mixed", seed)
    arrivals = []
    clock = 0.0
    for i in range(12):
        clock += 40.0
        arrivals.append(Arrival(
            time=clock, session=analytics,
            sql="SELECT count(*) FROM orders_ht WHERE v > %d"
                % rng.randrange(900)))
        if i % 2 == 0:
            arrivals.append(Arrival(
                time=clock + 1.0, session=ops,
                sql="UPDATE orders_ht SET v = v + 1 WHERE id %% 80 = %d"
                    % rng.randrange(80)))
    # The burst: both tenants flood one instant, far past max_queue=3.
    for i in range(10):
        arrivals.append(Arrival(
            time=clock + 10.0,
            session=analytics if i % 2 else ops,
            sql="SELECT count(*) FROM orders_ht WHERE id = %d"
                % rng.randrange(320)))
    server.run(arrivals)
    sampler = _Sampler(session, ["orders_ht"])
    sampler.sample()
    return {"session": session, "server": server,
            "series": sampler.series, "workload": "mixed"}


RUNNERS = {"scan_heavy": run_scan_heavy,
           "update_heavy": run_update_heavy,
           "mixed": run_mixed}


def run_workload(name, seed=0, workers=1):
    """Build a fresh session and run one canned workload by name."""
    if name not in RUNNERS:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (name, "/".join(WORKLOAD_NAMES)))
    session = build_session(workers=workers)
    return RUNNERS[name](session, seed=seed)
