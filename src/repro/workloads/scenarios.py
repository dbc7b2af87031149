"""Scenario replayer: synthetic stored-procedure mixes from Table I.

The paper motivates DualTable with five production business scenarios
whose stored procedures contain 50-79 % DML (Table I), and with the hard
requirement that "the computing task must be finished from 1am to 7am".
This module turns Table I into runnable workloads: for each scenario it
synthesizes a statement stream with the *same DML mix* (scaled down by a
factor), so the end-to-end scenario run time of Hive vs DualTable can be
measured — the system-level consequence of everything in Figures 5-18.

Statements operate on the measurement table ``tj_gbsjwzl_mx`` plus a
small staging table for MERGE sources; all of them parse and run on every
storage backend.
"""

from repro.common.rng import make_rng
from repro.workloads.dml_stats import TABLE1_DATA
from repro.workloads.smartgrid import GRID_DAYS, ORG_CODES

STAGING_TABLE = "stg_recollect"

STAGING_DDL = ("CREATE TABLE %s (rq date, dwdm string, val double)"
               % STAGING_TABLE)


def staging_rows(n=40, seed=11):
    rng = make_rng("scenario-staging", seed)
    return [(rng.choice(GRID_DAYS), rng.choice(ORG_CODES),
             round(rng.uniform(0, 100), 2)) for i in range(n)]


def _update_sql(rng, step):
    day = rng.choice(GRID_DAYS)
    return ("UPDATE tj_gbsjwzl_mx SET cjbm = 'step%d' WHERE rq = '%s'"
            % (step, day))


def _delete_sql(rng, step):
    day = rng.choice(GRID_DAYS)
    org = rng.choice(ORG_CODES)
    return ("DELETE FROM tj_gbsjwzl_mx WHERE rq = '%s' AND dwdm = '%s'"
            % (day, org))


def _merge_sql(rng, step):
    return ("MERGE INTO tj_gbsjwzl_mx t USING %s s "
            "ON t.rq = s.rq AND t.dwdm = s.dwdm "
            "WHEN MATCHED THEN UPDATE SET val = s.val" % STAGING_TABLE)


def _select_sql(rng, step):
    lo = rng.randrange(len(GRID_DAYS) - 5)
    return ("SELECT dwdm, count(*) AS n, sum(val) AS total "
            "FROM tj_gbsjwzl_mx WHERE rq >= '%s' AND rq <= '%s' "
            "GROUP BY dwdm" % (GRID_DAYS[lo], GRID_DAYS[lo + 5]))


def build_scenario(scenario_id, statements_factor=0.1, seed=3):
    """Statement stream for one Table-I scenario.

    ``statements_factor`` scales the paper's statement counts (the real
    procedures run 12-174 statements; 0.1 keeps bench runs short while
    preserving the mix).  Returns a list of (kind, sql) pairs.
    """
    spec = next(s for s in TABLE1_DATA if s.scenario == scenario_id)
    rng = make_rng("scenario", scenario_id, seed)

    def scaled(count):
        return max(1, round(count * statements_factor))

    counts = {
        "update": scaled(spec.update),
        "delete": scaled(spec.delete),
        "merge": scaled(spec.merge) if spec.merge else 0,
        "select": scaled(spec.total - spec.dml_count),
    }
    makers = {"update": _update_sql, "delete": _delete_sql,
              "merge": _merge_sql, "select": _select_sql}
    pool = [kind for kind, n in counts.items() for _ in range(n)]
    rng.shuffle(pool)
    return [(kind, makers[kind](rng, step))
            for step, kind in enumerate(pool)]


ZIPF_TABLE = "zipf_updates"


def zipf_update_ddl(rows_per_file=1000, stripe_rows=250, table=ZIPF_TABLE):
    """DDL for the Zipf scenario's DualTable.

    ``dualtable.mode = edit`` forces the EDIT plan so every UPDATE and
    DELETE lands as attached deltas — the delta churn the scenario
    exists to generate.
    """
    return ("CREATE TABLE %s (k int, grp string, v int, w double) "
            "STORED AS dualtable TBLPROPERTIES ("
            "'dualtable.mode' = 'edit', 'orc.rows_per_file' = '%d', "
            "'orc.stripe_rows' = '%d')" % (table, rows_per_file, stripe_rows))


def zipf_update_rows(rows):
    """The scenario's base table content (pure function of ``rows``)."""
    return [(i, "g%d" % (i % 5), i % 7, i / 8.0) for i in range(rows)]


def build_zipf_update_scenario(rows=8000, updates=12, deletes=4, scans=4,
                               keys_per_stmt=40, skew=1.1,
                               dirty_fraction=0.25, seed=7,
                               table=ZIPF_TABLE, rows_per_file=None,
                               stripe_rows=None):
    """Seeded Zipf-skewed update-heavy workload (ROADMAP item 5).

    Models a YCSB-style skewed mutation stream: a *hot set* of
    ``dirty_fraction * rows`` keys receives all DML, each statement
    drawing ``keys_per_stmt`` keys with Zipf(``skew``) rank weights —
    rank 1 is hottest, the tail barely touched.  Hot ranks are mapped
    through a seeded permutation of the whole key space, so the dirty
    keys scatter across every master file (YCSB's "scrambled Zipfian"),
    which is the worst case for the UNION READ merge: most batches
    carry at least one delta.  Interleaved full scans then pay the
    merge.

    Returns ``{"table", "ddl", "rows", "statements", "hot_keys",
    "config"}``; replay ``statements`` with :func:`run_scenario`.
    """
    rng = make_rng("scenario-zipf", rows, updates, deletes, scans,
                   keys_per_stmt, round(skew, 6), round(dirty_fraction, 6),
                   seed)
    hot = max(1, min(rows, round(rows * dirty_fraction)))
    spread = list(range(rows))
    rng.shuffle(spread)
    weights = [1.0 / (rank + 1) ** skew for rank in range(hot)]

    def draw_keys():
        ranks = rng.choices(range(hot), weights=weights, k=keys_per_stmt)
        return sorted({spread[rank] for rank in ranks})

    def update_sql(step):
        keys = draw_keys()
        return ("UPDATE %s SET v = %d WHERE k IN (%s)"
                % (table, 90 + step % 10,
                   ", ".join(str(k) for k in keys)))

    def delete_sql(step):
        keys = draw_keys()
        return ("DELETE FROM %s WHERE k IN (%s)"
                % (table, ", ".join(str(k) for k in keys)))

    def scan_sql(step):
        return "SELECT k, grp, v, w FROM %s" % table

    makers = {"update": update_sql, "delete": delete_sql, "scan": scan_sql}
    pool = (["update"] * updates + ["delete"] * deletes + ["scan"] * scans)
    rng.shuffle(pool)
    statements = [(kind, makers[kind](step))
                  for step, kind in enumerate(pool)]
    rows_per_file = rows_per_file or max(1000, rows // 16)
    stripe_rows = stripe_rows or max(250, rows_per_file // 4)
    return {"table": table,
            "ddl": zipf_update_ddl(rows_per_file=rows_per_file,
                                   stripe_rows=stripe_rows,
                                   table=table),
            "rows": zipf_update_rows(rows),
            "statements": statements,
            "hot_keys": hot,
            "config": {"rows": rows, "updates": updates,
                       "deletes": deletes, "scans": scans,
                       "keys_per_stmt": keys_per_stmt, "skew": skew,
                       "dirty_fraction": dirty_fraction, "seed": seed}}


def run_scenario(session, statements):
    """Execute a statement stream; returns (total_seconds, per_kind)."""
    per_kind = {}
    total = 0.0
    for kind, sql in statements:
        result = session.execute(sql)
        total += result.sim_seconds
        per_kind[kind] = per_kind.get(kind, 0.0) + result.sim_seconds
    return total, per_kind


def prepare_session(session):
    """Create + load the staging table used by the MERGE statements."""
    session.execute(STAGING_DDL)
    session.load_rows(STAGING_TABLE, staging_rows())
