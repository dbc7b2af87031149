"""The four workloads: seeded statement lists with a plain-dict oracle.

Every workload is a fixed list of statements made from ``--seed`` alone
(never cut by a clock, so the simulated clock and the ledger repeat
exactly); ``--seconds`` scales how many statements the list holds.  The
generator keeps a plain dict ``{k: row}`` updated by each statement it
emits, so every statement carries what the model says it must return.

``plan(seed, size)`` is pure Python and builds the inputs;
``setup(plan)`` builds the system state the measured region starts
from and is what ``setup_s`` times.
"""

import hashlib
import random
from bisect import bisect_left
from collections import namedtuple
from contextlib import ExitStack
from itertools import accumulate
from unittest import mock

#: ``check`` is None or ``(how, expected)``: ``affected`` (row count of
#: a DML), ``rows`` (result equals the list once sorted), ``ordered``
#: (equals it as returned), ``digest`` (sha256 of the sorted result).
Stmt = namedtuple("Stmt", "kind sql phase check cold")
Plan = namedtuple("Plan", "seed size tables setup_sql statements")

COLUMNS = "k int, grp string, v int, w double, note string"
GROUPS = 5


class Size:
    """``--seconds`` and ``--smoke`` as two factors.

    ``rows`` shrinks tables (smoke only: a tenth); ``count`` scales how
    many statements / rounds run (seconds / the frozen run length).
    """

    def __init__(self, seconds, run_seconds, smoke=False):
        self.smoke = smoke
        self.factor = (0.3 if smoke else 1.0) * seconds / run_seconds

    def rows(self, n):
        return n // 10 if self.smoke else n

    def count(self, n):
        return max(1, round(n * self.factor))

    def shrink(self, x):
        """For sizes that only ever scale down (dataset fractions)."""
        return x * min(1.0, self.factor)


def rows_digest(rows):
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


def statements_digest(statements):
    """sha256 of the statement list (same seed -> same bytes)."""
    h = hashlib.sha256()
    for stmt in statements:
        h.update(("%s|%s|%s\n" % (stmt.kind, stmt.phase, stmt.sql)).encode())
    return h.hexdigest()


def base_rows(rng, n):
    # w = k/8 keeps every sum and average exact in binary floating point,
    # so aggregates compare equal whatever order the engine adds in.
    return [(k, "g%d" % (k % GROUPS), rng.randrange(1000), k / 8.0,
             "n%d" % rng.randrange(97)) for k in range(n)]


def mix(total, shares):
    """Exact per-kind counts for ``total`` statements (largest remainder)."""
    counts = {kind: int(total * share) for kind, share in shares.items()}
    by_remainder = sorted(shares, key=lambda kind: (
        -(total * shares[kind] - counts[kind]), kind))
    for kind in by_remainder[:total - sum(counts.values())]:
        counts[kind] += 1
    return [kind for kind in shares for _ in range(counts[kind])]


class ScrambledZipf:
    """Zipf(0.99) ranks scattered over ``0..n-1`` by an affine map, so
    the hot keys do not sit together in the first master file."""

    def __init__(self, n, rng):
        self.n, self.rng = n, rng
        self.cum = list(accumulate(1.0 / r ** 0.99 for r in range(1, n + 1)))
        self.mult = next(m for m in range(n // 2 + 1, 2 * n)
                         if _coprime(m, n))
        self.shift = rng.randrange(n)

    def draw(self):
        rank = bisect_left(self.cum, self.rng.random() * self.cum[-1])
        return (rank * self.mult + self.shift) % self.n

    def distinct(self, count):
        keys = []
        while len(keys) < count:
            key = self.draw()
            if key not in keys:
                keys.append(key)
        return keys


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1


def _in_list(keys):
    return ", ".join(str(k) for k in keys)


class _Model:
    """The oracle: ``{k: row}`` plus the DML that mutates it."""

    def __init__(self, rows):
        self.rows = {row[0]: row for row in rows}

    def update(self, keys, add=0, set_v=None, note=None):
        hit = 0
        for k in keys:
            row = self.rows.get(k)
            if row is None:
                continue
            v = set_v if set_v is not None else row[2] + add
            self.rows[k] = (k, row[1], v, row[3],
                            note if note is not None else row[4])
            hit += 1
        return hit

    def delete(self, keys):
        return sum(self.rows.pop(k, None) is not None for k in keys)

    def digest(self):
        return rows_digest(self.rows.values())

    def group_by(self, with_avg):
        groups = {}
        for _, grp, v, w, _ in self.rows.values():
            acc = groups.setdefault(grp, [0, 0, 0.0])
            acc[0] += 1
            acc[1] += v
            acc[2] += w
        return sorted(
            (grp, n, total) + ((wsum / n,) if with_avg else ())
            for grp, (n, total, wsum) in groups.items())


def _create_table(extra="", mode="edit", n=0, files=16):
    rows_per_file = max(1, n // files)
    return ("CREATE TABLE t (%s) PRIMARY KEY (k) STORED AS dualtable %s"
            "TBLPROPERTIES ('dualtable.mode' = '%s', "
            "'orc.rows_per_file' = '%d', 'orc.stripe_rows' = '%d')"
            % (COLUMNS, extra, mode, rows_per_file,
               max(1, rows_per_file // 4)))


class _SessionContext:
    """A direct ``HiveSession`` (one thread, laptop profile)."""

    def __init__(self, plan):
        from repro.cluster import ClusterProfile
        from repro.hive import HiveSession
        self.session = HiveSession(profile=ClusterProfile.laptop(workers=1))
        self.cluster = self.session.cluster
        self.execute = self.session.execute
        for ddl, rows in plan.tables:
            self.execute(ddl)
            self.session.load_rows(ddl.split()[2], rows)
        for sql in plan.setup_sql:
            self.execute(sql)

    def accounts(self):
        return [(self.cluster.ledger, self.cluster.metrics)]

    def handler(self):
        return self.session.table("t").handler

    def close(self):
        pass


# ----------------------------------------------------------------------
class UpdateStorm:
    """Write path: EDIT-plan DML storm with partial + full compactions."""

    name = "update_storm"
    ROWS, CYCLES, DML_PER_CYCLE, IN_KEYS = 40000, 3, 12, 24
    MIX = {"upd_in": 0.50, "del_in": 0.15, "upd_range": 0.25,
           "upd_point": 0.10}

    def plan(self, seed, size):
        rng = random.Random("update_storm:%d" % seed)
        n = size.rows(self.ROWS)
        rows = base_rows(rng, n)
        model = _Model(rows)
        zipf = ScrambledZipf(n, rng)
        per_cycle = size.count(self.DML_PER_CYCLE)
        # The order of the statement kinds is the same for every seed:
        # which files are dirty when a statement runs decides its cost,
        # and with the order seeded too wall_s differed by 8 % from seed
        # to seed (2 % for one seed).  Keys, widths and values are seeded.
        order = random.Random("update_storm:order")
        statements = []

        def add(kind, sql, check=None):
            statements.append(Stmt(kind, sql, "", check, False))

        for cycle in range(self.CYCLES):
            kinds = mix(per_cycle, self.MIX)
            order.shuffle(kinds)
            for i, kind in enumerate(kinds):
                if i == per_cycle // 2:
                    add("compact_partial", "COMPACT TABLE t PARTIAL 4")
                add(kind, *self._dml(kind, rng, zipf, model, n,
                                     "c%ds%d" % (cycle, i)))
            # Pre- and post-COMPACT scans are both held to the model, so
            # they are equal to each other as well.
            add("scan", "SELECT * FROM t",
                ("digest", (model.digest(), len(model.rows))))
            add("compact_full", "COMPACT TABLE t")
        add("scan", "SELECT * FROM t",
            ("digest", (model.digest(), len(model.rows))))
        return Plan(seed, size, [(_create_table(n=n), rows)], [],
                    statements)

    def _dml(self, kind, rng, zipf, model, n, tag):
        if kind == "upd_in":
            keys, add = zipf.distinct(self.IN_KEYS), rng.randrange(1, 10)
            sql = ("UPDATE t SET v = v + %d, note = '%s' WHERE k IN (%s)"
                   % (add, tag, _in_list(keys)))
            hit = model.update(keys, add=add, note=tag)
        elif kind == "del_in":
            keys = zipf.distinct(self.IN_KEYS)
            sql = "DELETE FROM t WHERE k IN (%s)" % _in_list(keys)
            hit = model.delete(keys)
        elif kind == "upd_range":
            lo, width, add = rng.randrange(n - 100), 60, rng.randrange(1, 10)
            sql = ("UPDATE t SET v = v + %d WHERE k >= %d AND k < %d"
                   % (add, lo, lo + width))
            hit = model.update(range(lo, lo + width), add=add)
        else:
            key, value = zipf.draw(), rng.randrange(1000)
            sql = "UPDATE t SET v = %d WHERE k = %d" % (value, key)
            hit = model.update([key], set_v=value)
        return sql, ("affected", hit)

    setup = _SessionContext


# ----------------------------------------------------------------------
class DirtyScan:
    """Read path: five query shapes over a table with deltas on every
    file, caches warm, then cold, then after COMPACT."""

    name = "dirty_scan"
    ROWS, FILES = 64000, 16
    ROUNDS = (("warm", 4), ("cold", 3), ("clean", 2))

    def plan(self, seed, size):
        rng = random.Random("dirty_scan:%d" % seed)
        n = size.rows(self.ROWS)
        rows = base_rows(rng, n)
        model = _Model(rows)
        per_file = n // self.FILES
        # 5 % of every file updated, 1 % deleted, at seeded offsets.
        upd_lo = rng.randrange(per_file // 2 - per_file // 20)
        upd_hi = upd_lo + per_file // 20
        del_lo = per_file // 2 + rng.randrange(per_file // 2 - per_file // 100)
        del_hi = del_lo + per_file // 100
        add = rng.randrange(1000, 2000)
        setup_sql = [
            "UPDATE t SET v = v + %d, note = 'upd' WHERE k %% %d >= %d "
            "AND k %% %d < %d" % (add, per_file, upd_lo, per_file, upd_hi),
            "DELETE FROM t WHERE k %% %d >= %d AND k %% %d < %d"
            % (per_file, del_lo, per_file, del_hi)]
        model.update([k for k in range(n)
                      if upd_lo <= k % per_file < upd_hi],
                     add=add, note="upd")
        model.delete([k for k in range(n) if del_lo <= k % per_file < del_hi])
        dim = [("g%d" % g, "L%d" % rng.randrange(10 ** 6))
               for g in range(GROUPS)]
        queries = self._queries(rng, model, dict(dim), n)
        statements = []
        for phase, rounds in self.ROUNDS:
            if phase == "clean":
                statements.append(Stmt("compact_partial",
                                       "COMPACT TABLE t PARTIAL 4", "",
                                       None, False))
                statements.append(Stmt("compact_full", "COMPACT TABLE t", "",
                                       None, False))
            for r in range(size.count(rounds)):
                for kind, sql, check in queries:
                    statements.append(Stmt(kind, sql, "%s:%d" % (phase, r),
                                           check, phase == "cold"))
        tables = [(_create_table(n=n, files=self.FILES), rows),
                  ("CREATE TABLE d (grp string, label string) STORED AS orc",
                   dim)]
        return Plan(seed, size, tables, setup_sql, statements)

    @staticmethod
    def _queries(rng, model, labels, n):
        v_below, grp = rng.randrange(300, 500), "g%d" % rng.randrange(GROUPS)
        w_from, k_below = rng.randrange(n // 80), n // 5
        live = model.rows.values()
        top = sorted(((k, v) for k, _, v, _, _ in live),
                     key=lambda kv: (-kv[1], kv[0]))[:20]
        return [
            ("scan", "SELECT k, grp, v, w, note FROM t",
             ("digest", (model.digest(), len(model.rows)))),
            ("filter", "SELECT k, v FROM t WHERE v < %d AND grp = '%s' "
                       "AND w >= %d" % (v_below, grp, w_from),
             ("rows", sorted((k, v) for k, g, v, w, _ in live
                             if v < v_below and g == grp and w >= w_from))),
            ("agg", "SELECT grp, count(*), sum(v), avg(w) FROM t "
                    "GROUP BY grp", ("rows", model.group_by(with_avg=True))),
            ("join", "SELECT t.k, t.v, d.label FROM t JOIN d "
                     "ON t.grp = d.grp WHERE t.k < %d" % k_below,
             ("rows", sorted((k, v, labels[g]) for k, g, v, _, _ in live
                             if k < k_below))),
            ("topk", "SELECT k, v FROM t ORDER BY v DESC, k LIMIT 20",
             ("ordered", top))]

    setup = _SessionContext


# ----------------------------------------------------------------------
class HtapServe:
    """Serving path: one closed-loop client through ``DualTableServer``
    over a 4-shard table, cost-model plan choice."""

    name = "htap_serve"
    ROWS, SHARDS, STATEMENTS = 40000, 4, 150
    MIX = {"lookup": 0.60, "range_read": 0.12, "upd_point": 0.22,
           "upd_in": 0.03, "agg": 0.03}

    def plan(self, seed, size):
        rng = random.Random("htap_serve:%d" % seed)
        n = size.rows(self.ROWS)
        rows = base_rows(rng, n)
        model = _Model(rows)
        zipf = ScrambledZipf(n, rng)
        kinds = [kind for kind in mix(size.count(self.STATEMENTS), self.MIX)
                 if kind != "upd_in"]
        # one order of kinds for every seed, as in update_storm
        random.Random("htap_serve:order").shuffle(kinds)
        # The IN-list updates (OVERWRITE under the cost model: the master
        # is rewritten and the deltas are gone) are spread over the first
        # 60 % of the list.  Left to the shuffle, the last one decides
        # how many shards still hold deltas at the final COMPACT, and the
        # ledger bytes differ by 13 % from seed to seed.
        total = size.count(self.STATEMENTS)
        in_lists = total - len(kinds)
        for i in range(in_lists):
            kinds.insert(int((i + 0.5) * 0.6 * total / in_lists), "upd_in")
        statements = []
        for kind in kinds:
            if kind == "lookup":
                key = zipf.draw()
                sql = "SELECT k, grp, v, w FROM t WHERE k = %d" % key
                check = ("rows", [model.rows[key][:4]])
            elif kind == "range_read":
                lo = rng.randrange(n - 50)
                hi = lo + rng.randrange(1, 50)
                sql = ("SELECT k, v FROM t WHERE k >= %d AND k <= %d"
                       % (lo, hi))
                check = ("rows", [(k, model.rows[k][2])
                                  for k in range(lo, hi + 1)])
            elif kind == "upd_point":
                key, add = zipf.draw(), rng.randrange(1, 10)
                sql = "UPDATE t SET v = v + %d WHERE k = %d" % (add, key)
                check = ("affected", model.update([key], add=add))
            elif kind == "upd_in":
                keys = self._keys_per_shard(zipf, 2)
                sql = ("UPDATE t SET v = v + 1 WHERE k IN (%s)"
                       % _in_list(keys))
                check = ("affected", model.update(keys, add=1))
            else:
                sql = "SELECT grp, count(*), sum(v) FROM t GROUP BY grp"
                check = ("rows", model.group_by(with_avg=False))
            statements.append(Stmt(kind, sql, "", check, False))
        final = ("digest", (model.digest(), len(model.rows)))
        statements += [Stmt("scan", "SELECT * FROM t", "", final, False),
                       Stmt("compact_full", "COMPACT TABLE t", "", None,
                            False),
                       Stmt("scan", "SELECT * FROM t", "", final, False)]
        ddl = _create_table("SHARDED BY (k) INTO %d " % self.SHARDS,
                            mode="cost", n=n)
        return Plan(seed, size, [(ddl, rows)], [], statements)

    def _keys_per_shard(self, zipf, count):
        """Hot keys, ``count`` on every shard: how many shards a
        multi-key statement touches (3 or 4 of 4, by chance) decides how
        many an OVERWRITE rewrites, and would make the ledger bytes
        differ from seed to seed by more than any bound."""
        from repro.shard.sharded import ShardMap
        keys = {shard: [] for shard in range(self.SHARDS)}
        while any(len(found) < count for found in keys.values()):
            key = zipf.draw()
            found = keys[ShardMap.bucket_of(key) % self.SHARDS]
            if len(found) < count and key not in found:
                found.append(key)
        return [key for shard in sorted(keys) for key in keys[shard]]

    class setup(_SessionContext):
        def __init__(self, plan):
            super().__init__(plan)
            from repro.server import DualTableServer
            server = DualTableServer(self.session, concurrency=1)
            self.execute = server.connect().execute


# ----------------------------------------------------------------------
class PaperFigs:
    """What the reproduction's own users run: six paper experiments."""

    name = "paper_figs"
    EXPERIMENTS = ("fig4", "fig5", "table4", "fig11", "fig12", "fig13")
    #: between the shipped ``tiny`` and ``small`` scales, so the six fit
    #: the run length.
    TPCH_ORDERS, GRID_FRACTION = 130, 1.1e-5
    #: the seeds the shipped generators default to; the default
    #: benchmark seed maps onto them, any other seed shifts both.
    GRID_SEED, TPCH_SEED, DEFAULT_SEED = 7, 42, 1

    def plan(self, seed, size):
        statements = [Stmt("experiment", name, "", ("figure", None), False)
                      for name in self.EXPERIMENTS]
        return Plan(seed, size, [], [], statements)

    class setup:
        """Seeds the shipped generators and pre-generates the datasets.

        The experiments build their own sessions, so the ledger and
        registry of every cluster they create are collected through
        ``obs.register_cluster`` (not the clusters: their caches would
        keep every session's data alive).
        """

        cluster = None

        def __init__(self, plan):
            from repro import obs
            from repro.bench import experiments
            from repro.bench.runners import BenchScale
            from repro.workloads import smartgrid, tpch
            size, shift = plan.size, plan.seed - PaperFigs.DEFAULT_SEED
            scale = BenchScale(
                name="perfbench",
                tpch_orders=max(40, int(size.shrink(PaperFigs.TPCH_ORDERS))),
                grid_fraction=size.shrink(PaperFigs.GRID_FRACTION))
            # Undone by close(): the harness tests run in one process.
            self._patches = ExitStack()
            self._seeded(smartgrid, "load_grid_table",
                         PaperFigs.GRID_SEED + shift)
            self._seeded(tpch, "load_tpch", PaperFigs.TPCH_SEED + shift)
            self._accounts = []
            self._patches.enter_context(mock.patch.object(
                obs, "register_cluster", lambda cluster:
                self._accounts.append((cluster.ledger, cluster.metrics))))
            for cache in (smartgrid._ROW_CACHE, tpch._ROW_CACHE,
                          experiments._SWEEP_CACHE):
                cache.clear()
            grid_tables = ["yh_gbjld", "zd_gbcld", "zc_zdzc",
                           "tj_gbsjwzl_mx"]
            grid_tables += sorted({s["table"]
                                   for s in smartgrid.TABLE4_STATEMENTS}
                                  - set(grid_tables))
            for table in grid_tables:
                smartgrid.grid_rows_cached(table, scale.grid_rows(table),
                                           seed=PaperFigs.GRID_SEED + shift)
            for table in ("lineitem", "orders"):
                tpch.tpch_rows_cached(table, scale.tpch_orders,
                                      seed=PaperFigs.TPCH_SEED + shift)
            self._scale = scale
            self._experiments = experiments.EXPERIMENTS

        def _seeded(self, module, attr, seed):
            load = getattr(module, attr)
            self._patches.enter_context(mock.patch.object(
                module, attr, lambda *args, **kwargs:
                load(*args, seed=seed, **kwargs)))

        def execute(self, name):
            result = self._experiments[name](self._scale)
            return FigureResult(result)

        def accounts(self):
            return self._accounts

        def close(self):
            self._patches.close()


class FigureResult:
    """An ``ExperimentResult`` seen as a statement result: its simulated
    seconds are the sum of every numeric cell (the plotted series)."""

    affected = None

    def __init__(self, result):
        self.rows = [tuple(row) for row in result.rows]
        self.sim_seconds = float(sum(
            cell for row in self.rows for cell in row
            if isinstance(cell, (int, float)) and not isinstance(cell, bool)))


WORKLOADS = {w.name: w for w in (UpdateStorm(), DirtyScan(), HtapServe(),
                                 PaperFigs())}
