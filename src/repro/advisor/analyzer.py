"""The workload analyzer and actuator.

:class:`WorkloadAdvisor` replays the per-table profiles (and the
server's admission counters) through a fixed rule set and emits sorted
:class:`~repro.advisor.findings.Finding`s.  Rules are deliberately
simple threshold checks — the value is in closing the loop, not in the
sophistication of any one rule — and every threshold is a named module
constant so tests and docs reference the same numbers.

The actuator half (:func:`apply_findings`) executes each finding's
remediation statements through the session, in finding order, each
statement at most once.  Remediations are ordinary SQL (``ALTER TABLE
... SET ...``, ``COMPACT TABLE ...``), so applying them is charged,
traced and crash-safe exactly like user statements.
"""

from repro.advisor.findings import Finding
from repro.advisor.profiles import build_profiles

#: scans-per-DML at (or above) which a table reads as scan-heavy.
SCAN_HEAVY_RATIO = 8.0
#: scans-per-DML at (or below) which a table reads as update-heavy.
UPDATE_HEAVY_RATIO = 2.0
#: minimum mutations before the read/write-mix rules speak up.
MIN_DMLS = 3
#: minimum scans before the scan-side rules speak up.
MIN_SCANS = 8
#: cost-audit mean relative error above which the model has drifted
#: (examples/profile_update_sweep.py holds the healthy regime ~6%).
DRIFT_REL_ERROR = 0.25
#: minimum audited statements before drift is diagnosable.
MIN_AUDITS = 3
#: EWMA reads-per-DML vs declared read_factor mismatch factor.
READ_FACTOR_MISMATCH = 2.0
#: minimum LOOKUP-eligible statements forced through MR before the
#: routing rule speaks up (``SET dualtable.plan = scan`` left on).
MIN_LOOKUP_ELIGIBLE = 3
#: hottest-shard heat vs median-shard heat above which a sharded table
#: reads as skewed (heat = routed lookups + DML delta entries since the
#: last rebalance).
SHARD_SKEW_RATIO = 3.0
#: minimum hottest-shard heat before the skew rule speaks up — a handful
#: of point reads on a cold table is placement noise, not a hot spot.
MIN_SHARD_HEAT = 8


class WorkloadAdvisor:
    """Rule-based analyzer over table profiles + server counters."""

    def __init__(self, session):
        self.session = session

    # ------------------------------------------------------------------
    def analyze(self):
        """All current findings, sorted by (severity, subject, code)."""
        findings = []
        for profile in build_profiles(self.session):
            findings.extend(self._table_findings(profile))
        findings.extend(self._server_findings())
        return sorted(findings, key=lambda f: f.sort_key())

    # -- per-table rules -----------------------------------------------
    def _table_findings(self, p):
        out = []
        scan_heavy = (p.scans >= MIN_SCANS
                      and p.scan_dml_ratio >= SCAN_HEAVY_RATIO)
        update_heavy = (p.dmls >= MIN_DMLS
                        and p.scan_dml_ratio <= UPDATE_HEAVY_RATIO)
        dirty = p.attached_bytes > 0 or p.deltas_applied > 0

        if scan_heavy and dirty and not p.autocompact_on:
            out.append(Finding(
                code="scan-heavy-dirty",
                severity="warn",
                subject=p.table,
                summary=("table is scan-heavy (%.1f scans/DML) but "
                         "attached deltas tax every read (%d bytes "
                         "pending, %d delta applications since compact)"
                         % (p.scan_dml_ratio, p.attached_bytes,
                            p.deltas_applied)),
                evidence={"scans": p.scans, "dmls": p.dmls,
                          "scan_dml_ratio": p.scan_dml_ratio,
                          "attached_bytes": p.attached_bytes,
                          "deltas_applied": p.deltas_applied,
                          "batches_fast": p.batches_fast,
                          "batches_overlay": p.batches_overlay},
                remediation=[
                    "ALTER TABLE %s SET AUTOCOMPACT (ON)" % p.table,
                    "COMPACT TABLE %s" % p.table,
                ]))
        if update_heavy and not p.autocompact_on:
            out.append(Finding(
                code="update-heavy-autocompact-off",
                severity="warn",
                subject=p.table,
                summary=("update-heavy table (%d DMLs vs %d scans) is "
                         "accumulating deltas with AUTOCOMPACT OFF"
                         % (p.dmls, p.scans)),
                evidence={"scans": p.scans, "dmls": p.dmls,
                          "updates": p.updates, "deletes": p.deletes,
                          "attached_bytes": p.attached_bytes},
                remediation=[
                    "ALTER TABLE %s SET AUTOCOMPACT (ON)" % p.table,
                ]))
        if (p.scans >= MIN_SCANS and p.dmls >= MIN_DMLS
                and UPDATE_HEAVY_RATIO < p.scan_dml_ratio
                < SCAN_HEAVY_RATIO):
            out.append(Finding(
                code="mixed-htap",
                severity="info",
                subject=p.table,
                summary=("mixed operational+analytic shape (%d scans, "
                         "%d DMLs): keep the cost model in charge and "
                         "compaction autonomous"
                         % (p.scans, p.dmls)),
                evidence={"scans": p.scans, "dmls": p.dmls,
                          "scan_dml_ratio": p.scan_dml_ratio},
                remediation=(
                    [] if p.autocompact_on else
                    ["ALTER TABLE %s SET AUTOCOMPACT (ON)" % p.table])))
        out.extend(self._read_factor_rule(p))
        out.extend(self._drift_rule(p))
        out.extend(self._regret_rule(p))
        out.extend(self._lookup_routing_rule(p))
        out.extend(self._shard_skew_rule(p))
        return out

    def _shard_skew_rule(self, p):
        """One region server absorbing most of a sharded table's traffic
        — heat is routed LOOKUPs plus DML delta entries since the last
        rebalance, so a skewed key range shows up here long before the
        ledger does."""
        if p.shard_count < 2 or not p.shard_heats:
            return []
        heats = sorted(p.shard_heats)
        hottest = heats[-1]
        median = heats[len(heats) // 2] if len(heats) % 2 \
            else (heats[len(heats) // 2 - 1] + heats[len(heats) // 2]) / 2
        if hottest < MIN_SHARD_HEAT or hottest <= SHARD_SKEW_RATIO * median:
            return []
        hot_shard = list(p.shard_heats).index(hottest)
        return [Finding(
            code="shard-skew",
            severity="warn",
            subject=p.table,
            summary=("shard %d absorbs heat %d vs median %.1f across %d "
                     "shards (>%.0fx) — rebalance to move its hottest "
                     "bucket to the coldest shard"
                     % (hot_shard, hottest, median, p.shard_count,
                        SHARD_SKEW_RATIO)),
            evidence={"shard_heats": list(p.shard_heats),
                      "hot_shard": hot_shard,
                      "hottest": hottest,
                      "median": median,
                      "ratio_threshold": SHARD_SKEW_RATIO},
            remediation=[
                "ALTER TABLE %s REBALANCE" % p.table,
            ])]

    def _lookup_routing_rule(self, p):
        """PK point reads routed through MapReduce despite a cheaper
        LOOKUP plan — the per-statement counter only increments when the
        planner judged the statement eligible *and* LOOKUP-cheaper but
        the session (or cost verdict this close to the crossover) sent
        it to the scan path anyway."""
        if p.lookup_eligible_scans < MIN_LOOKUP_ELIGIBLE:
            return []
        return [Finding(
            code="lookup-eligible-scan",
            severity="warn",
            subject=p.table,
            summary=("%d PRIMARY-KEY point reads paid MapReduce startup "
                     "although the LOOKUP plan was eligible (%d lookups "
                     "actually taken) — let the cost model route reads"
                     % (p.lookup_eligible_scans, p.lookups)),
            evidence={"lookup_eligible_scans": p.lookup_eligible_scans,
                      "lookups": p.lookups,
                      "lookup_fallbacks": p.lookup_fallbacks},
            remediation=[
                "SET dualtable.plan = cost",
            ])]

    def _read_factor_rule(self, p):
        if p.dmls < MIN_DMLS:
            return []
        observed = max(1, int(round(p.reads_per_dml)))
        declared = max(1, p.read_factor)
        ratio = max(observed, declared) / max(1, min(observed, declared))
        if ratio < READ_FACTOR_MISMATCH:
            return []
        return [Finding(
            code="read-factor-mismatch",
            severity="warn",
            subject=p.table,
            summary=("declared read_factor %d but the EWMA observes "
                     "%.1f reads per DML — the cost model is weighing "
                     "reads with the wrong k"
                     % (declared, p.reads_per_dml)),
            evidence={"read_factor": declared,
                      "reads_per_dml": p.reads_per_dml,
                      "observed_k": observed},
            remediation=[
                "ALTER TABLE %s SET DUALTABLE (read_factor = %d)"
                % (p.table, observed),
            ])]

    def _drift_rule(self, p):
        if p.audits < MIN_AUDITS or p.rel_error_mean <= DRIFT_REL_ERROR:
            return []
        return [Finding(
            code="cost-model-drift",
            severity="warn",
            subject=p.table,
            summary=("cost-model audit drift: mean relative error %.1f%% "
                     "over %d audited statements (threshold %.0f%%) — "
                     "predictions no longer track observed run time"
                     % (100 * p.rel_error_mean, p.audits,
                        100 * DRIFT_REL_ERROR)),
            evidence={"audits": p.audits,
                      "rel_error_mean": p.rel_error_mean,
                      "rel_error_max": p.rel_error_max,
                      "threshold": DRIFT_REL_ERROR},
            remediation=[])]

    def _regret_rule(self, p):
        if p.mode != "overwrite" or p.overwrite_regret == 0:
            return []
        return [Finding(
            code="overwrite-plan-regret",
            severity="critical",
            subject=p.table,
            summary=("forced OVERWRITE plan chosen %d times where the "
                     "EDIT plan predicted cheaper (%.3f predicted "
                     "seconds wasted) — hand the choice back to the "
                     "cost model"
                     % (p.overwrite_regret, p.regret_seconds)),
            evidence={"overwrite_regret": p.overwrite_regret,
                      "regret_seconds": p.regret_seconds,
                      "mode": p.mode,
                      "plan_forced": p.plan_forced},
            remediation=[
                "ALTER TABLE %s SET DUALTABLE (mode = 'cost')"
                % p.table,
            ])]

    # -- server rules ----------------------------------------------------
    def _server_findings(self):
        server = getattr(self.session, "server", None)
        if server is None:
            return []
        counters = self.session.cluster.metrics.counters
        out = []
        tenants = sorted({s.tenant for s in server.sessions.values()})
        for tenant in tenants:
            shed = counters.get("server.shed.%s" % tenant, 0)
            timeouts = counters.get("server.timeouts.%s" % tenant, 0)
            if shed == 0 and timeouts == 0:
                continue
            out.append(Finding(
                code="tenant-pressure",
                severity="warn",
                subject="tenant:%s" % tenant,
                summary=("tenant %s lost statements to admission "
                         "control: %d shed, %d timed out — raise "
                         "max_queue/concurrency or pace the client"
                         % (tenant, shed, timeouts)),
                evidence={"shed": shed, "timeouts": timeouts,
                          "max_queue": server.admission.max_queue,
                          "concurrency": server.concurrency},
                remediation=[]))
        return out


def apply_findings(session, findings):
    """Execute remediation statements; returns (sql, result) pairs.

    Statements run in finding order, each distinct statement once, so
    the applied sequence is as deterministic as the findings are.
    """
    applied = []
    seen = set()
    for finding in findings:
        for sql in finding.remediation:
            if sql in seen:
                continue
            seen.add(sql)
            applied.append((sql, session.execute(sql)))
    return applied
