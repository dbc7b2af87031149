"""Per-table workload profiles derived from the metrics registry.

A :class:`TableProfile` condenses the always-on per-table counters and
histograms the PR-7 instrumentation records (scans, DML mix, plan
choices, scanned/rewritten bytes, delta churn, cost-audit errors) plus
the PR-4 EWMA reads-per-DML estimate into the shape the analyzer rules
pattern-match against.

Profiles are *read-only* views: building one performs no charged work
and mutates nothing but the shared :class:`StatsCollector` EWMA (which
the maintenance daemon advances from the same counters anyway — the
collector is idempotent over unchanged counter values).

Determinism: every input is a registry counter/histogram (byte-identical
across worker counts, PR-3) or static handler
configuration, so two identical workloads yield identical profiles.
"""

from dataclasses import dataclass, field


def _hist_summary(hist):
    """Plain-dict summary of a registry histogram (None-safe)."""
    if hist is None or hist.count == 0:
        return {"count": 0, "sum": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0}
    return {"count": hist.count, "sum": round(hist.total, 6),
            "mean": round(hist.mean, 6),
            "p50": round(hist.p50, 6), "p95": round(hist.p95, 6),
            "p99": round(hist.p99, 6)}


@dataclass
class TableProfile:
    """Observed workload shape of one DualTable."""

    table: str
    storage: str = "dualtable"
    # -- configuration (the knobs the actuator can turn) ---------------
    mode: str = "cost"
    read_factor: int = 1
    autocompact_on: bool = False
    # -- read/write mix ------------------------------------------------
    scans: int = 0
    dmls: int = 0
    updates: int = 0
    deletes: int = 0
    # -- delta churn / bytes -------------------------------------------
    deltas_applied: int = 0
    batches_fast: int = 0
    batches_overlay: int = 0
    attached_bytes: int = 0
    bytes_read: float = 0.0
    bytes_rewritten: int = 0
    compacts: int = 0
    # -- plan mix and regret -------------------------------------------
    plan_edit: int = 0
    plan_overwrite: int = 0
    plan_forced: int = 0
    lookups: int = 0
    lookup_eligible_scans: int = 0
    lookup_fallbacks: int = 0
    overwrite_regret: int = 0
    edit_regret: int = 0
    regret_seconds: float = 0.0
    # -- cost-model audit ----------------------------------------------
    audits: int = 0
    rel_error_mean: float = 0.0
    rel_error_max: float = 0.0
    # -- EWMA (shared with the maintenance daemon) ---------------------
    reads_per_dml: float = 1.0
    # -- sharding (dualtable-sharded only) -----------------------------
    shard_count: int = 0
    shard_heats: list = field(default_factory=list)
    # -- distributions (for the dashboard) -----------------------------
    scan_bytes_hist: dict = field(default_factory=dict)
    dml_seconds_hist: dict = field(default_factory=dict)

    @property
    def scan_dml_ratio(self):
        """Scans per mutation (DML-free tables read as pure-scan)."""
        return self.scans / max(1, self.dmls)

    def as_dict(self):
        return {
            "table": self.table,
            "storage": self.storage,
            "mode": self.mode,
            "read_factor": self.read_factor,
            "autocompact_on": self.autocompact_on,
            "scans": self.scans,
            "dmls": self.dmls,
            "updates": self.updates,
            "deletes": self.deletes,
            "deltas_applied": self.deltas_applied,
            "batches_fast": self.batches_fast,
            "batches_overlay": self.batches_overlay,
            "attached_bytes": self.attached_bytes,
            "bytes_read": round(self.bytes_read, 6),
            "bytes_rewritten": self.bytes_rewritten,
            "compacts": self.compacts,
            "plan_edit": self.plan_edit,
            "plan_overwrite": self.plan_overwrite,
            "plan_forced": self.plan_forced,
            "lookups": self.lookups,
            "lookup_eligible_scans": self.lookup_eligible_scans,
            "lookup_fallbacks": self.lookup_fallbacks,
            "overwrite_regret": self.overwrite_regret,
            "edit_regret": self.edit_regret,
            "regret_seconds": round(self.regret_seconds, 6),
            "audits": self.audits,
            "rel_error_mean": round(self.rel_error_mean, 6),
            "rel_error_max": round(self.rel_error_max, 6),
            "reads_per_dml": round(self.reads_per_dml, 6),
            "scan_dml_ratio": round(self.scan_dml_ratio, 6),
            "shard_count": self.shard_count,
            "shard_heats": list(self.shard_heats),
            "scan_bytes_hist": self.scan_bytes_hist,
            "dml_seconds_hist": self.dml_seconds_hist,
        }


def build_profile(session, name):
    """The :class:`TableProfile` of one DualTable (by catalog name)."""
    info = session.metastore.table(name)
    handler = info.handler
    metrics = session.cluster.metrics
    counters = metrics.counters
    gauges = metrics.gauges

    def c(pattern):
        return counters.get(pattern % name, 0)

    def per_store(pattern):
        """A counter the stores keep under their own names, summed (a
        plain table's one store is named like the table)."""
        return sum(counters.get(pattern % store.name, 0)
                   for store in handler.shards)

    def h(pattern):
        return metrics.histogram(pattern % name)

    sharded = handler.router.bucketed
    stats = session.maintenance.collector.refresh(name,
                                                  handler.read_factor)
    scan_bytes = h("dualtable.scan_bytes.%s")
    regret = h("dualtable.plan.regret_seconds.%s")
    rel_error = h("costmodel.rel_error.table.%s")
    return TableProfile(
        table=name,
        storage=info.storage,
        mode=handler.mode,
        read_factor=handler.read_factor,
        autocompact_on=name in session.maintenance.configs,
        scans=c("dualtable.scans.%s"),
        dmls=c("dualtable.dml.%s"),
        updates=c("dualtable.updates.%s"),
        deletes=c("dualtable.deletes.%s"),
        deltas_applied=per_store("unionread.deltas_applied.%s"),
        batches_fast=per_store("unionread.batches_fast.%s"),
        batches_overlay=per_store("unionread.batches_overlay.%s"),
        attached_bytes=int(gauges.get("dualtable.attached_bytes.%s"
                                      % name, 0)),
        bytes_read=scan_bytes.total if scan_bytes else 0.0,
        bytes_rewritten=c("dualtable.bytes_rewritten.%s"),
        compacts=per_store("dualtable.compacts.%s"),
        plan_edit=c("dualtable.plan.edit.%s"),
        plan_overwrite=c("dualtable.plan.overwrite.%s"),
        plan_forced=c("dualtable.plan.forced.%s"),
        lookups=c("dualtable.plan.lookup.%s"),
        lookup_eligible_scans=c("dualtable.plan.lookup_eligible_scan.%s"),
        lookup_fallbacks=c("dualtable.plan.lookup_fallback.%s"),
        overwrite_regret=c("dualtable.plan.overwrite_regret.%s"),
        edit_regret=c("dualtable.plan.edit_regret.%s"),
        regret_seconds=regret.total if regret else 0.0,
        audits=c("costmodel.audits.%s"),
        rel_error_mean=rel_error.mean if rel_error else 0.0,
        rel_error_max=(rel_error.vmax or 0.0) if rel_error else 0.0,
        reads_per_dml=stats.reads_per_dml,
        shard_count=len(handler.shards) if sharded else 0,
        shard_heats=list(handler.shard_heats()) if sharded else [],
        scan_bytes_hist=_hist_summary(scan_bytes),
        dml_seconds_hist=_hist_summary(h("dualtable.dml_seconds.%s")),
    )


def build_profiles(session):
    """Profiles of every DualTable in the catalog, sorted by name."""
    return [build_profile(session, name)
            for name in sorted(session.metastore.list_tables())
            if session.metastore.table(name).storage
            in ("dualtable", "dualtable-sharded")]
