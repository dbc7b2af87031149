"""The amortized compaction decision rule (extends Section IV).

The paper's cost model (eq. 1/2) weighs one statement's EDIT vs
OVERWRITE plans.  Compaction needs the *amortized* generalization: the
Attached Table taxes every future UNION READ with its delta scan, so

    compact file set S now  iff
    horizon × Σ_{f∈S} per_read_overhead(f)  >  rewrite_cost(S)

where ``horizon`` is the stats-derived expected number of table reads
per mutation (:mod:`repro.maintenance.stats`) and both sides are
predicted with the same device-rate arithmetic the cluster charges —
the predictions are audited against observed seconds after every
executed compaction, under the same 25 % rel-error discipline as the
DML cost model.

Candidate plans, scored by net benefit:

* **partial** — rewrite the ``k`` highest-delta-density master files
  (for every prefix ``k`` of the density ordering) and pay charged
  per-entry range deletes to drop only their deltas;
* **full** — rewrite every master file; the Attached-Table truncate is
  free, which is exactly why full compaction wins once most files are
  dirty.
"""

from dataclasses import dataclass, field

from repro.mapreduce import stage_choice


@dataclass
class CompactionDecision:
    """What the policy chose and the full cost breakdown (for spans,
    SHOW COMPACTIONS and the 'declined' observability requirement)."""

    action: str                 # 'partial' | 'full' | 'decline'
    files: list = field(default_factory=list)   # selected FilePlan list
    predicted_seconds: float = 0.0
    benefit_seconds: float = 0.0
    horizon: float = 1.0
    note: str = ""
    breakdown: dict = field(default_factory=dict)


class CompactionPolicy:
    """Scores compaction plans for one DualTable store (or a plain
    table's handler) from its file plans
    (:meth:`~repro.core.store.DualTableStore.plan_files`): metadata only,
    free like plan choice, so the daemon re-scores tables every tick.
    ``plan_mode`` is the session's ``SET dualtable.plan``."""

    def __init__(self, handler, options=None, plan_mode="cost"):
        self.handler = handler
        self.options = dict(options or {})
        self.plan_mode = plan_mode

    # ------------------------------------------------------------------
    # Predicted costs (mirrors the charging model in mapreduce.runner
    # and cluster.Cluster: HDFS at per-slot rate inside map tasks, HBase
    # at aggregate rates added serially to job time).
    # ------------------------------------------------------------------
    def _profile(self):
        return self.handler.env.cluster.profile

    def _rates(self):
        return self.handler.attached.rates(self._profile())

    def per_read_overhead(self, f):
        """Extra seconds ONE table read pays for file ``f``'s deltas."""
        profile = self._profile()
        return self._rates().read_seconds(
            f.delta_bytes, f.delta_entries,
            profile.byte_scale, profile.op_scale)

    def rewrite_job_seconds(self, files):
        """Predicted compact time over ``files`` (read + write): the read
        is the verdict's seconds, a job or a local job over the splits it
        reads (:func:`~repro.mapreduce.stage_choice`; a store folds
        alone)."""
        profile = self._profile()
        read_seconds = stage_choice(
            profile, self.plan_mode, [(True, self.handler.splits(files))],
            1).seconds
        out_bytes = sum(f.file_bytes for f in files)
        write_seconds = (out_bytes * profile.byte_scale
                         / profile.hdfs_write_bps)
        return read_seconds + write_seconds

    def delta_drop_seconds(self, f):
        """Predicted charged cost of ``clear_file`` for one file: a
        range scan to materialize the record IDs plus one bulk delete
        per entry (full truncate, by contrast, is free)."""
        profile = self._profile()
        # delete_row charges len(record_id) + 9 bytes per entry.
        return self.per_read_overhead(f) + self._rates().write_seconds(
            21 * f.delta_entries, f.delta_entries, profile.byte_scale,
            profile.op_scale)

    # ------------------------------------------------------------------
    # The decision.
    # ------------------------------------------------------------------
    def decide(self, horizon):
        """Best plan for the given read horizon (a CompactionDecision)."""
        mode = str(self.options.get("mode", "auto")).lower()
        min_delta = int(self.options.get("min_delta_bytes", 1))
        max_files = self.options.get("max_files")
        files = self.handler.plan_files()
        dirty = [f for f in files if f.delta_bytes >= max(1, min_delta)]
        if not dirty:
            return CompactionDecision(action="decline", horizon=horizon,
                                      note="no deltas above threshold")
        dirty.sort(key=lambda f: (-f.density, f.path))
        candidates = []
        if mode != "full":
            limit = len(dirty)
            if max_files is not None:
                limit = min(limit, max(1, int(max_files)))
            for k in range(1, limit + 1):
                subset = dirty[:k]
                cost = (self.rewrite_job_seconds(subset)
                        + sum(self.delta_drop_seconds(f) for f in subset))
                benefit = horizon * sum(self.per_read_overhead(f)
                                        for f in subset)
                candidates.append(("partial", subset, cost, benefit))
        if mode != "partial":
            cost = self.rewrite_job_seconds(files)
            benefit = horizon * sum(self.per_read_overhead(f)
                                    for f in dirty)
            candidates.append(("full", files, cost, benefit))
        action, subset, cost, benefit = max(
            candidates, key=lambda c: c[3] - c[2])
        breakdown = {
            "horizon": horizon,
            "dirty_files": len(dirty),
            "total_files": len(files),
            "candidate_plans": len(candidates),
            "predicted_seconds": cost,
            "benefit_seconds": benefit,
        }
        if benefit <= cost:
            return CompactionDecision(
                action="decline", files=[], predicted_seconds=cost,
                benefit_seconds=benefit, horizon=horizon,
                note="best plan (%s over %d files) not amortized"
                     % (action, len(subset)),
                breakdown=breakdown)
        breakdown["plan_files"] = len(subset)
        return CompactionDecision(
            action=action, files=list(subset), predicted_seconds=cost,
            benefit_seconds=benefit, horizon=horizon,
            note="%s over %d/%d files" % (action, len(subset), len(files)),
            breakdown=breakdown)
