"""The DualTable cost model (Section IV).

For an UPDATE with ratio α over table size D and ``k`` successive reads:

.. math::

    Cost_U = C^M_{Write}(D) - α·(C^A_{Write}(D) + k·C^A_{Read}(D))    (1)

For a DELETE with ratio β, average row size d and marker size m:

.. math::

    Cost_D = C^M_{Write}(D) - β·(C^M_{Write}(D) + k·C^M_{Read}(D)
             + (m/d)·C^A_{Write}(D) + k·(m/d)·C^A_{Read}(D))          (2)

Positive cost difference ⇒ the EDIT plan is cheaper; otherwise OVERWRITE.

Two layers are provided:

* :func:`cost_u_paper` / :func:`cost_d_paper` — the literal equations with
  aggregate device rates (the Section IV worked example is a unit test);
* :class:`CostModel` — the production evaluator: it estimates α/β from
  ORC stripe statistics (or the metadata table's history), computes costs
  in *simulated seconds* using the live cluster profile (including HBase
  per-op latency, which the equations fold into the rates), and returns a
  full :class:`PlanChoice` record for observability.

LOOKUP's scan alternative is priced with the one job arithmetic,
:class:`~repro.mapreduce.runner.PlanCost`.
"""

from dataclasses import dataclass

from repro.mapreduce.runner import PlanCost


# ----------------------------------------------------------------------
# The literal paper equations (aggregate rates, bytes and seconds).
# ----------------------------------------------------------------------
def cost_u_paper(d_bytes, alpha, k, master_write_bps, attached_write_bps,
                 attached_read_bps):
    """Equation (1): OVERWRITE cost minus EDIT cost, in seconds."""
    master_write = d_bytes / master_write_bps
    attached_write = d_bytes / attached_write_bps
    attached_read = d_bytes / attached_read_bps
    return master_write - alpha * (attached_write + k * attached_read)


def cost_d_paper(d_bytes, beta, k, row_bytes, marker_bytes,
                 master_write_bps, master_read_bps, attached_write_bps,
                 attached_read_bps):
    """Equation (2): OVERWRITE cost minus EDIT cost, in seconds."""
    m_over_d = marker_bytes / row_bytes
    master_write = d_bytes / master_write_bps
    master_read = d_bytes / master_read_bps
    attached_write = d_bytes / attached_write_bps
    attached_read = d_bytes / attached_read_bps
    return master_write - beta * (
        master_write + k * master_read
        + m_over_d * attached_write + k * m_over_d * attached_read)


# ----------------------------------------------------------------------
# Production evaluator.
# ----------------------------------------------------------------------
@dataclass
class AttachedRates:
    """Device-cost description of one Attached-Table backend.

    ``page_bytes`` models update-in-place stores (B-tree backends) whose
    every random write is a page read-modify-write; it is 0 for
    log-structured stores like HBase.
    """

    write_bps: float
    read_bps: float
    op_latency_s: float
    scan_row_latency_s: float
    page_bytes: int = 0
    page_locality: int = 64

    @classmethod
    def from_hbase_profile(cls, profile):
        return cls(write_bps=profile.hbase_write_bps,
                   read_bps=profile.hbase_read_bps,
                   op_latency_s=profile.hbase_op_latency_s,
                   scan_row_latency_s=profile.hbase_scan_row_latency_s,
                   page_bytes=0)

    def write_seconds(self, nbytes, nops, byte_scale, op_scale):
        # Page read-modify-write is per operation (op_scale), not per byte.
        op_latency = self.op_latency_s
        if self.page_bytes:
            amortized = self.page_bytes / max(1, self.page_locality)
            op_latency += (amortized / self.write_bps
                           + amortized / self.read_bps)
        return (nbytes * byte_scale / self.write_bps
                + nops * op_scale * op_latency)

    def read_seconds(self, nbytes, nops, byte_scale, op_scale):
        return (nbytes * byte_scale / self.read_bps
                + nops * op_scale * self.scan_row_latency_s)


@dataclass
class PlanChoice:
    """Everything the cost evaluator decided and why."""

    plan: str               # 'edit' | 'overwrite'
    cost_difference: float  # positive ⇒ EDIT cheaper (paper convention)
    edit_seconds: float
    overwrite_seconds: float
    ratio: float            # estimated α or β
    k: int
    d_bytes: int
    touched_rows: float

    def detail(self, plan):
        """The statement-result detail of this verdict, ``plan`` run."""
        return {"plan": plan, "cost_plan": self.plan,
                "cost_difference": self.cost_difference,
                "edit_seconds": self.edit_seconds,
                "overwrite_seconds": self.overwrite_seconds,
                "ratio": self.ratio}


@dataclass
class LookupChoice:
    """Why the planner routed (or refused to route) a read as LOOKUP."""

    plan: str               # 'lookup' | 'scan'
    cost_difference: float  # positive ⇒ LOOKUP cheaper
    lookup_seconds: float
    scan_seconds: float
    files_read: int
    total_files: int
    lookup_bytes: int
    scan_bytes: int
    probe_entries: int


class CostModel:
    """Chooses EDIT vs OVERWRITE for one statement on one cluster."""

    #: size of a delete marker cell (record id + qualifier + overhead)
    MARKER_BYTES = 22

    def __init__(self, profile, k=1, attached_rates=None):
        self.profile = profile
        self.k = k
        self.attached_rates = (attached_rates
                               or AttachedRates.from_hbase_profile(profile))

    # -- device-cost primitives (aggregate cluster rates) ---------------
    def _master_write(self, nbytes):
        return nbytes * self.profile.byte_scale / self.profile.hdfs_write_bps

    def _master_read(self, nbytes):
        return nbytes * self.profile.byte_scale / self.profile.hdfs_read_bps

    def _attached_write(self, nbytes, nops):
        return self.attached_rates.write_seconds(
            nbytes, nops, self.profile.byte_scale, self.profile.op_scale)

    def _attached_read(self, nbytes, nops):
        return self.attached_rates.read_seconds(
            nbytes, nops, self.profile.byte_scale, self.profile.op_scale)

    # -- plan choice -----------------------------------------------------
    def choose_update_plan(self, d_bytes, total_rows, ratio,
                           update_cell_bytes, k=None, edit_scan_bytes=None):
        """Choose the UPDATE plan.

        ``update_cell_bytes`` is the average payload written to the
        Attached Table per updated row (record id + new field values) —
        the generalization of the paper's αD for updates that touch only
        a few of many columns.

        ``edit_scan_bytes`` is the master bytes the EDIT plan's scan must
        read (after projection and stripe pruning).  The paper's equation
        (1) drops both plans' modification-time read terms because without
        pruning they cancel; with ORC projection/pruning they do not, so
        the production evaluator keeps them.
        """
        k = self.k if k is None else k
        touched = ratio * total_rows
        edit_bytes = touched * update_cell_bytes
        if edit_scan_bytes is None:
            edit_scan_bytes = d_bytes
        overwrite_cost = (self._master_read(d_bytes)
                          + self._master_write(d_bytes)
                          + k * self._master_read(d_bytes))
        edit_cost = (self._master_read(edit_scan_bytes)
                     + self._attached_write(edit_bytes, touched)
                     + k * (self._attached_read(edit_bytes, touched)
                            + self._master_read(d_bytes)))
        return self._decide(overwrite_cost, edit_cost, ratio, k, d_bytes,
                            touched)

    def choose_delete_plan(self, d_bytes, total_rows, ratio, k=None,
                           edit_scan_bytes=None):
        """Choose the DELETE plan (markers are tiny; see eq. (2))."""
        k = self.k if k is None else k
        touched = ratio * total_rows
        marker_bytes = touched * self.MARKER_BYTES
        keep_bytes = (1.0 - ratio) * d_bytes
        if edit_scan_bytes is None:
            edit_scan_bytes = d_bytes
        overwrite_cost = (self._master_read(d_bytes)
                          + self._master_write(keep_bytes)
                          + k * self._master_read(keep_bytes))
        edit_cost = (self._master_read(edit_scan_bytes)
                     + self._attached_write(marker_bytes, touched)
                     + k * (self._attached_read(marker_bytes, touched)
                            + self._master_read(d_bytes)))
        return self._decide(overwrite_cost, edit_cost, ratio, k, d_bytes,
                            touched)

    @staticmethod
    def _decide(overwrite_cost, edit_cost, ratio, k, d_bytes, touched):
        difference = overwrite_cost - edit_cost
        return PlanChoice(
            plan="edit" if difference > 0 else "overwrite",
            cost_difference=difference,
            edit_seconds=edit_cost,
            overwrite_seconds=overwrite_cost,
            ratio=ratio,
            k=k,
            d_bytes=d_bytes,
            touched_rows=touched,
        )

    def choose_lookup_plan(self, scan_tasks, scan_bytes, lookup_bytes,
                           files_read, probe_bytes, probe_entries, rows=0,
                           fanout=1):
        """Choose LOOKUP vs the MR scan plan for one point/range read.

        The scan plan is a job over one task per file, ``scan_tasks``
        their :meth:`PlanCost.task_seconds` estimates (``scan_bytes``
        their projected stripe bytes), priced by
        :meth:`PlanCost.job_seconds` over ``fanout`` shards' slots.  The
        LOOKUP plan pays no job overhead: it reads only the stripes whose
        PK min/max admit the predicate (``lookup_bytes`` over
        ``files_read`` candidate files) plus an attached-table probe of
        the candidates' delta ranges (``probe_bytes`` /
        ``probe_entries``) and the union read's per-row merge CPU over
        the ``rows`` it examines.  Positive difference ⇒ LOOKUP cheaper.
        """
        scan_cost = PlanCost(self.profile).job_seconds(scan_tasks, fanout)
        lookup_cost = (self._master_read(lookup_bytes)
                       + self._attached_read(probe_bytes, probe_entries)
                       + rows * self.profile.op_scale
                       * self.profile.unionread_row_cost_s)
        difference = scan_cost - lookup_cost
        return LookupChoice(
            plan="lookup" if difference > 0 else "scan",
            cost_difference=difference,
            lookup_seconds=lookup_cost,
            scan_seconds=scan_cost,
            files_read=files_read,
            total_files=len(scan_tasks),
            lookup_bytes=lookup_bytes,
            scan_bytes=scan_bytes,
            probe_entries=probe_entries,
        )

    # -- crossover analysis (used by the ablation benches) ---------------
    def update_crossover_ratio(self, d_bytes, total_rows,
                               update_cell_bytes, k=None):
        """The α at which EDIT and OVERWRITE break even (bisection)."""
        lo, hi = 0.0, 1.0
        for _ in range(64):
            mid = (lo + hi) / 2
            choice = self.choose_update_plan(d_bytes, total_rows, mid,
                                             update_cell_bytes, k=k)
            if choice.plan == "edit":
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    def delete_crossover_ratio(self, d_bytes, total_rows, k=None):
        lo, hi = 0.0, 1.0
        for _ in range(64):
            mid = (lo + hi) / 2
            choice = self.choose_delete_plan(d_bytes, total_rows, mid, k=k)
            if choice.plan == "edit":
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def record_audit(cluster, table, plan, predicted, observed):
    """Record predicted-vs-observed cost for one executed plan; returns
    the audit.

    For the job plans the model's estimate covers device time for the
    plan's I/O and the observation is the whole statement's
    ledger-derived run time (startup, task overheads and commit
    included), so the relative error measures how faithfully Section
    IV's equations track the measured world — the audit
    SynchroStore-style systems feed back into their planners.  The keyed
    plans (``lookup``, ``edit_by_key``) audit the keyed read.  ``table``
    None (a local job's stage, over one or two relations) is no table's.
    """
    rel_error = (abs(predicted - observed) / observed
                 if observed > 0 else 0.0)
    audit = {"plan": plan,
             "predicted_seconds": predicted,
             "observed_seconds": observed,
             "rel_error": rel_error}
    metrics = cluster.metrics
    metrics.incr("costmodel.audits")
    metrics.observe("costmodel.rel_error", rel_error)
    metrics.observe("costmodel.rel_error.%s" % plan, rel_error)
    # Workload-profile hook (repro.advisor): drift detection needs a
    # per-table error distribution.
    if table is not None:
        metrics.incr("costmodel.audits.%s" % table)
        metrics.observe("costmodel.rel_error.table.%s" % table, rel_error)
    cluster.tracer.annotate(cost_audit=dict(audit))
    return audit
