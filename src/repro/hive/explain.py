"""EXPLAIN and EXPLAIN ANALYZE.

Plain EXPLAIN describes how a statement would execute, without executing
it: for SELECTs the plan shows scans (with projection/pruning decisions),
joins, aggregation and ordering; for UPDATE/DELETE the storage's
``dml_plan`` line, or on a DualTable the cost evaluator's full
reasoning — estimated modification ratio, the EDIT and OVERWRITE cost
estimates, and the chosen plan.

EXPLAIN ANALYZE *executes* the statement (PostgreSQL semantics: DML
really mutates) with tracing force-enabled and appends the observed
section — per-job seconds/bytes/tasks, per-device ledger deltas, and for
DualTable DML the cost-model audit line comparing the model's predicted
cost of the chosen plan against the ledger-observed run time.
"""

from repro.common.units import fmt_bytes
from repro.hive import ast_nodes as ast
from repro.hive.executor import ScanSource, SelectExecutor, route_read
from repro.hive.expressions import walk
from repro.hive.rowedit import WhereEdit
from repro.mapreduce import stage_choice


def explain(session, stmt, analyze=False):
    from repro.hive.session import QueryResult

    lines = []
    if isinstance(stmt, (ast.SelectStmt, ast.UnionAllStmt)):
        _explain_select(session, stmt, lines, indent=0)
    elif isinstance(stmt, (ast.UpdateStmt, ast.DeleteStmt)):
        _explain_dml(session, stmt, lines)
    elif isinstance(stmt, ast.InsertStmt):
        lines.append("INSERT %s TABLE %s"
                     % ("OVERWRITE" if stmt.overwrite else "INTO",
                        stmt.table))
        info = session.metastore.table(stmt.table)
        lines.append("  target storage: %s" % info.storage)
        if stmt.query is not None:
            _explain_select(session, stmt.query, lines, indent=1)
        else:
            lines.append("  VALUES: %d row(s)" % len(stmt.values))
    elif isinstance(stmt, ast.MergeStmt):
        _explain_merge(session, stmt, lines)
    elif isinstance(stmt, ast.CompactStmt):
        info = session.metastore.table(stmt.table)
        if stmt.partial:
            mode = "partial" if stmt.max_files is None \
                else "partial %d" % stmt.max_files
        else:
            mode = "major" if stmt.major else "minor"
        lines.append("COMPACT %s (%s, %s)" % (stmt.table, info.storage, mode))
        if hasattr(info.handler, "plan_compact"):   # a DualTable's
            _explain_compact(session, info.handler, stmt, lines)
    else:
        lines.append("statement: %s" % type(stmt).__name__)
    if not analyze:
        return QueryResult(names=["plan"], rows=[(line,) for line in lines],
                           plan="explain")
    result, delta, spans = _execute_for_analyze(session, stmt)
    lines.append("")
    _analyze_lines(result, delta, spans, lines)
    detail = dict(result.detail)
    detail["observed"] = delta
    return QueryResult(names=["plan"], rows=[(line,) for line in lines],
                       plan="explain-analyze",
                       sim_seconds=result.sim_seconds, jobs=result.jobs,
                       affected=result.affected, detail=detail)


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE: execute under forced tracing, annotate the plan.
# ----------------------------------------------------------------------
def _execute_for_analyze(session, stmt):
    cluster = session.cluster
    tracer = cluster.tracer
    was_enabled = tracer.enabled
    tracer.enable()
    mark = len(tracer.spans)
    before = cluster.ledger.snapshot()
    try:
        result = session.execute_statement(stmt)
    finally:
        if not was_enabled:
            tracer.disable()
    delta = cluster.ledger.diff(before)
    spans = list(tracer.spans[mark:])
    if not was_enabled:
        # Don't leak force-enabled spans into a user's (disabled) trace.
        del tracer.spans[mark:]
    return result, delta, spans


def _analyze_lines(result, delta, spans, lines):
    lines.append("== observed (statement executed) ==")
    summary = "total: %.2fs simulated" % result.sim_seconds
    if result.affected is not None:
        summary += ", %d row(s) affected" % result.affected
    elif result.rows:
        summary += ", %d row(s)" % len(result.rows)
    # A local ``select-scan``, the executor's map-only stage, is a fetch.
    kinds = [("fetch" if job.name == "select-scan" else "local")
             if job.local else "job" for job in result.jobs]
    summary += ", %d job(s)" % kinds.count("job")
    for kind, label in (("fetch", "fetch(es)"), ("local", "local job(s)")):
        if kind in kinds:
            summary += ", %d %s" % (kinds.count(kind), label)
    lines.append(summary)
    job_spans = _match_job_spans(result.jobs, spans)
    for job, kind, span in zip(result.jobs, kinds, job_spans):
        line = ("%s %s: %.2fs (%d map + %d reduce tasks%s; map %.2fs, "
                "shuffle %.2fs, reduce %.2fs"
                % (kind, job.name, job.sim_seconds, job.num_map_tasks,
                   job.num_reduce_tasks, " in the client" if job.local else "",
                   job.map_seconds, job.shuffle_seconds, job.reduce_seconds))
        if span is not None:
            line += ", hbase %.2fs; %s charged" % (span.hbase_seconds,
                                                   fmt_bytes(span.nbytes))
        if job.counters.get("task_retries"):
            line += "; %d retr%s" % (job.counters["task_retries"],
                                     "y" if job.counters["task_retries"] == 1
                                     else "ies")
        if job.counters.get("speculative_tasks"):
            line += "; %d speculative" % job.counters["speculative_tasks"]
        lines.append("  " + line + ")")
    phase_spans = [s for s in spans if s.kind == "phase"
                   and s.name.startswith("dualtable:")]
    for span in phase_spans:
        lines.append("  phase %s: %.2fs (%s charged)"
                     % (span.name, span.seconds, fmt_bytes(span.nbytes)))
    io_parts = sorted(delta["seconds"].items(), key=lambda kv: -kv[1])
    if io_parts:
        lines.append("io: " + "; ".join(
            "%s.%s %s / %.2fs"
            % (sub, op, fmt_bytes(delta["bytes"].get((sub, op), 0)), secs)
            for (sub, op), secs in io_parts[:8]))
    for stage in result.detail.get("stages", [result.detail]):
        audit = stage.get("audit")
        if audit is None:
            continue
        lines.append(
            "cost-model audit: plan=%s predicted=%.2fs observed=%.2fs "
            "rel_error=%.1f%%"
            % (audit["plan"], audit["predicted_seconds"],
               audit["observed_seconds"], 100.0 * audit["rel_error"]))


def _match_job_spans(jobs, spans):
    """Pair JobResults with their job spans by name, in order."""
    by_name = {}
    for span in spans:
        if span.kind == "job":
            by_name.setdefault(span.name, []).append(span)
    matched = []
    for job in jobs:
        queue = by_name.get(job.name)
        matched.append(queue.pop(0) if queue else None)
    return matched


# ----------------------------------------------------------------------
def _pad(indent):
    return "  " * indent


def _explain_select(session, stmt, lines, indent=0):
    """The executor's plan of ``stmt`` (:meth:`SelectExecutor.plan`) and
    each leaf's route, as the run would take them."""
    pad = _pad(indent)
    if isinstance(stmt, ast.UnionAllStmt):
        lines.append(pad + "UNION ALL (%d branches)" % len(stmt.selects))
        for select in stmt.selects:
            _explain_select(session, select, lines, indent + 1)
        return
    if stmt.source is None:
        lines.append(pad + "SELECT (%d output column(s))" % len(stmt.items))
        lines.append(pad + "  constant (no FROM)")
        return
    plan = SelectExecutor(session).plan(stmt)
    lines.append(pad + "SELECT (%d output column(s)%s)"
                 % (len(plan.items), ", aggregate" if plan.aggregate else ""))
    # The first shuffle stage reads leaves; a later one (a second join,
    # a GROUP BY after a join) reads a relation materialized at run time.
    fed = 2 if stmt.joins else 1
    stage = (_stage(session, plan.leaves[:fed], "a join" if stmt.joins
                    else "an aggregation")
             if stmt.joins or plan.aggregate else _AT_RUN_TIME)
    for i, leaf in enumerate(plan.leaves):
        if isinstance(leaf, ScanSource):
            _explain_scan(session, leaf, lines, indent + 1,
                          (stage if i < fed else _AT_RUN_TIME)[0])
        else:
            lines.append(pad + "  derived table %s:" % leaf.binding)
            _explain_select(session, leaf.subquery, lines, indent + 2)
    for join in stmt.joins:
        keys = [n.display for n in walk(join.condition)
                if isinstance(n, ast.ColumnRef)]
        lines.append(pad + "  JOIN [%s] on %s"
                     % (join.kind, ", ".join(sorted(set(keys)))))
        _explain_stage(stage if join is stmt.joins[0] else _AT_RUN_TIME,
                       lines, pad)
    if plan.aggregate:
        lines.append(pad + "  GROUP BY %d key(s) (map-side hash "
                           "aggregation + merge reduce)"
                     % len(stmt.group_by))
        _explain_stage(_AT_RUN_TIME if stmt.joins else stage, lines, pad)
    if stmt.having is not None:
        lines.append(pad + "  HAVING filter")
    if stmt.order_by:
        lines.append(pad + "  ORDER BY %d key(s)" % len(stmt.order_by))
    if stmt.limit is not None:
        lines.append(pad + "  LIMIT %d" % stmt.limit)


#: the verdict of a stage whose input is materialized at run time.
_AT_RUN_TIME = ("local or job, priced at run time", None)


def _stage(session, leaves, shuffle):
    """``(verdict, LocalChoice)`` of a shuffle stage over leaf scans,
    priced from their planned splits as the run prices them."""
    if not all(isinstance(leaf, ScanSource) for leaf in leaves):
        return _AT_RUN_TIME             # a derived table
    choice = stage_choice(session.cluster.profile, session.plan_mode, [
        (leaf.handler.union_read, leaf.handler.plan_splits(
            leaf.projection, leaf.ranges)) for leaf in leaves],
        max(leaf.handler.shard_fanout for leaf in leaves), shuffle)
    return ("job", None) if choice.forced else (choice.plan, choice)


def _explain_stage(stage, lines, pad):
    verdict, choice = stage
    if choice is not None:
        _explain_choice(lines, pad + "    ", "LOCAL eligibility (shuffle "
                        "stage):", "local", choice, verdict)
    else:
        lines.append(pad + "    plan: " + (
            "job (forced by dualtable.plan)" if verdict == "job"
            else verdict + " over the materialized input"))


def _explain_scan(session, scan, lines, indent, stage=None):
    """One leaf scan and the route the run takes for it."""
    pad = _pad(indent)
    handler = scan.handler
    lines.append(pad + "SCAN %s (storage=%s, ~%d rows)"
                 % (scan.alias, handler.table.storage, handler.row_count()))
    lines.append(pad + "  projection: %s" % ", ".join(scan.projection))
    usable = sorted(n for n in scan.ranges if handler.schema.has_column(n))
    if usable:
        lines.append(pad + "  stripe-prunable predicate columns: %s"
                     % _pruning_columns(handler, {name: scan.ranges[name]
                                                  for name in usable}))
    chosen = scan.route(session.plan_mode, live=False)
    if chosen.lookup is not None:
        _explain_lookup(chosen, lines, pad + "  ")
    if chosen.fetch is not None:
        _explain_choice(lines, pad + "  ", "FETCH eligibility (no shuffle, "
                        "%d split(s)):" % len(chosen.splits), "fetch",
                        chosen.fetch, chosen.plan)
    elif chosen.refused is not None:
        lines.append(pad + "  plan: none, the statement will fail (%s)"
                     % chosen.refused)
    elif scan.shuffle is not None:
        lines.append(pad + "  plan: %s (feeds %s)" % (stage, scan.shuffle))
    elif chosen.plan == "job":      # forced: scan mode prices no fetch
        lines.append(pad + "  plan: job (forced by dualtable.plan)")


def _pruning_columns(handler, ranges):
    """The columns of ``ranges``, each with the files with deltas that
    still prune by it when the table has such files
    (``pruning_on_dirty_files``)."""
    columns = list(ranges)
    account = handler.pruning_on_dirty_files(ranges)
    if not account or not account[0]:
        return ", ".join(columns)
    dirty, kept = account
    return ", ".join("%s (on in %d of %d files with deltas)"
                     % (column, kept[column], dirty) for column in columns)


def _explain_lookup(chosen, lines, pad):
    """The LOOKUP eligibility and cost verdict a route weighed."""
    plan = chosen.lookup
    choice = plan.choice
    lines.append(pad + "LOOKUP eligibility (PRIMARY KEY %s):" % plan.pk)
    lines.append(pad + "  candidate files:  %d of %d, stripes %d of %d, "
                       "row groups %d of %d (~%d row(s))%s"
                 % (choice.files_read, choice.total_files, *plan.stripes,
                    *plan.row_groups, plan.est_rows, _buckets(plan)))
    lines.append(pad + "  LOOKUP cost:      %.4fs (%s)"
                 % (choice.lookup_seconds, fmt_bytes(choice.lookup_bytes)))
    lines.append(pad + "  scan cost:        %.4fs (%s)"
                 % (choice.scan_seconds, fmt_bytes(choice.scan_bytes)))
    lines.append(pad + "  plan: %s%s"
                 % ("lookup" if chosen.plan == "lookup" else "scan",
                    " (forced by dualtable.plan)" if chosen.forced else ""))


def _explain_choice(lines, pad, head, label, choice, plan):
    """A client-or-cluster verdict (a ``LocalChoice``) and both costs."""
    lines.append(pad + head)
    lines.append(pad + "  %-18s%.4fs" % (label + " cost:",
                                         choice.local_seconds))
    lines.append(pad + "  job cost:         %.4fs" % choice.job_seconds)
    lines.append(pad + "  plan: %s" % plan)


def _explain_compact(session, handler, stmt, lines):
    """The job of the COMPACT the run plans and its verdict."""
    planned = handler.plan_compact(session.plan_mode,
                                   range(len(handler.shards)), stmt.partial,
                                   stmt.max_files)
    if planned is None:
        lines.append("  plan: none, no deltas to fold")
    else:
        _, _, splits, choice = planned
        _explain_choice(lines, "  ", "LOCAL eligibility (%d split(s)):"
                        % len(splits), "local", choice, "job (forced by "
                        "dualtable.plan)" if choice.forced else choice.plan)


def _buckets(plan):
    """``", buckets N of 64"`` when the keyed plan's key set is known."""
    return "" if plan.buckets is None else ", buckets %d of %d" % plan.buckets


def _explain_dml(session, stmt, lines):
    info = session.metastore.table(stmt.table)
    update = isinstance(stmt, ast.UpdateStmt)
    lines.append("%s %s (storage=%s)" % ("UPDATE" if update else
                                         "DELETE FROM", stmt.table,
                                         info.storage))
    if update:
        lines.append("  SET %d column(s): %s"
                     % (len(stmt.assignments),
                        ", ".join(name for name, _ in stmt.assignments)))
    handler = info.handler
    plan = handler.dml_plan
    if plan is not None:
        lines.append("  plan: " + plan)
        return
    # DualTable: run the actual cost evaluation (metadata only: free).
    edit = WhereEdit(stmt, info.schema)
    choice = handler.choose_dml_plan(edit)
    plan = handler._plan_for(edit, choice.plan)
    lines.append("  cost evaluation (DualTable, attached backend=%s):"
                 % handler.shards[0].attached.backend)
    lines.append("    estimated ratio:      %.4f (%d of ~%d rows)"
                 % (choice.ratio, int(choice.touched_rows),
                    handler.row_count()))
    lines.append("    EDIT cost:            %.2fs" % choice.edit_seconds)
    lines.append("    OVERWRITE cost:       %.2fs"
                 % choice.overwrite_seconds)
    lines.append("    successive reads (k): %d" % choice.k)
    if handler.mode != "cost":
        lines.append("    plan: %s (forced by dualtable.mode)" % plan)
    else:
        lines.append("    plan: %s" % plan)
    if handler.primary_key is not None \
            and handler._plan_for(edit, "edit") == "edit":
        _explain_edit_by_key(session, handler, edit, choice, lines)


def _explain_edit_by_key(session, handler, edit, choice, lines):
    """The keyed write path's route: symptom, evidence, expected gain."""
    chosen = route_read(handler, edit.projection(handler.schema),
                        edit.ranges, session.plan_mode, live=False)
    keyed = chosen.lookup
    if keyed is None:
        return
    verdict = keyed.choice
    lines.append("  EDIT-by-key (PRIMARY KEY %s bounds the WHERE):" % keyed.pk)
    lines.append("    symptom:   the EDIT job pays startup + %d task(s) "
                 "to find ~%d row(s)" % (verdict.total_files, keyed.est_rows))
    lines.append("    evidence:  candidate files %d of %d, stripes %d of %d, "
                 "row groups %d of %d%s; keyed read %.4fs vs job %.4fs vs "
                 "OVERWRITE %.2fs"
                 % (verdict.files_read, verdict.total_files, *keyed.stripes,
                    *keyed.row_groups, _buckets(keyed),
                    verdict.lookup_seconds, verdict.scan_seconds,
                    choice.overwrite_seconds))
    if chosen.plan == "lookup":
        lines.append("    expected gain: %.4fs and one MapReduce job saved"
                     % verdict.cost_difference)
        lines.append("    plan: edit-by-key (no MapReduce job)")
    else:
        lines.append("    plan: job%s" % (" (forced by dualtable.plan)"
                                         if chosen.forced else ""))


def _explain_merge(session, stmt, lines):
    info = session.metastore.table(stmt.target)
    lines.append("MERGE INTO %s (storage=%s)" % (stmt.target, info.storage))
    source = (stmt.source.binding if stmt.source.name
              else "(derived table %s)" % stmt.source.binding)
    lines.append("  USING %s" % source)
    if stmt.matched_assignments:
        lines.append("  WHEN MATCHED: update %d column(s)"
                     % len(stmt.matched_assignments))
    if stmt.insert_values is not None:
        lines.append("  WHEN NOT MATCHED: insert")
    lines.append("  matched arm: the %s UPDATE path, keyed by the ON join"
                 % info.storage)
