"""EXPLAIN and EXPLAIN ANALYZE.

Plain EXPLAIN describes how a statement would execute, without executing
it: for SELECTs the plan shows scans (with projection/pruning decisions),
joins, aggregation and ordering; for UPDATE/DELETE on a DualTable the
plan shows the cost evaluator's full reasoning — estimated modification
ratio, the EDIT and OVERWRITE cost estimates, and the chosen plan.

EXPLAIN ANALYZE *executes* the statement (PostgreSQL semantics: DML
really mutates) with tracing force-enabled and appends the observed
section — per-job seconds/bytes/tasks, per-device ledger deltas, and for
DualTable DML the cost-model audit line comparing the model's predicted
cost of the chosen plan against the ledger-observed run time.
"""

from repro.common.units import fmt_bytes
from repro.hive import ast_nodes as ast
from repro.hive.expressions import (contains_aggregate, referenced_columns,
                                    walk)
from repro.hive.pushdown import extract_ranges
from repro.hive.rowedit import WhereEdit


def explain(session, stmt, analyze=False):
    from repro.hive.session import QueryResult

    lines = []
    if isinstance(stmt, ast.SelectStmt):
        _explain_select(session, stmt, lines, indent=0)
    elif isinstance(stmt, ast.UpdateStmt):
        _explain_update(session, stmt, lines)
    elif isinstance(stmt, ast.DeleteStmt):
        _explain_delete(session, stmt, lines)
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
    summary += ", %d job(s)" % len(result.jobs)
    lines.append(summary)
    job_spans = _match_job_spans(result.jobs, spans)
    for job, span in zip(result.jobs, job_spans):
        line = ("job %s: %.2fs (%d map + %d reduce tasks; map %.2fs, "
                "shuffle %.2fs, reduce %.2fs"
                % (job.name, job.sim_seconds, job.num_map_tasks,
                   job.num_reduce_tasks, job.map_seconds,
                   job.shuffle_seconds, job.reduce_seconds))
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
    audit = result.detail.get("audit")
    if audit is not None:
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
    pad = _pad(indent)
    is_aggregate = bool(stmt.group_by) or any(
        contains_aggregate(item.expr) for item in stmt.items)
    lines.append(pad + "SELECT (%d output column(s)%s)"
                 % (len(stmt.items), ", aggregate" if is_aggregate else ""))
    if stmt.source is None:
        lines.append(pad + "  constant (no FROM)")
        return
    refs = [stmt.source] + [j.table for j in stmt.joins]
    needed = set()
    for item in stmt.items:
        needed |= referenced_columns(item.expr)
    if stmt.where is not None:
        needed |= referenced_columns(stmt.where)
    for expr in stmt.group_by:
        needed |= referenced_columns(expr)
    # A sort key outside the select list is read from storage too, as a
    # hidden column the executor strips after the sort.
    for order in stmt.order_by:
        needed |= referenced_columns(order.expr)
    for ref in refs:
        _explain_scan(session, ref, stmt.where, needed, lines, indent + 1)
    for join in stmt.joins:
        keys = [n.display for n in walk(join.condition)
                if isinstance(n, ast.ColumnRef)]
        lines.append(pad + "  JOIN [%s] on %s"
                     % (join.kind, ", ".join(sorted(set(keys)))))
    if is_aggregate:
        lines.append(pad + "  GROUP BY %d key(s) (map-side hash "
                           "aggregation + merge reduce)"
                     % len(stmt.group_by))
    if stmt.having is not None:
        lines.append(pad + "  HAVING filter")
    if stmt.order_by:
        lines.append(pad + "  ORDER BY %d key(s)" % len(stmt.order_by))
    if stmt.limit is not None:
        lines.append(pad + "  LIMIT %d" % stmt.limit)


def _explain_scan(session, table_ref, where, needed, lines, indent):
    pad = _pad(indent)
    if table_ref.subquery is not None:
        lines.append(pad + "derived table %s:" % table_ref.binding)
        _explain_select(session, table_ref.subquery, lines, indent + 1)
        return
    info = session.metastore.table(table_ref.name)
    handler = info.handler
    projection = sorted(n for n in needed if info.schema.has_column(n))
    ranges = extract_ranges(where) if where is not None else {}
    usable = sorted(n for n in ranges if info.schema.has_column(n))
    lines.append(pad + "SCAN %s (storage=%s, ~%d rows)"
                 % (table_ref.binding, info.storage, handler.row_count()))
    lines.append(pad + "  projection: %s"
                 % (", ".join(projection) if projection
                    else "(first column only)"))
    if usable:
        lines.append(pad + "  stripe-prunable predicate columns: %s"
                     % ", ".join(usable))
    if getattr(handler, "primary_key", None) is not None:
        _explain_lookup(session, handler, ranges, projection or None,
                        lines, indent)


def _explain_lookup(session, handler, ranges, projection, lines, indent):
    """LOOKUP-plan eligibility and cost verdict (uncharged planning)."""
    pad = _pad(indent)
    mode = getattr(session, "plan_mode", "cost")
    plan = handler.plan_lookup(ranges, projection=projection,
                               hit_faults=False)
    if plan is None:
        if mode == "lookup":
            lines.append(pad + "  plan: LOOKUP forced but ineligible "
                               "(statement will fail)")
        return
    choice = plan.choice
    chosen = mode if mode in ("lookup", "scan") else choice.plan
    lines.append(pad + "  LOOKUP eligibility (PRIMARY KEY %s):" % plan.pk)
    lines.append(pad + "    candidate files:  %d of %d, stripes %d of %d, "
                       "row groups %d of %d (~%d row(s))"
                 % (choice.files_read, choice.total_files, *plan.stripes,
                    *plan.row_groups, plan.est_rows))
    lines.append(pad + "    LOOKUP cost:      %.4fs (%s)"
                 % (choice.lookup_seconds, fmt_bytes(choice.lookup_bytes)))
    lines.append(pad + "    scan cost:        %.4fs (%s)"
                 % (choice.scan_seconds, fmt_bytes(choice.scan_bytes)))
    if mode != "cost":
        lines.append(pad + "    plan: %s (forced by dualtable.plan)"
                     % chosen)
    else:
        lines.append(pad + "    plan: %s" % chosen)


def _dml_header(session, stmt, verb, lines):
    info = session.metastore.table(stmt.table)
    lines.append("%s %s (storage=%s)" % (verb, stmt.table, info.storage))
    return info


def _explain_update(session, stmt, lines):
    info = _dml_header(session, stmt, "UPDATE", lines)
    lines.append("  SET %d column(s): %s"
                 % (len(stmt.assignments),
                    ", ".join(name for name, _ in stmt.assignments)))
    _explain_dml_plan(session, info, stmt, lines)


def _explain_delete(session, stmt, lines):
    info = _dml_header(session, stmt, "DELETE FROM", lines)
    _explain_dml_plan(session, info, stmt, lines)


def _explain_dml_plan(session, info, stmt, lines):
    handler = info.handler
    if info.storage == "orc":
        lines.append("  plan: INSERT OVERWRITE (full table rewrite — "
                     "reads and writes every column of every row)")
        return
    if info.storage == "hbase":
        lines.append("  plan: in-place random writes during table scan")
        return
    if info.storage == "acid":
        lines.append("  plan: append a new delta table "
                     "(currently %d delta(s))" % len(handler.delta_dirs()))
        return
    # DualTable: run the actual cost evaluation (cheap, footer-only).
    edit = WhereEdit(stmt, info.schema)
    choice = handler.choose_dml_plan(edit)
    plan = handler._plan_for(edit, choice.plan)
    lines.append("  cost evaluation (DualTable, attached backend=%s):"
                 % handler.attached.backend)
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
    if plan == "edit" and handler.primary_key is not None:
        _explain_edit_by_key(session, handler, edit, choice, lines)


def _explain_edit_by_key(session, handler, edit, choice, lines):
    """The keyed write path's verdict: symptom, evidence, expected gain."""
    projection, ranges, _ = handler._edit_scan(edit)
    keyed = handler.plan_lookup(ranges, projection, hit_faults=False)
    if keyed is None:
        return
    mode = getattr(session, "plan_mode", "cost")
    verdict = keyed.choice
    lines.append("  EDIT-by-key (PRIMARY KEY %s bounds the WHERE):" % keyed.pk)
    lines.append("    symptom:   the EDIT job pays startup + %d task(s) "
                 "to find ~%d row(s)" % (verdict.total_files, keyed.est_rows))
    lines.append("    evidence:  candidate files %d of %d, stripes %d of %d, "
                 "row groups %d of %d; keyed read %.4fs vs job %.4fs vs "
                 "OVERWRITE %.2fs"
                 % (verdict.files_read, verdict.total_files, *keyed.stripes,
                    *keyed.row_groups, verdict.lookup_seconds,
                    verdict.scan_seconds, choice.overwrite_seconds))
    if mode == "scan":
        lines.append("    plan: job (forced by dualtable.plan)")
    elif mode != "lookup" and verdict.plan != "lookup":
        lines.append("    plan: job")
    else:
        lines.append("    expected gain: %.4fs and one MapReduce job saved"
                     % verdict.cost_difference)
        lines.append("    plan: edit-by-key (no MapReduce job)")


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
