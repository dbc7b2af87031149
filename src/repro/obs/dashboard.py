"""Telemetry dashboard exporter: advisor JSON + standalone HTML.

Two artifacts from one :func:`advisor_document`:

* ``advisor.json`` — the machine-readable advisor document (schema
  ``dualtable.advisor/v1``, checked by
  :func:`validate_advisor_document`): per-table workload profiles,
  sorted findings with evidence, every registry histogram, the full
  counter/gauge snapshot and optional per-statement counter series;
* ``dashboard.html`` — a dependency-free single-file HTML rendering
  with inline SVG sparklines (per-table scan/DML series), log-bucket
  histogram bars and the findings table, in the hand-rolled style of
  :mod:`repro.bench.svg`.

Determinism contract: the document is a pure function of registry
state, handler configuration and the virtual clock — it contains no
wall-clock timestamps and no worker count — and the JSON
serialization sorts keys, so a fixed seed yields byte-identical
artifacts across runs and ``workers=1/4``.
"""

import json
import os

#: the advisor-document schema tag (bump on breaking changes).
SCHEMA = "dualtable.advisor/v1"

_SEVERITY_COLORS = {"critical": "#d62728", "warn": "#ff7f0e",
                    "info": "#1f77b4"}


def _esc(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


# ----------------------------------------------------------------------
# Document assembly.
# ----------------------------------------------------------------------
def advisor_document(session, findings=None, series=None, workload=None):
    """The full advisor/telemetry document for one session (plain dict).

    ``findings`` may be passed pre-computed (e.g. the result of an
    ``ANALYZE WORKLOAD`` the caller already ran); otherwise the
    advisor runs here.  ``series`` is an optional per-table
    ``{table: {metric: [cumulative values...]}}`` sampled by the
    workload driver (the dashboard's sparklines).
    """
    from repro.advisor import WorkloadAdvisor, build_profiles

    if findings is None:
        findings = WorkloadAdvisor(session).analyze()
    snapshot = session.cluster.metrics.snapshot()
    server = getattr(session, "server", None)
    return {
        "schema": SCHEMA,
        "workload": workload,
        "sim_clock_s": round(session.cluster.clock.now, 6),
        "tables": [profile.as_dict()
                   for profile in build_profiles(session)],
        "findings": [finding.as_dict() for finding in findings],
        "histograms": {name: snapshot["histograms"][name]
                       for name in sorted(snapshot["histograms"])},
        # The wall-clock caches are the one knowingly nondeterministic
        # corner of the registry (hit/miss depends on thread timing, see
        # INTERNALS §6) — their counters stay out of the document so the
        # byte-identical guarantee holds across worker counts.
        "counters": {name: snapshot["counters"][name]
                     for name in sorted(snapshot["counters"])
                     if not name.startswith("cache.")},
        "gauges": {name: snapshot["gauges"][name]
                   for name in sorted(snapshot["gauges"])},
        "server": ([[name, value] for name, value in server.stats_rows()]
                   if server is not None else None),
        "series": series or {},
    }


def metrics_document(snapshot, workload=None, sim_clock_s=0.0):
    """A schema-valid advisor document from a bare registry snapshot.

    ``dualtable-bench --profile`` has a metrics snapshot but no live
    session by the time it writes artifacts, so its dashboard carries
    the histogram/counter/gauge sections with empty tables/findings.
    """
    return {
        "schema": SCHEMA,
        "workload": workload,
        "sim_clock_s": round(float(sim_clock_s), 6),
        "tables": [],
        "findings": [],
        "histograms": {name: snapshot.get("histograms", {})[name]
                       for name in sorted(snapshot.get("histograms", {}))},
        "counters": {name: snapshot.get("counters", {})[name]
                     for name in sorted(snapshot.get("counters", {}))
                     if not name.startswith("cache.")},
        "gauges": {name: snapshot.get("gauges", {})[name]
                   for name in sorted(snapshot.get("gauges", {}))},
        "server": None,
        "series": {},
    }


def to_json(doc):
    """Canonical serialization: sorted keys, stable float formatting."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# Schema validation (hand-rolled; no jsonschema dependency).
# ----------------------------------------------------------------------
_TABLE_KEYS = ("table", "mode", "read_factor", "autocompact_on",
               "scans", "dmls", "reads_per_dml", "scan_dml_ratio",
               "attached_bytes", "scan_bytes_hist", "dml_seconds_hist")
_FINDING_KEYS = ("code", "severity", "subject", "summary", "evidence",
                 "remediation")
_HIST_KEYS = ("count", "sum", "mean", "p50", "p95", "p99", "buckets")


def validate_advisor_document(doc):
    """Schema-check an advisor document; returns a list of errors."""
    errors = []
    if not isinstance(doc, dict):
        return ["advisor document must be an object"]
    if doc.get("schema") != SCHEMA:
        errors.append("schema must be %r (got %r)"
                      % (SCHEMA, doc.get("schema")))
    if not isinstance(doc.get("sim_clock_s"), (int, float)):
        errors.append("sim_clock_s must be a number")
    for key in ("tables", "findings"):
        if not isinstance(doc.get(key), list):
            errors.append("%r must be a list" % key)
    for key in ("histograms", "counters", "gauges", "series"):
        if not isinstance(doc.get(key), dict):
            errors.append("%r must be an object" % key)
    if errors:
        return errors
    for i, table in enumerate(doc["tables"]):
        where = "tables[%d]" % i
        if not isinstance(table, dict):
            errors.append("%s must be an object" % where)
            continue
        for key in _TABLE_KEYS:
            if key not in table:
                errors.append("%s: missing %r" % (where, key))
    for i, finding in enumerate(doc["findings"]):
        where = "findings[%d]" % i
        if not isinstance(finding, dict):
            errors.append("%s must be an object" % where)
            continue
        for key in _FINDING_KEYS:
            if key not in finding:
                errors.append("%s: missing %r" % (where, key))
        if finding.get("severity") not in _SEVERITY_COLORS:
            errors.append("%s: bad severity %r"
                          % (where, finding.get("severity")))
        if not isinstance(finding.get("remediation"), list):
            errors.append("%s: remediation must be a list" % where)
    for name, hist in doc["histograms"].items():
        where = "histograms[%r]" % name
        if not isinstance(hist, dict):
            errors.append("%s must be an object" % where)
            continue
        for key in _HIST_KEYS:
            if key not in hist:
                errors.append("%s: missing %r" % (where, key))
    server = doc.get("server")
    if server is not None and not isinstance(server, list):
        errors.append("'server' must be null or a list of [stat, value]")
    return errors


# ----------------------------------------------------------------------
# Inline SVG helpers.
# ----------------------------------------------------------------------
def _sparkline(values, width=180, height=40, color="#1f77b4"):
    """A minimal polyline sparkline of a cumulative series."""
    if not values:
        return '<span class="empty">no samples</span>'
    vmin, vmax = min(values), max(values)
    span = (vmax - vmin) or 1.0
    n = len(values)
    points = " ".join(
        "%.1f,%.1f" % (2 + (width - 4) * (i / max(1, n - 1)),
                       height - 3 - (height - 6) * ((v - vmin) / span))
        for i, v in enumerate(values))
    return ('<svg width="%d" height="%d" viewBox="0 0 %d %d">'
            '<polyline points="%s" fill="none" stroke="%s" '
            'stroke-width="1.5"/></svg>'
            % (width, height, width, height, points, color))


def _hist_bars(hist, width=220, height=56):
    """Log-bucket histogram bars (bucket order is ascending value)."""
    buckets = hist.get("buckets") or {}
    if not buckets:
        return '<span class="empty">empty</span>'
    ordered = sorted(buckets.items(),
                     key=lambda kv: (kv[0] != "zero", int(kv[0])
                                     if kv[0] != "zero" else 0))
    peak = max(count for _, count in ordered)
    bar_w = max(2.0, (width - 2) / len(ordered) - 1)
    parts = ['<svg width="%d" height="%d" viewBox="0 0 %d %d">'
             % (width, height, width, height)]
    for i, (_, count) in enumerate(ordered):
        bar_h = (height - 14) * count / peak
        parts.append('<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f"'
                     ' fill="#1f77b4"/>'
                     % (1 + i * (bar_w + 1), height - 12 - bar_h,
                        bar_w, bar_h))
    parts.append('<text x="1" y="%d" font-size="9" fill="#555">'
                 'p50=%.3g p95=%.3g p99=%.3g n=%d</text>'
                 % (height - 2, hist.get("p50", 0), hist.get("p95", 0),
                    hist.get("p99", 0), hist.get("count", 0)))
    parts.append("</svg>")
    return "".join(parts)


# ----------------------------------------------------------------------
# HTML rendering.
# ----------------------------------------------------------------------
_STYLE = """
body { font-family: sans-serif; margin: 24px; color: #222; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; }
table { border-collapse: collapse; margin: 8px 0; }
th, td { border: 1px solid #ccc; padding: 4px 8px; font-size: 12px;
         text-align: left; vertical-align: top; }
th { background: #f0f0f0; }
.sev { font-weight: bold; }
.meta { color: #666; font-size: 12px; }
.empty { color: #999; font-size: 11px; }
code { background: #f6f6f6; padding: 1px 3px; }
"""


def render_dashboard_html(doc):
    """Render an advisor document as a standalone HTML page."""
    parts = ["<!DOCTYPE html><html><head><meta charset='utf-8'>",
             "<title>DualTable telemetry dashboard</title>",
             "<style>%s</style></head><body>" % _STYLE,
             "<h1>DualTable telemetry dashboard</h1>",
             "<p class='meta'>schema %s · workload %s · simulated "
             "clock %.3f s</p>"
             % (_esc(doc.get("schema")),
                _esc(doc.get("workload") or "-"),
                doc.get("sim_clock_s", 0.0))]

    parts.append("<h2>Findings (%d)</h2>" % len(doc["findings"]))
    if doc["findings"]:
        parts.append("<table><tr><th>severity</th><th>code</th>"
                     "<th>subject</th><th>summary</th>"
                     "<th>remediation</th></tr>")
        for finding in doc["findings"]:
            color = _SEVERITY_COLORS.get(finding["severity"], "#222")
            remediation = "<br>".join(
                "<code>%s</code>" % _esc(sql)
                for sql in finding["remediation"]) or "&mdash;"
            parts.append(
                "<tr><td class='sev' style='color:%s'>%s</td>"
                "<td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>"
                % (color, _esc(finding["severity"]),
                   _esc(finding["code"]), _esc(finding["subject"]),
                   _esc(finding["summary"]), remediation))
        parts.append("</table>")
    else:
        parts.append("<p class='empty'>no findings — the workload and "
                     "the configuration agree</p>")

    parts.append("<h2>Tables (%d)</h2>" % len(doc["tables"]))
    series = doc.get("series") or {}
    for table in doc["tables"]:
        name = table["table"]
        parts.append("<h3>%s</h3>" % _esc(name))
        parts.append(
            "<p class='meta'>mode=%s read_factor=%s autocompact=%s · "
            "%s scans / %s DMLs (%.2f per DML EWMA) · attached "
            "%s bytes · %s compactions</p>"
            % (_esc(table["mode"]), table["read_factor"],
               "on" if table["autocompact_on"] else "off",
               table["scans"], table["dmls"], table["reads_per_dml"],
               table["attached_bytes"], table.get("compacts", 0)))
        table_series = series.get(name) or {}
        cells = []
        for metric in sorted(table_series):
            cells.append("<td>%s<br>%s</td>"
                         % (_esc(metric),
                            _sparkline(table_series[metric])))
        cells.append("<td>scan bytes<br>%s</td>"
                     % _hist_bars(table["scan_bytes_hist"]))
        cells.append("<td>DML seconds<br>%s</td>"
                     % _hist_bars(table["dml_seconds_hist"]))
        parts.append("<table><tr>%s</tr></table>" % "".join(cells))

    latency = doc["histograms"].get("statement.seconds")
    if latency:
        parts.append("<h2>Statement latency (simulated)</h2>")
        parts.append("<table><tr><td>statement.seconds<br>%s</td>"
                     "</tr></table>" % _hist_bars(latency))

    if doc.get("server") is not None:
        parts.append("<h2>Server admission</h2>")
        parts.append("<table><tr><th>stat</th><th>value</th></tr>")
        for stat, value in doc["server"]:
            parts.append("<tr><td>%s</td><td>%s</td></tr>"
                         % (_esc(stat), _esc(value)))
        parts.append("</table>")

    parts.append("</body></html>")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# File output.
# ----------------------------------------------------------------------
def write_dashboard(directory, doc, html_name="dashboard.html",
                    json_name="advisor.json"):
    """Write the HTML + JSON pair; returns ``(html_path, json_path)``."""
    os.makedirs(directory, exist_ok=True)
    html_path = os.path.join(directory, html_name)
    json_path = os.path.join(directory, json_name)
    with open(html_path, "w") as handle:
        handle.write(render_dashboard_html(doc))
    with open(json_path, "w") as handle:
        handle.write(to_json(doc))
    return html_path, json_path
