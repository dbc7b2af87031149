"""Compare two reports written by ``run.py --out``:

    python3 perfbench/compare.py A.json B.json

One row per (workload, metric) with both values, the ratio B/A and a
verdict from the metric's direction and bound:

* ``ok``         B is within the bound of A;
* ``worse``      B is worse than A by more than the bound;
* ``better``     B is better than A by more than the bound;
* ``unresolved`` B is within the bound but either side's own
  run-to-run spread (IQR / median over its ``--repeat`` runs) is wider
  than the bound, so "unchanged" cannot be told from "changed".

Timed metrics compare medians over each report's runs; exact metrics
(simulated seconds, ledger bytes, fail_ratio) must agree to 1e-9 and,
for one seed, the row digests must be identical.  Exits non-zero on any
``worse``.
"""

import json
import os
import sys

if not __package__:
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench import metrics as M  # noqa: E402


def judge(metric, a_runs, b_runs):
    """``(a, b, ratio, verdict)`` for one metric's runs on both sides."""
    bound = M.EXACT_BOUND if metric.kind == "x" else metric.bound
    (a, a_q1, a_q3), (b, b_q1, b_q3) = M.spread(a_runs), M.spread(b_runs)
    ratio = b / a if a else float("inf")
    worse_by = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
    if worse_by > bound:
        verdict = "worse"
    elif worse_by < -bound:
        verdict = "better"
    elif max((a_q3 - a_q1) / a if a else 0.0,
             (b_q3 - b_q1) / b if b else 0.0) > bound:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return a, b, ratio, verdict


def compare(report_a, report_b):
    """Rows ``(workload, metric, a, b, ratio, verdict)``."""
    rows = []
    same_inputs = all(report_a[key] == report_b[key]
                      for key in ("seed", "seconds", "smoke"))
    for workload in sorted(set(report_a["workloads"])
                           & set(report_b["workloads"])):
        a, b = report_a["workloads"][workload], report_b["workloads"][workload]
        for metric in M.END_TO_END + M.HEADLINE:
            a_runs = [run[metric.name] for run in a["runs"]]
            b_runs = [run[metric.name] for run in b["runs"]]
            if metric.bound is None or not (any(a_runs) or any(b_runs)):
                continue                # a diagnostic, or not reported here
            rows.append((workload, metric.name)
                        + judge(metric, a_runs, b_runs))
        if same_inputs:
            same = a["results_digest"] == b["results_digest"]
            rows.append((workload, "results_digest", a["results_digest"][:12],
                         b["results_digest"][:12], 1.0,
                         "ok" if same else "worse"))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    reports = []
    for path in argv:
        with open(path) as handle:
            reports.append(json.load(handle))
    rows = compare(*reports)
    print("%-13s %-24s %14s %14s %8s  %s"
          % ("workload", "metric", "A", "B", "B/A", "verdict"))
    for workload, name, a, b, ratio, verdict in rows:
        fmt = "%14s %14s" if isinstance(a, str) else "%14.6g %14.6g"
        print(("%-13s %-24s " + fmt + " %8.4f  %s")
              % (workload, name, a, b, ratio, verdict))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
