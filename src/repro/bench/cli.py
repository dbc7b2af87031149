"""``dualtable-bench``: regenerate any table/figure from the command line.

Usage::

    dualtable-bench fig5 --scale small
    dualtable-bench all --scale tiny --csv out/
    dualtable-bench list
"""

import argparse
import csv
import json
import os
import sys
import time

from repro.bench.experiments import EXPERIMENTS
from repro.bench.report import render
from repro.bench.runners import (SCALES, profiled_experiment,
                                 set_workers)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dualtable-bench",
        description="Regenerate the paper's tables and figures on the "
                    "simulated cluster.")
    parser.add_argument("experiment",
                        help="experiment id (e.g. fig5, table4, all, list)")
    parser.add_argument("--scale", default="small", choices=sorted(SCALES),
                        help="data scale (default: small)")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write each experiment's rows to "
                             "DIR/<experiment>.csv (plot-ready)")
    parser.add_argument("--svg", metavar="DIR", default=None,
                        help="also render each chartable experiment to "
                             "DIR/<experiment>.svg")
    parser.add_argument("--profile", metavar="DIR", default=None,
                        help="run with tracing enabled and write "
                             "DIR/<experiment>.trace.json (Chrome "
                             "trace-event format, load in about:tracing "
                             "or Perfetto) plus DIR/<experiment>"
                             ".metrics.json")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker threads for real execution (wall "
                             "clock only; simulated output is identical "
                             "for any value; default: 1). Ignored under "
                             "--profile, which requires serial tracing.")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.experiment == "all":
        names = list(EXPERIMENTS)
    else:
        if args.experiment not in EXPERIMENTS:
            print("unknown experiment %r; try: %s"
                  % (args.experiment, ", ".join(EXPERIMENTS)),
                  file=sys.stderr)
            return 2
        names = [args.experiment]
    workers = max(1, args.workers)
    set_workers(1 if args.profile else workers)
    for name in names:
        started = time.time()
        if args.profile:
            result, trace_doc, metrics = profiled_experiment(
                EXPERIMENTS[name], scale=args.scale)
        else:
            result = EXPERIMENTS[name](scale=args.scale)
        print(render(result))
        print("(regenerated in %.1fs wall time at scale=%s, workers=%d)\n"
              % (time.time() - started, args.scale,
                 1 if args.profile else workers))
        if args.csv:
            write_csv(result, args.csv)
        if args.svg:
            write_svg(result, args.svg)
        if args.profile:
            write_profile(result, trace_doc, metrics, args.profile)
    return 0


def write_profile(result, trace_doc, metrics, directory):
    """Write one experiment's trace + metrics snapshot + dashboard."""
    from repro.obs import export
    from repro.obs.dashboard import metrics_document, write_dashboard

    os.makedirs(directory, exist_ok=True)
    trace_path = os.path.join(directory,
                              "%s.trace.json" % result.experiment)
    export.write_trace(trace_path, trace_doc)
    nspans = sum(1 for ev in trace_doc["traceEvents"]
                 if ev.get("ph") == "X")
    print("wrote %s (%d spans)" % (trace_path, nspans))
    snapshot = metrics.snapshot()
    metrics_path = os.path.join(directory,
                                "%s.metrics.json" % result.experiment)
    with open(metrics_path, "w") as handle:
        json.dump(snapshot, handle, indent=1, sort_keys=True,
                  default=str)
        handle.write("\n")
    print("wrote %s" % metrics_path)
    doc = metrics_document(snapshot, workload=result.experiment)
    html_path, _ = write_dashboard(
        directory, doc,
        html_name="%s.dashboard.html" % result.experiment,
        json_name="%s.advisor.json" % result.experiment)
    print("wrote %s" % html_path)
    return trace_path


def write_svg(result, directory):
    """Render one experiment as DIR/<experiment>.svg (when chartable)."""
    from repro.bench.svg import render_figure

    svg = render_figure(result)
    if svg is None:
        print("(%s has no chartable form; skipped svg)" % result.experiment)
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s.svg" % result.experiment)
    with open(path, "w") as handle:
        handle.write(svg)
    print("wrote %s" % path)
    return path


def write_csv(result, directory):
    """Write one experiment's rows as DIR/<experiment>.csv."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s.csv" % result.experiment)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(result.columns)
        writer.writerows(result.rows)
    print("wrote %s" % path)
    return path


if __name__ == "__main__":
    raise SystemExit(main())
