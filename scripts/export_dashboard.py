#!/usr/bin/env python
"""Run the canned advisor workloads and export the telemetry dashboard.

For each workload in :data:`repro.advisor.workloads.WORKLOAD_NAMES`
this writes ``<out>/<name>.advisor.json`` + ``<out>/<name>.dashboard.html``,
plus the canonical ``<out>/advisor.json`` / ``<out>/dashboard.html`` pair
(from the ``mixed`` HTAP workload, the richest document: server stats,
tenant findings, statement-latency histograms).  The ``mixed`` run is
traced and also writes ``<out>/mixed.trace.json`` so CI can validate the
server statement spans::

    PYTHONPATH=src python scripts/export_dashboard.py out/dashboard
    PYTHONPATH=src python scripts/validate_trace.py --server-spans \
        --require statement,job,task,substrate,server \
        out/dashboard/mixed.trace.json

``--check`` is the CI smoke mode: every workload must (a) produce
exactly its expected finding set, (b) schema-validate, and (c) serialize
byte-identically across a rerun and ``workers=1`` vs ``4``.  Exits
nonzero on any violation.
"""

import argparse
import sys

from repro.advisor import WorkloadAdvisor
from repro.advisor.workloads import (EXPECTED_FINDINGS, RUNNERS,
                                     WORKLOAD_NAMES, build_session)
from repro.obs import export
from repro.obs.dashboard import (advisor_document, to_json,
                                 validate_advisor_document,
                                 write_dashboard)


def run_and_document(name, seed=0, workers=1, trace=False):
    """Run one canned workload; returns ``(doc, outcome-dict)``."""
    session = build_session(workers=workers)
    if trace:
        session.cluster.tracer.enable()
    outcome = RUNNERS[name](session, seed=seed)
    findings = WorkloadAdvisor(session).analyze()
    doc = advisor_document(session, findings=findings,
                           series=outcome["series"], workload=name)
    return doc, outcome


def check_workload(name, seed):
    """The --check battery for one workload; returns error strings."""
    errors = []
    doc, _ = run_and_document(name, seed=seed)
    baseline = to_json(doc)
    for problem in validate_advisor_document(doc):
        errors.append("%s: schema: %s" % (name, problem))
    got = sorted((f["code"], f["subject"]) for f in doc["findings"])
    want = sorted(EXPECTED_FINDINGS[name])
    if got != want:
        errors.append("%s: findings %s != expected %s"
                      % (name, got, want))
    variants = [("rerun", dict()),
                ("workers=4", dict(workers=4))]
    for label, kwargs in variants:
        variant_doc, _ = run_and_document(name, seed=seed, **kwargs)
        if to_json(variant_doc) != baseline:
            errors.append("%s: advisor.json differs under %s "
                          "(determinism contract broken)" % (name, label))
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Export the advisor/telemetry dashboard artifacts.")
    parser.add_argument("out", nargs="?", default="out/dashboard",
                        help="output directory (default: out/dashboard)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check", action="store_true",
                        help="CI smoke: assert expected findings, schema "
                             "validity and byte-identical artifacts "
                             "across reruns and worker counts")
    args = parser.parse_args(argv)
    failures = []
    for name in WORKLOAD_NAMES:
        trace = name == "mixed"
        doc, outcome = run_and_document(name, seed=args.seed, trace=trace)
        html, json_path = write_dashboard(
            args.out, doc, html_name="%s.dashboard.html" % name,
            json_name="%s.advisor.json" % name)
        print("%s: %d finding(s) -> %s, %s"
              % (name, len(doc["findings"]), html, json_path))
        if trace:
            session = outcome["session"]
            trace_doc = export.tracer_trace(
                session.cluster.tracer,
                metrics=session.cluster.metrics.snapshot(), label=name)
            trace_path = export.write_trace(
                "%s/%s.trace.json" % (args.out, name), trace_doc)
            print("%s: trace -> %s" % (name, trace_path))
            # The canonical pair CI uploads as its artifact.
            write_dashboard(args.out, doc)
            print("%s: canonical -> %s/dashboard.html, %s/advisor.json"
                  % (name, args.out, args.out))
        if args.check:
            failures.extend(check_workload(name, args.seed))
    if failures:
        print("FAILED %d check(s):" % len(failures))
        for failure in failures:
            print("  - %s" % failure)
        return 1
    if args.check:
        print("all advisor checks passed (%d workload(s))"
              % len(WORKLOAD_NAMES))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
