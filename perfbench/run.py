"""Run the benchmark: ``python3 perfbench/run.py --workload NAME ...``
(or ``python -m perfbench.run``; ``src/`` is put on the path here).

Each pass over a workload runs in its own fresh subprocess, so peak
RSS, caches and collector state never leak from one to the next.  The
parent prints every metric by name with its unit and, as the last line
of standard output, the driver's JSON object.  End-to-end metrics are
always taken with tracing off; ``--trace 1`` adds a second, traced pass
whose only outputs are the per-layer numbers and
``trace.overhead_ratio``, and checks that tracing changed no result.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not __package__:
    # Run as a script: sys.path[0] is perfbench/, whose trace.py would
    # shadow the standard library's.  Import as the package instead.
    sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

from perfbench import metrics as M  # noqa: E402
from perfbench.workloads import WORKLOADS, Size  # noqa: E402

DEFAULT_SEED = 1


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One pass, in this process (the child side).
# ----------------------------------------------------------------------
def run_pass(args, run_seconds):
    import repro.bench.experiments  # noqa: F401  (set-up pays the imports)
    import repro.server  # noqa: F401
    from perfbench import harness
    import_seconds = time.perf_counter() - _START
    import_seconds *= harness.PROBE_REF / harness.probe()
    workload = WORKLOADS[args.workload]
    plan = workload.plan(args.seed, Size(args.seconds, run_seconds,
                                         args.smoke))
    tracing = recorder = None
    if args.trace:
        from perfbench.trace import Tracing
        tracing = Tracing()
        recorder = tracing.install()
    seen, setup_seconds = harness.run_repetitions(
        workload, plan, 1 if args.trace else harness.REPETITIONS, recorder)
    doc = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "traced": bool(args.trace),
        "attempted": seen["attempted"],
        "failures": seen["failures"],
        "results_digest": seen["results_digest"],
        "statements_digest": seen["statements_digest"],
        "metrics": harness.summarize(seen, setup_seconds, import_seconds),
    }
    if recorder is not None:
        tracing.uninstall()
        doc["layers"] = {name: {"self_s": self_s, "calls": calls}
                         for name, (self_s, calls)
                         in recorder.layer_totals().items()}
        if args.trace_out:
            recorder.write(args.trace_out)
    print(json.dumps(doc))
    return 0


# ----------------------------------------------------------------------
# Orchestration (the parent side).
# ----------------------------------------------------------------------
def spawn_pass(args, workload, traced):
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(traced))]
    if args.smoke:
        command.append("--smoke")
    if traced and args.trace_out:
        command += ["--trace-out", args.trace_out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit("perfbench: %s pass of %s exited with %d"
                         % ("traced" if traced else "untraced", workload,
                            done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def exact_differences(one, other):
    """Names of the exact metrics two passes of one seed disagree on."""
    return [m.name for m in M.END_TO_END + M.HEADLINE if m.kind == "x"
            and one["metrics"][m.name] != other["metrics"][m.name]]


def traced_pass(args, workload, untraced):
    """The traced pass: per-layer self time, and proof it changed nothing."""
    doc = spawn_pass(args, workload, traced=True)
    values, problems = {}, list(doc["failures"])
    metrics = doc["metrics"]
    # Spans are raw clock readings; bring them to machine speed 1.0 with
    # the factor the pass's statements were scaled by overall.
    to_reference = metrics["wall_s"] / metrics["raw_wall_s"]
    for layer, totals in doc["layers"].items():
        values["%s.self_s" % layer] = totals["self_s"] * to_reference
        values["%s.calls" % layer] = totals["calls"]
    values["trace.overhead_ratio"] = (
        metrics["wall_s"] / untraced["metrics"]["wall_s"] - 1.0)
    for key in ("results_digest", "statements_digest"):
        if doc[key] != untraced[key]:
            problems.append("traced %s differs from the untraced run's" % key)
    problems += ["tracing moved exact metric %s" % name
                 for name in exact_differences(doc, untraced)]
    covered = sum(t["self_s"] for t in doc["layers"].values())
    if abs(covered - metrics["raw_wall_s"]) > 0.02 * metrics["raw_wall_s"]:
        problems.append("layer self times sum to %.3f s, the traced "
                        "statements took %.3f s"
                        % (covered, metrics["raw_wall_s"]))
    if doc["layers"]["untraced"]["self_s"] > 0.15 * covered:
        problems.append("more than 15 % of the statements' time is in no "
                        "layer's span")
    return values, problems


def run_workload(args, workload):
    """All passes of one workload -> its report entry."""
    runs = [spawn_pass(args, workload, traced=False)
            for _ in range(args.repeat)]
    first = runs[0]
    problems = [f for run in runs for f in run["failures"]]
    for run in runs[1:]:
        if (run["results_digest"], run["statements_digest"]) != (
                first["results_digest"], first["statements_digest"]):
            problems.append("a repeated run's digests differ")
        problems += ["exact metric %s differs between repeated runs" % name
                     for name in exact_differences(run, first)]
    values = dict(first["metrics"])
    if args.trace:
        layer_values, layer_problems = traced_pass(args, workload, first)
        values.update(layer_values)
        problems += layer_problems
    return {
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(len(run["failures"]) for run in runs),
        "problems": problems,
        "results_digest": first["results_digest"],
        "statements_digest": first["statements_digest"],
        "values": values,
        "runs": [run["metrics"] for run in runs],
    }


def print_report(workload, entry, traced):
    print("== %s  (results %s, statements %s)"
          % (workload, entry["results_digest"][:16],
             entry["statements_digest"][:16]))
    shown = M.END_TO_END + M.HEADLINE + M.COUNTERS + M.STMT_STATS
    if traced:
        shown = shown + M.TRACED
    repeated = len(entry["runs"]) > 1
    for metric in shown:
        value = entry["values"].get(metric.name)
        if not value:
            continue                    # not reported on this workload
        line = "%-36s %16.6g %-8s" % (metric.name, value, metric.unit)
        if repeated and metric.name in entry["runs"][0]:
            mid, q1, q3 = M.spread([run[metric.name]
                                    for run in entry["runs"]])
            line += "  median %.6g  q1 %.6g  q3 %.6g  iqr/median %.4f" % (
                mid, q1, q3, (q3 - q1) / mid if mid else 0.0)
        print(line)
    for problem in entry["problems"]:
        print("  FAILED: %s" % problem)


def contract_line(entry, traced):
    """The driver's JSON object for one workload."""
    wanted = M.PER_LAYER if traced else M.END_TO_END
    return json.dumps({
        "correct": not entry["problems"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {m.name: {"value": entry["values"].get(m.name, 0),
                             "unit": m.unit} for m in wanted}})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="size the statement lists for about this long "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the rows, a third of the statements")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced passes per workload; prints median "
                             "and quartiles per metric")
    parser.add_argument("--out", help="write the full report here as JSON")
    parser.add_argument("--trace-out",
                        help="write the traced pass's Chrome trace here")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit("perfbench: no src/repro beside %s; nothing to "
                         "measure" % os.path.dirname(__file__))
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.child:
        return run_pass(args, contract["run_seconds"])
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    report = {"schema": "perfbench/1", "seed": args.seed,
              "seconds": args.seconds, "smoke": args.smoke,
              "traced": bool(args.trace), "python": platform.python_version(),
              "nproc": os.cpu_count(), "workloads": {}}
    lines = []
    for name in names:
        entry = run_workload(args, name)
        report["workloads"][name] = entry
        print_report(name, entry, args.trace)
        lines.append(contract_line(entry, args.trace))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    for line in lines:
        print(line)
    return 1 if any(e["problems"] for e in report["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
