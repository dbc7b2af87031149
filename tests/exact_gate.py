"""The exact-metric gate: ``python -m tests.exact_gate [--record]``.

Runs ``perfbench/run.py --workload all --smoke`` (about 10 s on a 2-vCPU
box) and compares, per workload, what a run of one seed repeats bit for
bit with ``tests/golden/perfbench_smoke.json``:

* every exact (``kind "x"``) end-to-end and headline metric;
* the ``hdfs.*`` and ``hbase.*`` byte and op counters;
* the results and statements digests.

A wall-clock change must leave all of them alone, so any difference
fails the gate (exit 1) and names the metric.  A deliberate change to
the simulated model or to what is charged moves them: re-record with
``--record`` and say so in the change.  Ledger bytes include
zlib-compressed ORC streams, so a zlib that compresses differently
moves them too.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PATH = ROOT / "tests" / "golden" / "perfbench_smoke.json"
DIGESTS = ("results_digest", "statements_digest")


def gated_metrics():
    """Names of the metrics the gate holds exactly."""
    sys.path.insert(0, str(ROOT))
    from perfbench import metrics as M
    return ([m.name for m in M.END_TO_END + M.HEADLINE if m.kind == "x"]
            + [m.name for m in M.COUNTERS
               if m.name.startswith(("hdfs.", "hbase."))])


def run_smoke():
    """``{workload: {digests..., "metrics": {name: value}}}`` of one
    smoke run; exits if perfbench itself reports a problem."""
    names = gated_metrics()
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "smoke.json")
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", "all", "--smoke", "--out", out],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stdout.write(done.stdout)
            raise SystemExit("exact gate: perfbench exited with %d"
                             % done.returncode)
        with open(out) as handle:
            report = json.load(handle)
    return {workload: dict({key: entry[key] for key in DIGESTS},
                           metrics={name: entry["values"].get(name, 0)
                                    for name in names})
            for workload, entry in sorted(report["workloads"].items())}


def differences(recorded, seen):
    """One line per gated value that ``seen`` does not repeat."""
    lines = []
    for workload in sorted(set(recorded) | set(seen)):
        want, got = recorded.get(workload), seen.get(workload)
        if want is None or got is None:
            lines.append("%s: %s" % (workload, "not recorded" if want is None
                                     else "not run"))
            continue
        for key in DIGESTS:
            if want[key] != got[key]:
                lines.append("%s: %s %s -> %s"
                             % (workload, key, want[key], got[key]))
        for name in sorted(set(want["metrics"]) | set(got["metrics"])):
            before = want["metrics"].get(name)
            after = got["metrics"].get(name)
            if before != after:
                lines.append("%s: %s %r -> %r"
                             % (workload, name, before, after))
    return lines


def main(argv):
    seen = run_smoke()
    if "--record" in argv:
        PATH.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
        print("exact gate: recorded %s" % PATH.relative_to(ROOT))
        return 0
    lines = differences(json.loads(PATH.read_text()), seen)
    for line in lines:
        print("exact gate: %s" % line)
    if lines:
        print("exact gate: FAILED (%d values moved; re-record with "
              "`python -m tests.exact_gate --record` only for a deliberate "
              "model change)" % len(lines))
        return 1
    print("exact gate: ok (%d workloads)" % len(seen))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
