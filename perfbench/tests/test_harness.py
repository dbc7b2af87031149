"""The harness itself: span arithmetic, seeded plans, layer coverage,
and that what run.py prints is what BENCHMARK.json promises."""

import json
import os
import re
import subprocess
import sys

import pytest

from perfbench import compare, harness, trace
from perfbench import metrics as M
from perfbench.workloads import WORKLOADS, Size, statements_digest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SMOKE = Size(15, 15, smoke=True)


# ----------------------------------------------------------------------
# Span self-time arithmetic, on a clock the test advances by hand.
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, ns):
        self.now += ns


@pytest.fixture
def clocked(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(trace, "perf_counter_ns", clock)
    return clock, trace.Recorder(layers=["a", "b"], keep_ns=0)


def totals(recorder):
    return {name: (round(self_s * 1e9), calls)
            for name, (self_s, calls) in recorder.layer_totals().items()}


def test_nested_spans_subtract_child_time(clocked):
    clock, rec = clocked

    def inner():
        clock.tick(7)

    inner = rec.wrap(inner, "b")

    def outer():
        clock.tick(5)
        inner()
        clock.tick(3)
        inner()

    outer = rec.wrap(outer, "a")
    rec.begin_statement(1, "stmt")
    clock.tick(2)
    outer()
    clock.tick(1)
    rec.end_statement()
    assert totals(rec) == {"a": (8, 1), "b": (14, 2), "untraced": (3, 1)}
    assert sum(ns for ns, _ in totals(rec).values()) == clock.now
    by_name = {span[4]: span for span in rec.spans}
    root, child = by_name["stmt"], by_name[outer.__qualname__]
    assert root[1] is None and child[1] == root[0] and child[2] == 1


def test_same_layer_reentry_opens_no_span(clocked):
    clock, rec = clocked
    helper = rec.wrap(lambda: clock.tick(4), "a")

    def entry():
        clock.tick(1)
        helper()

    entry = rec.wrap(entry, "a")
    rec.begin_statement(1, "stmt")
    entry()
    rec.end_statement()
    assert totals(rec)["a"] == (5, 1)


def test_generator_span_is_its_resident_time(clocked):
    clock, rec = clocked
    leaf = rec.wrap(lambda: clock.tick(1), "a")

    def produce():
        for _ in range(3):
            clock.tick(2)
            leaf()             # a child span inside one resume
            yield

    produce = rec.wrap(produce, "b")

    def consume():
        for _ in produce():
            clock.tick(10)     # the consumer's own work between resumes

    consume = rec.wrap(consume, "a")
    rec.begin_statement(1, "stmt")
    consume()
    rec.end_statement()
    # b: 3 resumes x 2 ns, plus nothing for the exhausted fourth;
    # a: the consumer's 30 ns plus the three 1 ns leaves.
    assert totals(rec) == {"a": (33, 4), "b": (6, 1), "untraced": (0, 1)}
    span = next(s for s in rec.spans if s[4] == produce.__qualname__)
    assert span[7] == 9        # resident: 3 x (2 own + 1 child)
    assert span[6] == 39       # drawn from its first to its last resume


def test_span_closes_when_the_call_raises(clocked):
    clock, rec = clocked

    def boom():
        clock.tick(3)
        raise ValueError("x")

    boom = rec.wrap(boom, "a")
    rec.begin_statement(1, "stmt")
    with pytest.raises(ValueError):
        boom()
    rec.end_statement()
    assert totals(rec)["a"] == (3, 1) and len(rec.stack) == 1


def test_work_outside_a_statement_is_not_reported(clocked):
    clock, rec = clocked
    inner = rec.wrap(lambda: clock.tick(9), "a")
    rec.wrap(inner, "b")()
    assert totals(rec) == {"a": (0, 0), "b": (0, 0), "untraced": (0, 0)}
    assert rec.spans == []


# ----------------------------------------------------------------------
# Plans come from the seed alone.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_statements(name):
    workload = WORKLOADS[name]
    one, again = workload.plan(7, SMOKE), workload.plan(7, SMOKE)
    assert one.statements == again.statements
    assert one.tables == again.tables and one.setup_sql == again.setup_sql
    assert statements_digest(one.statements) == statements_digest(
        again.statements)


@pytest.mark.parametrize("name", ["update_storm", "dirty_scan", "htap_serve"])
def test_other_seed_other_statements(name):
    workload = WORKLOADS[name]
    assert statements_digest(workload.plan(7, SMOKE).statements) \
        != statements_digest(workload.plan(8, SMOKE).statements)


def test_paper_figs_seed_reaches_the_generators():
    workload = WORKLOADS["paper_figs"]
    sims = []
    for seed in (1, 2):
        context = workload.setup(workload.plan(seed, SMOKE))
        try:
            sims.append(context.execute("fig11").sim_seconds)
        finally:
            context.close()
    assert sims[0] != sims[1]


def test_mix_counts_are_exact():
    from perfbench.workloads import HtapServe, mix
    kinds = mix(150, HtapServe.MIX)
    assert len(kinds) == 150
    assert kinds.count("lookup") == 90 and kinds.count("upd_point") == 33


# ----------------------------------------------------------------------
# Every layer is reached on the smoke workload meant to exercise it.
# ----------------------------------------------------------------------
EXERCISED_BY = {
    "update_storm": ["hive.parser", "hive.session", "hive.expressions",
                     "hive.types", "mapreduce", "orc.reader", "orc.writer",
                     "core.union_read", "core.attached", "core.handler.dml",
                     "core.handler.compact", "core.editlog", "hbase", "hdfs",
                     "cluster.ledger", "obs.registry", "parallel.cache"],
    "dirty_scan": ["hive.executor", "hive.vexpr"],
    "htap_serve": ["server", "shard", "core.lookup"],
    "paper_figs": ["workloads"],
}


def test_every_layer_has_a_workload():
    assert sorted(l for ls in EXERCISED_BY.values() for l in ls) \
        == trace.LAYERS


@pytest.fixture(scope="module")
def traced_smoke():
    """One traced smoke repetition of each workload, in this process."""
    out = {}
    for name, workload in WORKLOADS.items():
        tracing = trace.Tracing()
        recorder = tracing.install()
        try:
            import repro.hive.parser
            import repro.hive.session
            patched = (repro.hive.session.parse is repro.hive.parser.parse
                       and hasattr(repro.hive.session.parse, "__wrapped__"))
            seen, _ = harness.run_repetitions(
                workload, workload.plan(3, SMOKE), 1, recorder)
        finally:
            tracing.uninstall()
        out[name] = (recorder, seen, patched)
    return out


@pytest.mark.parametrize("name", sorted(EXERCISED_BY))
def test_layers_emit_spans(traced_smoke, name):
    recorder, seen, _ = traced_smoke[name]
    assert seen["failures"] == []
    layer_totals = recorder.layer_totals()
    silent = [layer for layer in EXERCISED_BY[name]
              if layer_totals[layer][1] == 0]
    assert silent == []


def test_names_bound_by_from_import_are_patched_and_restored(traced_smoke):
    import repro.hive.parser
    import repro.hive.session
    assert traced_smoke["update_storm"][2]
    assert repro.hive.session.parse is repro.hive.parser.parse
    assert not hasattr(repro.hive.parser.parse, "__wrapped__")


@pytest.mark.parametrize("name", sorted(EXERCISED_BY))
def test_self_times_add_up_to_the_traced_wall(traced_smoke, name):
    recorder, seen, _ = traced_smoke[name]
    covered = sum(self_s for self_s, _ in recorder.layer_totals().values())
    wall = sum(sample["wall"] for sample in seen["samples"])
    assert covered == pytest.approx(wall, rel=0.02)


def test_trace_document_is_valid_chrome_trace(traced_smoke):
    from repro.obs.export import validate_trace
    recorder = traced_smoke["update_storm"][0]
    doc = json.loads(json.dumps(recorder.trace_document()))
    assert validate_trace(doc) == []
    cats = {event["cat"] for event in doc["traceEvents"]}
    assert {"untraced", "hive.session", "mapreduce"} <= cats


# ----------------------------------------------------------------------
# BENCHMARK.json, metrics.py and run.py agree.
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_contract_schema(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in contract["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in contract["per_layer"])
    names = [m["name"] for m in contract["end_to_end"]
             + contract["per_layer"] + contract["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in contract["end_to_end"] + contract["per_layer"])
    assert len(contract["per_layer"]) <= 128
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() \
        <= next(m for m in contract["end_to_end"]
                if m["name"] == "setup_s").items()


def test_contract_lists_the_metric_tables(contract):
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]] \
        == [(m.name, m.unit, m.better, m.bound) for m in M.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in contract["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in M.PER_LAYER]


@pytest.mark.parametrize("traced, table", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_run_prints_the_contract_names(contract, traced, table):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "htap_serve", "--seed", "5", "--seconds", "15",
         "--trace", str(traced), "--smoke"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stdout
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in contract[table]]
    units = {m["name"]: m["unit"] for m in contract[table]}
    assert all(entry["unit"] == units[name]
               and isinstance(entry["value"], (int, float))
               for name, entry in line["metrics"].items())
    if table == "end_to_end":
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "update_storm",
         "--seed", "1", "--seconds", "15", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


# ----------------------------------------------------------------------
# compare.py verdicts.
# ----------------------------------------------------------------------
def test_compare_verdicts():
    wall = M.BY_NAME["wall_s"]
    rate = M.BY_NAME["scan_warm_rows_per_s"]
    sim = M.BY_NAME["sim_s"]
    inside, outside = 1 + 0.9 * wall.bound, 1 + 1.1 * wall.bound
    assert compare.judge(wall, [10.0], [10.0 * inside])[-1] == "ok"
    assert compare.judge(wall, [10.0], [10.0 * outside])[-1] == "worse"
    assert compare.judge(wall, [10.0], [10.0 * (2 - outside)])[-1] == "better"
    assert compare.judge(rate, [100.0], [89.0])[-1] == "worse"
    assert compare.judge(rate, [100.0], [112.0])[-1] == "better"
    assert compare.judge(wall, [8.0, 10.0, 12.0, 14.0],
                         [10.5, 10.5, 10.5, 10.5])[-1] == "unresolved"
    assert compare.judge(sim, [5.0], [5.0])[-1] == "ok"
    assert compare.judge(sim, [5.0], [5.0001])[-1] == "worse"
