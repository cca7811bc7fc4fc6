"""Tests of the benchmark itself: metric names and units, the correctness
gate, seeded inputs, the brute-force oracle and the span tracer.

Run with ``python -m pytest perfbench``; each test uses a tiny pool so the
file takes seconds.
"""

import json
import os
import shutil
import subprocess
import sys
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import pytest

import run

workloads = run.import_workloads()

from permutoid_lab import core, develop  # noqa: E402  (needs the path set above)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    """A few cheap instances of each workload, as one pass."""
    w = workloads.build(name, 1)
    if name == "probe":
        keep = [i for i in w.instances if i.label in ("z2", "z3", "trivial1", "f1-rho1", "f2-rho1")][:5]
    elif name == "balls":
        keep = [i for i in w.instances if i.label in ("s4-rho1", "s4-rho3", "f2-rho2")][:3]
    elif name == "search":
        keep = w.instances[:4]
    else:
        keep = [i for i in w.instances if i.ground_size <= 3][:4]
        keep.append(next(i for i in w.instances if i.regular and i.ground_size <= 3))
    return workloads.Workload(name, 1, keep, chunk=len(keep))


@pytest.fixture
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "CLI_SAMPLES", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return Namespace(seconds=0.01)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(name, quick):
    w = tiny(name)
    metrics, record, correct = run.end_to_end(quick, w, 0.1, workloads.groups)
    assert correct, record
    assert record["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: run.END_TO_END[k] for k in metrics} == expected
    assert all(v > 0 for v in metrics.values()), metrics

    metrics, record, correct = run.traced(quick, w)
    assert correct, record
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: run.LAYER_UNITS[k] for k in metrics} == expected
    assert record["span_problems"] == []
    assert (run.OUT_DIR / f"spans-{name}-seed1.jsonl").exists()


def test_benchmark_file_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def _found_search_instance():
    for inst in workloads.build("search", 3).instances:
        verdict = inst.run()
        if isinstance(verdict, develop.Found):
            return inst, verdict
    raise AssertionError("no Found instance in the pool")


def test_tampered_development_counts_as_failed():
    inst, verdict = _found_search_instance()
    assert not inst.check(verdict, None).failed
    maps = list(verdict.development.maps)
    mover = next(e for e in range(len(maps)) if e != inst.source.identity_index)
    perm = list(maps[mover])
    x = inst.source.elements[mover].pairs[0][0]
    y = (x + 1) % len(perm)
    perm[x], perm[y] = perm[y], perm[x]  # the map no longer extends its element at x
    maps[mover] = tuple(perm)
    bad = replace(verdict, development=develop.Development(verdict.development.ground_size, tuple(maps)))
    gate = run.Gate(first_pass=1)
    outcome = gate(0, inst, bad, None)
    assert outcome.failed and not outcome.known
    assert gate.summary()["failed"] == 1 and gate.summary()["unknown_failures"]


def test_tampered_probe_evidence_counts_as_failed():
    inst = next(i for i in workloads.build("probe", 1).instances if i.label == "z3")
    pres, report, blob = inst.run()
    assert not inst.check((pres, report, blob), None).failed
    ev = report.evidence
    swapped = replace(ev, images=tuple(tuple(reversed(p)) for p in ev.images))
    forged = replace(report, evidence=swapped)
    assert inst.check((pres, forged, blob), None).failed


def test_wrong_verdict_counts_as_failed():
    inst = next(i for i in workloads.build("probe", 1).instances if i.label == "z4")
    pres, report, blob = inst.run()
    none = replace(report, verdict="definitively-none", evidence=None)
    assert inst.check((pres, none, blob), None).failed


def test_known_defect_is_a_failure_but_not_a_surprise():
    inst = next(i for i in workloads.build("balls", 1).instances if i.label == "f3-rho2")
    outcome = inst.check(None, RecursionError("maximum recursion depth exceeded"))
    assert outcome.failed and outcome.known == "search-recursion"
    other = next(i for i in workloads.build("balls", 1).instances if i.label == "s4-rho2")
    assert not other.check(None, RecursionError("x")).known


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    first = workloads.describe(workloads.build(name, 7))
    assert first == workloads.describe(workloads.build(name, 7))
    assert first != workloads.describe(workloads.build(name, 8))


def test_presentation_variants_present_the_same_group():
    rng = workloads.random.Random(5)
    for base in workloads.PROBE_FINITE[7:]:
        text = workloads.presentation_variant(rng, base)
        group = workloads.groups.todd_coxeter(workloads.groups.parse_presentation(text), 1000)
        assert group.order == base.order, text


def test_oracle_agrees_with_the_search():
    rng = workloads.random.Random(11)
    checked = 0
    for _ in range(40):
        P = workloads.random_permutoid(rng, 3, 2)
        graphs = [el.pairs for el in P.elements]
        for m in (3, 4):
            expected = workloads.oracle_develops(3, graphs, m)
            if expected is None:
                continue
            verdict = develop.search_development(develop.DevelopmentProblem(P, m))
            found_at_m = isinstance(verdict, develop.Found) and verdict.development.ground_size == m
            smaller = any(workloads.oracle_develops(3, graphs, k) for k in range(3, m))
            if not smaller:
                assert found_at_m == expected, graphs
                checked += 1
    assert checked > 20


def test_oracle_declines_large_instances():
    P = core.validate_permutoid(7, [tuple((x, x) for x in range(7)), ((0, 1),)])
    assert workloads.oracle_develops(7, [el.pairs for el in P.elements], 11) is None


def test_tracer_restores_the_package_and_nests_spans():
    from spans import Tracer

    original = core.validate_permutoid
    prop = core.Permutoid.__dict__["witness_table"]
    tracer = Tracer()
    tracer.install()
    try:
        assert workloads.groups.validate_permutoid is not original
        with tracer.root():
            cam = workloads.groups.cameron_permutoid(workloads.groups.FreeGroup(1), 2)
            core.witness_triples(cam.permutoid)
    finally:
        tracer.uninstall()
    assert core.validate_permutoid is original and workloads.groups.validate_permutoid is original
    assert core.Permutoid.__dict__["witness_table"] is prop
    names = [s[0] for s in tracer.spans]
    assert names[:4] == ["bench.instance", "groups.cameron_permutoid", "groups.cayley_ball",
                         "core.validate_permutoid"]
    assert "core.witness_table" in names
    assert tracer.problems(roots=1) == ""
    assert all(t >= 0 for t in tracer.self_times().values())
    assert tracer.counters["groups.ball_points"] == 9


def _spans(*spans):
    from spans import Tracer

    tracer = Tracer()
    tracer.spans = [list(s) for s in spans]
    return tracer


def test_malformed_spans_are_caught():
    root, call, inner = "bench.instance", "core.validate_permutoid", "core.witness_triples"
    good = [(root, 0.0, 10.0, -1), (call, 1.0, 4.0, 0), (inner, 2.0, 3.0, 1), (call, 5.0, 9.0, 0),
            (root, 11.0, 12.0, -1)]
    assert _spans(*good).problems(roots=2) == ""
    cases = {
        "not closed": [(root, 0.0, 10.0, -1), (call, 1.0, None, 0)],
        "not inside its parent": [(root, 0.0, 10.0, -1), (call, 1.0, 11.0, 0)],  # child outlives parent
        "overlaps": [(root, 0.0, 10.0, -1), (call, 1.0, 5.0, 0), (call, 4.0, 6.0, 0)],
        "has parent": [(root, 0.0, 10.0, -1), (call, 11.0, 12.0, -1)],  # a call outside any instance
        "comes before": [(root, 0.0, 10.0, -1), (call, 1.0, 2.0, 2), (inner, 1.5, 1.8, 1)],
        "root spans": good[:4],
    }
    for reason, spans in cases.items():
        problem = _spans(*spans).problems(roots=2 if reason == "root spans" else 1)
        assert reason in problem, (reason, problem)
    open_tracer = _spans(*good)
    open_tracer.stack = [0]
    assert "left open" in open_tracer.problems(roots=2)


def test_traced_run_rejects_spans_that_miss_the_instances(quick, monkeypatch):
    from spans import Tracer

    monkeypatch.setattr(Tracer, "root_total", lambda self: 0.0)
    metrics, record, correct = run.traced(quick, tiny("search"))
    assert not correct
    assert "root spans" in record["span_problems"][0]


def test_tail_percentile():
    assert run.tail([1.0] * 5) == (1.0, 100.0)
    durations = [float(i) for i in range(100)]
    assert run.tail(durations) == (89.0, 90.0)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "probe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path, ".perfbench").exists()


def test_reference_around_an_instance():
    ref = run.Reference()
    ref.at, ref.samples = [0.0, 0.2, 0.4, 0.6], [1.0, 2.0, 3.0, 4.0]
    assert ref.around(0.25, 0.35) == 2.5  # samples at 0.2 and 0.4
    assert ref.around(0.2, 0.6) == 3.0  # a sample taken exactly at either end counts
    assert ref.around(0.1, 0.9) == 2.5  # no sample after: the last one
