#!/usr/bin/env python3
"""Benchmark for permutoid-lab: time to a certified verdict on four seeded
workloads.

    python3 perfbench/run.py --workload probe --seed 1 --seconds 20 --trace 0

Each workload runs in this one process and one thread as a closed loop: one
instance at a time, the next starting when the last has finished, in whole
passes over a fixed mix of instances, until the instances' own time adds up
to ``--seconds``.  Every answer then goes through the workload's correctness
gate, untimed.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs one pass alternately untraced and traced and reports per-layer self
times and work counters.

The last line of standard output is the result object; the line before it is
a record of the run (Python version, git revision, nproc, seed, verdict
digest and the details behind each metric).  RATIONALE.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import accumulate
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 5  # the parent's own set-up plus four fresh interpreters
CLI_SAMPLES = 15
CLI_PRESENTATION = HERE / "z6.txt"
CLI_ARGS = ("probe-finite-quotient", "--presentation", str(CLI_PRESENTATION),
            "--radius", "4", "--max-size", "12", "--deterministic")
CHILD_TIMEOUT_S = 120
TRACE_SLACK = 3.0  # root spans against the untraced pass, as a factor either way

END_TO_END = {
    "instances_per_s": "1/s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "decided_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli_cold_s": "s",
}

# per-layer metric -> span names whose self time it sums
LAYER_TIMES = {
    "coset.enumerate_s": ("coset.enumerate_cosets",),
    "groups.todd_coxeter_self_s": ("groups.todd_coxeter",),
    "groups.cayley_ball_s": ("groups.cayley_ball",),
    "groups.cameron_self_s": ("groups.cameron_permutoid",),
    "groups.universal_group_s": ("groups.universal_group",),
    "groups.verify_quotient_hom_s": ("groups.verify_quotient_hom",),
    "core.validate_s": ("core.validate_permutoid",),
    "core.witness_s": ("core.witness_table", "core.witness_triples"),
    "core.enumerate_quotients_self_s": ("core.enumerate_quotients",),
    "core.canonical_form_s": ("core.canonical_form",),
    "develop.search_s": ("develop.search_development",),
    "develop.verify_s": ("develop.verify_development",),
    "develop.probe_self_s": ("develop.probe_finite_quotient",),
    "pseudogroup.generate_s": ("pseudogroup.generate_pseudogroup",),
    "pseudogroup.check_s": ("pseudogroup.check_pseudogroup",),
    "pseudogroup.rigid_test_s": ("pseudogroup.is_rigid_pseudogroup",),
    "pseudogroup.rigid_search_s": ("pseudogroup.search_rigid_development",),
    "serialize.encode_s": ("serialize.probe_report_to_obj", "serialize.canonical_json"),
}
# per-layer metric -> counter the tracer keeps
LAYER_COUNTS = {
    "coset.calls": "coset.enumerate_cosets.calls",
    "coset.cosets": "coset.cosets",
    "groups.ball_points": "groups.ball_points",
    "core.validate_calls": "core.validate_permutoid.calls",
    "core.partition_attempts": "core.quotient_by_partition.calls",
    "core.quotient_classes": "core.quotient_classes",
    "core.canonical_calls": "core.canonical_form.calls",
    "develop.nodes": "develop.nodes",
    "develop.nodes_refute": "develop.nodes_refute",
    "develop.nodes_found": "develop.nodes_found",
    "develop.budget_hits": "develop.budget_hits",
    "pseudogroup.maximal_total": "pseudogroup.maximal_total",
    "pseudogroup.rigid_nodes": "pseudogroup.rigid_nodes",
    "serialize.bytes": "serialize.bytes",
}
# per-layer metric -> (numerator, denominator) over the metrics above
LAYER_RATIOS = {
    "core.quotient_yield": ("core.quotient_classes", "core.partition_attempts"),
    "develop.nodes_per_s": ("develop.nodes", "develop.search_s"),
    "pseudogroup.rigid_nodes_per_s": ("pseudogroup.rigid_nodes", "pseudogroup.rigid_search_s"),
}
LAYER_UNITS = {
    **{k: "s" for k in LAYER_TIMES},
    **{k: "count" for k in LAYER_COUNTS},
    "serialize.bytes": "bytes",
    "core.quotient_yield": "ratio",
    "develop.nodes_per_s": "1/s",
    "pseudogroup.rigid_nodes_per_s": "1/s",
    "cli.import_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}


# -- set-up ------------------------------------------------------------------------

def import_workloads():
    """Import the checkout's package (never an installed copy) and the
    workload definitions."""
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import permutoid_lab

    if not Path(permutoid_lab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"permutoid_lab was not imported from {SRC}")
    import workloads

    return workloads


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_interpreter_samples(argv, count: int) -> list[str]:
    """Run ``argv`` in ``count`` fresh interpreters, one after another, and
    return each one's standard output."""
    outs = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[:2]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        outs.append(proc.stdout)
    return outs


class FreshSamples:
    """The fresh-interpreter measurements of a run: set-up samples
    (``--setup-sample``) and cold CLI probes on Z6 at rho=4.  They are taken
    between instances, spread evenly over the timed loop, so that one burst
    of machine noise cannot set their medians."""

    def __init__(self, workload: str, seed: int, seconds: float):
        setup = [((j + 0.5) / (SETUP_SAMPLES - 1), "setup") for j in range(SETUP_SAMPLES - 1)]
        cli = [((k + 0.5) / CLI_SAMPLES, "cli") for k in range(CLI_SAMPLES)]
        self.plan = [(seconds * at, kind) for at, kind in sorted(setup + cli)]
        self.setup_argv = [str(Path(__file__).resolve()), "--setup-sample",
                           "--workload", workload, "--seed", str(seed)]
        self.setup: list[float] = []
        self.cli: list[float] = []
        self.cli_runs: list[tuple[int, str]] = []

    def __call__(self, busy: float) -> None:
        """Take every sample due by ``busy`` seconds of loop time."""
        while self.plan and self.plan[0][0] <= busy:
            _, kind = self.plan.pop(0)
            if kind == "setup":
                self.setup.append(float(fresh_interpreter_samples(self.setup_argv, 1)[0].split()[-1]))
            else:
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "permutoid_lab.cli", *CLI_ARGS], cwd=ROOT, env=child_env(),
                    capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                )
                self.cli.append(time.perf_counter() - start)
                self.cli_runs.append((proc.returncode, proc.stdout))

    def finish(self) -> None:
        self(float("inf"))

    def check_cli(self, groups_module) -> str:
        """Every CLI run exits 0 with the same report, whose evidence holds;
        returns the reason it does not, or an empty string."""
        if {code for code, _ in self.cli_runs} != {0}:
            return "cli exited non-zero"
        if len({out for _, out in self.cli_runs}) != 1:
            return "cli output differs between runs"
        report = json.loads(self.cli_runs[0][1])
        if report.get("verdict") != "found-quotient":
            return f"cli verdict {report.get('verdict')!r}"
        pres = groups_module.parse_presentation(CLI_PRESENTATION.read_text())
        order = groups_module.verify_quotient_hom(pres, report["evidence"]["generator_images"]).group_order
        if order <= 1 or 6 % order or order != report["evidence"]["group_order"]:
            return f"cli evidence order {order}"
        return ""


# -- measuring -----------------------------------------------------------------------

REFERENCE_EVERY_S = 0.2  # loop time between two samples of the reference computation
# The unit of reported times: seconds on a machine that runs the reference
# computation in this long (the shared 2-core machine this benchmark was
# written on took 18 ms in its slower phase and 12-17 ms on average).
REFERENCE_NOMINAL_S = 0.018


def reference_work() -> int:
    """A fixed computation independent of permutoid_lab: the closure of two
    generators of the symmetric group on 7 points (5,040 permutations as
    tuples in a set), in the same Python idiom as the library's own group
    closures.  Its time tracks the speed of the machine at that moment."""
    gens = ((1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0))
    identity = tuple(range(7))
    seen = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(x[g[i]] for i in range(7))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


class Reference:
    """Times ``reference_work`` between instances, every
    ``REFERENCE_EVERY_S`` of loop time.

    The machine's speed drifts with the load of its neighbours: the same
    reference computation took 11.7 ms in one run and 20.9 ms in another,
    and within a run it flips between two levels from one second to the
    next.  End-to-end times are reported scaled by reference times, so that
    runs made in a slow and a fast phase compare; the unscaled values stay
    in the run record."""

    def __init__(self):
        self.at: list[float] = []  # loop time at which each sample was taken
        self.samples: list[float] = []
        self.next_at = 0.0

    def __call__(self, busy: float) -> None:
        while busy >= self.next_at:
            start = time.perf_counter()
            if reference_work() != 5040:
                raise AssertionError("reference computation changed")
            self.at.append(busy)
            self.samples.append(time.perf_counter() - start)
            self.next_at += REFERENCE_EVERY_S

    def around(self, start: float, end: float) -> float:
        """The mean of the last sample taken by loop time ``start`` and the
        first taken from ``end`` on: the machine's speed while an instance
        ran between the two."""
        before = self.samples[max(bisect.bisect_right(self.at, start) - 1, 0)]
        after = self.samples[min(bisect.bisect_left(self.at, end), len(self.samples) - 1)]
        return (before + after) / 2


class Gate:
    """Runs each instance's correctness check and keeps the tallies.  Deep
    checks (the brute-force oracle) run on an instance's first visit only;
    later visits must reproduce the first verdict."""

    def __init__(self, first_pass: int):
        self.first_pass = first_pass
        self.first: dict[int, object] = {}
        self.outcomes: list = []
        self.seconds = 0.0

    def __call__(self, idx: int, inst, result, exc):
        start = time.perf_counter()
        deep = idx not in self.first
        outcome = inst.check(result, exc, deep)
        if deep:
            self.first[idx] = outcome
        elif (self.first[idx].kind, self.first[idx].size) != (outcome.kind, outcome.size):
            outcome = replace(outcome, kind="nondeterministic", decided=False, failed=True, known="",
                              reason=f"instance {idx}: verdict changed between visits")
        self.outcomes.append(outcome)
        self.seconds += time.perf_counter() - start
        return outcome

    def digest(self) -> tuple[str, int]:
        keys = sorted(i for i in self.first if i < self.first_pass)
        text = "".join(f"{i}:{self.first[i].kind}:{self.first[i].size}\n" for i in keys)
        return hashlib.sha256(text.encode()).hexdigest()[:16], len(keys)

    def summary(self) -> dict:
        attempted = len(self.outcomes)
        failed = [o for o in self.outcomes if o.failed]
        return {
            "attempted": attempted,
            "failed": len(failed),
            "decided": sum(o.decided for o in self.outcomes),
            "unknown_failures": [o.reason for o in failed if not o.known][:5],
            "known_failures": dict(Counter(o.known for o in failed if o.known)),
            "verdicts": dict(sorted(Counter(o.kind for o in self.outcomes).items())),
        }


def run_instance(inst, root=None):
    start = time.perf_counter()
    result = exc = None
    try:
        if root is None:
            result = inst.run()
        else:
            with root():
                result = inst.run()
    except Exception as e:  # the gate decides whether the verdict contract allows it
        exc = e
    return time.perf_counter() - start, result, exc


def timed_loop(w, seconds: float, gate: Gate, between=None) -> dict:
    durations, chunk_rates = [], []
    busy = chunk_busy = 0.0
    i = 0
    while busy < seconds or i % w.chunk or i < w.tail_passes * w.chunk:
        idx = i % len(w.instances)
        dt, result, exc = run_instance(w.instances[idx])
        gate(idx, w.instances[idx], result, exc)
        del result, exc
        if between is not None:
            between(busy + dt)
        durations.append(dt)
        busy += dt
        chunk_busy += dt
        i += 1
        if i % w.chunk == 0:
            chunk_rates.append(w.chunk / chunk_busy)
            chunk_busy = 0.0
    return {"durations": durations, "chunk_rates": chunk_rates, "busy_s": busy}


def tail(durations: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten instances beyond it, and
    which percentile that is; the maximum when there are ten or fewer."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(args, w, own_setup: float, groups_module) -> tuple[dict, dict, bool]:
    fresh = FreshSamples(w.name, w.seed, args.seconds)
    reference = Reference()
    gate = Gate(w.chunk)

    def between(busy: float) -> None:
        fresh(busy)
        reference(busy)

    reference(0.0)
    loop = timed_loop(w, args.seconds, gate, between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fresh.finish()
    setup = [own_setup] + fresh.setup
    cli_problem = fresh.check_cli(groups_module)
    summary = gate.summary()
    durations = loop["durations"]
    tail_count = w.tail_passes * w.chunk
    rates = loop["chunk_rates"]
    wall = {
        "instances_per_s": statistics.median(rates) if rates else len(durations) / loop["busy_s"],
        "verdict_p50_s": statistics.median(durations),
        "verdict_tail_s": tail(durations[:tail_count])[0],
        "setup_s": statistics.median(setup),
        "cli_cold_s": statistics.median(fresh.cli),
    }
    # times in reference seconds: what they would read if the machine ran
    # the reference computation in REFERENCE_NOMINAL_S.  Rates and child
    # process times span the run and are scaled by the run's mean reference
    # time, which follows the share of time spent at each speed level, as
    # they do.  A percentile picks single instances, each run at one level,
    # so each instance's time is scaled by the samples around it.
    scale = REFERENCE_NOMINAL_S / statistics.fmean(reference.samples)
    scaled = [dt * REFERENCE_NOMINAL_S / reference.around(start, start + dt)
              for start, dt in zip(accumulate(durations, initial=0.0), durations)]
    tail_s, tail_pct = tail(scaled[:tail_count])
    metrics = {name: value * scale for name, value in wall.items()}
    metrics["instances_per_s"] = wall["instances_per_s"] / scale
    metrics["verdict_p50_s"] = statistics.median(scaled)
    metrics["verdict_tail_s"] = tail_s
    metrics["decided_frac"] = summary["decided"] / summary["attempted"]
    metrics["peak_rss_mb"] = peak_rss_mb
    digest, digest_n = gate.digest()
    record = {
        **summary,
        "wall_metrics": wall,
        "reference_scale": scale,
        "failed_frac": summary["failed"] / summary["attempted"],
        "digest": digest,
        "digest_instances": digest_n,
        "tail_percentile": round(tail_pct, 2),
        "tail_samples": tail_count,
        "samples": len(durations),
        "chunk": w.chunk,
        "chunks": len(rates),
        "loop_s": loop["busy_s"],
        "gate_s": gate.seconds,
        "setup_samples_s": setup,
        "cli_samples_s": fresh.cli,
        "reference_samples_s": reference.samples,
        "reference_at_s": reference.at,
        "cli_problem": cli_problem,
    }
    correct = not cli_problem and not summary["unknown_failures"]
    return metrics, record, correct


def traced(args, w) -> tuple[dict, dict, bool]:
    from spans import Tracer

    import_s = statistics.median(
        float(out.split()[-1]) for out in fresh_interpreter_samples(
            ["-c", "import time; t = time.perf_counter(); import permutoid_lab.cli; "
                   "print(time.perf_counter() - t)"], CLI_SAMPLES)
    )
    first_pass = w.instances[: w.chunk]
    tracer = Tracer()
    gate = Gate(w.chunk)
    passes, counters, problems = [], None, []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        plain = sum(run_instance(inst)[0] for inst in first_pass)
        tracer.install()
        try:
            wall = 0.0
            for idx, inst in enumerate(first_pass):
                dt, result, exc = run_instance(inst, tracer.root)
                wall += dt
                if counters is None:
                    gate(idx, inst, result, exc)
                del result, exc
        finally:
            tracer.uninstall()
        problems.append(tracer.problems(len(first_pass)))
        if counters is None:
            counters = Counter(tracer.counters)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{w.name}-seed{w.seed}.jsonl")
        passes.append((plain, wall, tracer.self_times(), tracer.root_total()))
        tracer.reset()

    metrics = {}
    for name, spans in LAYER_TIMES.items():
        metrics[name] = statistics.median(sum(p[2].get(s, 0.0) for s in spans) for p in passes)
    for name, key in LAYER_COUNTS.items():
        metrics[name] = counters.get(key, 0)
    for name, (num, den) in LAYER_RATIOS.items():
        metrics[name] = metrics[num] / metrics[den] if metrics[den] else 0.0
    metrics["cli.import_s"] = import_s
    plain_s = statistics.median(p[0] for p in passes)
    metrics["trace.overhead_frac"] = statistics.median(p[1] for p in passes) / plain_s - 1
    summary = gate.summary()
    metrics["failed_frac"] = summary["failed"] / summary["attempted"]
    # the root spans must account for the untraced pass's time, give or take
    # the tracing overhead and the machine's speed, which flips by up to
    # 1.9x within a run (one probe pass took 3.8 s untraced and 5.3 s traced);
    # a trace that loses or double-counts the instances' time does not
    roots_s = statistics.median(p[3] for p in passes)
    if not plain_s / TRACE_SLACK <= roots_s <= plain_s * TRACE_SLACK:
        problems.append(f"root spans {roots_s:.4g} s against {plain_s:.4g} s untraced")
    problems = [p for p in problems if p]
    digest, digest_n = gate.digest()
    record = {
        **summary,
        "digest": digest,
        "digest_instances": digest_n,
        "passes": len(passes),
        "untraced_s": [p[0] for p in passes],
        "traced_s": [p[1] for p in passes],
        "root_spans_s": [p[3] for p in passes],
        "span_problems": problems[:5],
    }
    return metrics, record, not problems and not summary["unknown_failures"]


# -- entry point ---------------------------------------------------------------------

def git_revision() -> str:
    """HEAD of the checkout; "unknown" outside a repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-sample", action="store_true",
                   help="time one import and input generation, print it, and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    try:
        workloads = import_workloads()
    except ImportError as exc:
        print(f"error: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.build(args.workload, args.seed)
    own_setup = time.perf_counter() - start
    if args.setup_sample:
        print(own_setup)
        return 0

    if args.trace:
        metrics, record, correct = traced(args, w)
        units = LAYER_UNITS
    else:
        metrics, record, correct = end_to_end(args, w, own_setup, workloads.groups)
        units = END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs_digest": hashlib.sha256(workloads.describe(w).encode()).hexdigest()[:16],
        **record,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": bool(correct),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
