#!/usr/bin/env python3
"""chebroots benchmark: seeded root-finding workloads checked against oracles.

Run from the repository root:

    python3 benchmark/run.py --workload dense_roots --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):

    dense_roots   cheap expressions, many roots, high degree: eigen-bound
    costly_f      ~1.7 ms per evaluation: evaluation-bound
    cli_exact_df  in-process ``chebroots roots --format json`` with the exact
                  symbolic derivative, output parsed back

One closed-loop client, no threads: each solve starts when the previous one
returns.  A run solves the first ``WARMUP_CASES`` inputs once untimed, then
makes whole passes over the input list while the next one still ends within
``--seconds``, and at least ``MIN_SOLVES`` solves, so that ten or more lie
above p90.  Between passes it times ``SETUP_PROBES`` fresh processes from
importing chebroots to inputs ready; ``setup_s`` is their median.  Every
solve is checked against its oracle, and every pass must reproduce the first
pass's reports exactly.

Times are in reference seconds.  A shared 2-vCPU VM can run the same code
up to 1.7x slower for minutes at a time, so the benchmark also times a
fixed reference task (``HostSpeed``) for a tenth of the time each solve
took, right after it, and scales the pass's wall times by ``REF_UNIT_S``
over the task's mean time in that pass.  A time then reads as it would on
a host where one task takes ``REF_UNIT_S``; a change to the program moves
it as it moves wall time.  The unscaled wall-time quantiles and the task's
time per pass are printed as ``# `` notes.  ``setup_s`` stays a wall time.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes instead, requires their reports to be
equal, prints the per-layer metrics and writes the spans to
``benchmark/.out/spans-<workload>.tsv``.  The last stdout line is always one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  ``failed``
counts solves that raised, or that missed their oracle without being a
known defect listed in workloads.py; known-defect misses show in
``failed_frac`` and the oracle fractions instead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import EVAL, MODULES, POLISH, SETUP, TRANSFORM, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
WARMUP_CASES = 3
MIN_SOLVES = 100
# Reference-task time after each solve, as a share of the solve's time.
CALIBRATION_SHARE = 0.1
# Reported times are scaled to a host on which one reference task takes this.
REF_UNIT_S = 1e-3


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a broken probe)."""


def load_program():
    """Import chebroots from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "chebroots" / "__init__.py").is_file():
        raise BenchError(f"no chebroots package under {src}")
    sys.path.insert(0, str(src))
    import chebroots

    if Path(chebroots.__file__).resolve().parent != (src / "chebroots").resolve():
        raise BenchError(f"imported chebroots from {chebroots.__file__}, not from {src}")
    return chebroots


def metric_table():
    """(end_to_end, per_layer) as lists of (name, unit) from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )


# -- clients -------------------------------------------------------------


class FindRootsClient:
    """Solves a case with one ``find_roots`` call on the parsed expression."""

    def __init__(self, chebroots, cases, parse):
        self.find_roots = chebroots.find_roots
        self.cases = cases
        self.configs = [chebroots.RootConfig(degree=c.degree) for c in cases]
        eval_expr = chebroots.eval_expr
        self.funcs = []
        for case in cases:
            expr = parse(case.text)
            self.funcs.append(lambda x, e=expr: eval_expr(e, x))

    def trace_with(self, tracer: Tracer):
        self.traced_funcs = [tracer.wrap_eval(f) for f in self.funcs]
        self._solve_span = tracer.wrap("rootfinder.find_roots", self.find_roots)

    def solve(self, i, traced=False):
        case = self.cases[i]
        if traced:
            return self._solve_span(self.traced_funcs[i], (case.a, case.b), self.configs[i]), 0
        return self.find_roots(self.funcs[i], (case.a, case.b), self.configs[i]), 0


class CliClient:
    """Solves a case with one in-process ``run_cli`` call, stdout parsed back."""

    def __init__(self, chebroots, cases):
        from chebroots.cli import run_cli
        from chebroots.serialize import report_from_json

        self.run_cli = run_cli
        self.report_from_json = report_from_json
        self.argvs = []
        for c in cases:
            argv = ["roots", "--function", c.text, "--interval", repr(c.a), repr(c.b), "--format", "json"]
            if c.degree is not None:
                argv += ["--degree", str(c.degree)]
            self.argvs.append(argv)

    def trace_with(self, tracer: Tracer):
        self._run_span = tracer.wrap("cli.run_cli", self.run_cli)

    def solve(self, i, traced=False):
        run = self._run_span if traced else self.run_cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(self.argvs[i])
        text = out.getvalue()
        if not text.strip():
            raise RuntimeError(f"run_cli exited {code} without a report: {err.getvalue().strip()}")
        return self.report_from_json(text)[1], code


def setup_workload(name, seed, tracer=None):
    """Import chebroots, generate and self-check the inputs, build the client."""
    chebroots = load_program()
    cases = workloads.generate(name, seed)
    if name == "cli_exact_df":
        client = CliClient(chebroots, cases)
    else:
        parse = chebroots.parse if tracer is None else tracer.wrap("expressions.parse", chebroots.parse)
        client = FindRootsClient(chebroots, cases, parse)
    return chebroots, cases, client


def check_texts(chebroots, cases, client):
    """The program's reading of each text must agree with the case's closure."""
    for i, case in enumerate(cases):
        if isinstance(client, FindRootsClient):
            f = client.funcs[i]
        else:
            expr = chebroots.parse(case.text)
            f = lambda x, e=expr: chebroots.eval_expr(e, x)  # noqa: E731
        for t in (0.137, 0.5, 0.862):
            x = case.a + t * (case.b - case.a)
            want, got = case.func(x), f(x)
            if not abs(got - want) <= 1e-9 * max(abs(want), 1e-300):
                raise BenchError(f"{case.name}: program reads f({x!r}) = {got!r}, closure gives {want!r}")


# -- measuring -----------------------------------------------------------


class HostSpeed:
    """Times a fixed reference task that uses no chebroots code.

    One task is an interpreted loop over ``math.cos`` and a loop of small
    numpy array operations, the two kinds of work the workloads spend their
    time in; on the reference host it takes about 1 ms.  Tasks run in the
    gaps between solves, so they sample the host's speed over the same
    seconds as the solves.
    """

    def __init__(self):
        import numpy  # only once chebroots has imported it, so set-up timing is unchanged

        self._vector = numpy.arange(16.0)
        self.tasks = 0
        self.seconds = 0.0
        for _ in range(5):  # warm-up
            self._task()

    def _task(self):
        total = 0.0
        for i in range(2000):
            total += math.cos(i * 1e-3)
        v = self._vector
        for _ in range(300):
            v = v * 0.999 + 1.0
        return total, v

    def spend(self, budget):
        """Run tasks until ``budget`` seconds have gone on them (one at least)."""
        clock = time.perf_counter
        spent = 0.0
        while True:
            start = clock()
            self._task()
            spent += clock() - start
            self.tasks += 1
            if spent >= budget:
                break
        self.seconds += spent

    def take(self):
        """Mean seconds per task since the last ``take``."""
        mean = self.seconds / self.tasks
        self.tasks, self.seconds = 0, 0.0
        return mean


def setup_probe(name, seed) -> float:
    start = time.perf_counter()
    setup_workload(name, seed)
    return time.perf_counter() - start


def measure_setup(name, seed) -> float:
    """``setup_probe`` in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(client, count, traced=False, tracer=None, first_solve=0, speed=None):
    """Solve every case once, in order.  Returns (wall seconds, times, outcomes).

    With ``speed``, each solve is followed by reference tasks for
    ``CALIBRATION_SHARE`` of its time; the pass's wall seconds include them.
    """
    gc.collect()
    times, outcomes = [], []
    clock = time.perf_counter
    pass_start = clock()
    for i in range(count):
        if tracer is not None:
            tracer.solve = first_solve + i
        start = clock()
        try:
            outcome = client.solve(i, traced)
        except Exception as exc:  # a raising solve is a failed solve, not a dead run
            traceback.print_exc(file=sys.stderr)
            outcome = exc
        times.append(clock() - start)
        outcomes.append(outcome)
        if speed is not None:
            speed.spend(CALIBRATION_SHARE * times[-1])
    if tracer is not None:
        tracer.solve = SETUP
    return clock() - pass_start, times, outcomes


class Tally:
    """Oracle accounting over every solve of a run."""

    def __init__(self, cases):
        self.cases = cases
        self.reference = [None] * len(cases)
        self.attempted = self.failed = self.unexpected = self.mismatched_reports = 0
        self.oracle_roots = self.found_roots = self.missed = self.spurious = 0
        self.evals = self.completed = 0
        self.failures: dict[str, str] = {}

    def add(self, outcomes):
        for i, outcome in enumerate(outcomes):
            case = self.cases[i]
            self.attempted += 1
            if isinstance(outcome, Exception):
                self.failed += 1
                self.unexpected += 1
                self.failures[case.name] = f"raised {type(outcome).__name__}: {outcome}"
                self.missed += len(case.roots)
                self.oracle_roots += len(case.roots)
                continue
            report, code = outcome
            self.completed += 1
            if self.reference[i] is None:
                self.reference[i] = outcome
            elif self.reference[i] != outcome:
                self.mismatched_reports += 1
            matched = workloads.match_roots(report.roots, case.roots)
            self.oracle_roots += len(case.roots)
            self.found_roots += len(report.roots)
            self.missed += len(case.roots) - matched
            self.spurious += len(report.roots) - matched
            self.evals += report.function_evaluations
            reasons = []
            if code != 0:
                reasons.append(f"exit {code}")
            if not report.proxy_converged:
                reasons.append("proxy_converged=False")
            if matched != len(case.roots) or matched != len(report.roots):
                reasons.append(f"{matched} of {len(case.roots)} oracle roots matched, "
                               f"{len(report.roots)} accepted")
            if reasons:
                self.failed += 1
                self.unexpected += case.known_defect is None
                self.failures[case.name] = "; ".join(reasons)

    @property
    def correct(self):
        return self.unexpected == 0 and self.mismatched_reports == 0


def more_passes(walls, seconds, min_passes=1):
    """Whether another pass, as long as the mean one so far, ends within ``seconds``."""
    if len(walls) < min_passes:
        return True
    return sum(walls) + sum(walls) / len(walls) <= seconds


def run_untraced(client, cases, min_passes, seconds, setup_probe, probes):
    """Whole passes for ``seconds``, with the set-up probes spread between them.

    Probing between passes, at even steps of the measured time, samples the
    machine's set-up speed across the run instead of at one moment.  Returns
    the tally, the solve times in pass order, the pass walls, the reference
    task's mean time in each pass, and the probes' set-up times.
    """
    tally = Tally(cases)
    speed = HostSpeed()
    times, walls, units, setup_times = [], [], [], []
    while more_passes(walls, seconds, min_passes):
        if len(setup_times) < probes and sum(walls) >= len(setup_times) * seconds / probes:
            setup_times.append(setup_probe())
        wall, pass_times, outcomes = run_pass(client, len(cases), speed=speed)
        walls.append(wall)
        units.append(speed.take())
        times += pass_times
        tally.add(outcomes)
    while len(setup_times) < probes:
        setup_times.append(setup_probe())
    return tally, times, walls, units, setup_times


def run_traced(client, cases, seconds, tracer):
    """Alternate untraced and traced passes for ``seconds`` (one pair at least).

    Returns the tally, the untraced and traced passes' solve seconds, each
    scaled like the end-to-end times, and the traced solves' reports (None
    where a solve raised).
    """
    tally = Tally(cases)
    speed = HostSpeed()
    plain_s, traced_s, traced_reports, pair_walls = [], [], [], []
    client.trace_with(tracer)
    while more_passes(pair_walls, seconds):
        plain_wall, times, outcomes = run_pass(client, len(cases), speed=speed)
        plain_s.append(sum(times) * REF_UNIT_S / speed.take())
        tally.add(outcomes)
        tracer.install()
        try:
            wall, times, outcomes = run_pass(client, len(cases), True, tracer, len(traced_reports), speed)
        finally:
            tracer.uninstall()
        traced_s.append(sum(times) * REF_UNIT_S / speed.take())
        pair_walls.append(plain_wall + wall)
        tally.add(outcomes)  # tally.reference is the untraced first pass
        traced_reports += [o[0] if isinstance(o, tuple) else None for o in outcomes]
    return tally, plain_s, traced_s, traced_reports


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(tally, times, walls, units, setup_times):
    """End-to-end metrics from the solve times of whole passes, in pass order.

    Each pass's times are scaled to reference seconds by that pass's
    reference-task time (see the module docstring).  An input's solve time is
    the median of its scaled repeats, one per pass; ``solve_p50_s`` and
    ``solve_p90_s`` are quantiles of these over the inputs, and
    ``solves_per_s`` is the number of inputs over their sum, the rate at the
    workload's input mix.  Every input is solved once per pass, so the inputs
    above p90 account for ten or more solves.  ``setup_s`` is the median of
    the probes' wall times, unscaled: set-up is mostly importing numpy, whose
    time the reference task does not track.
    """
    count = len(times) // len(walls)
    scale = [REF_UNIT_S / unit for unit in units]
    per_case = [statistics.median(t * scale[p] for p, t in enumerate(times[i::count])) for i in range(count)]
    wall_per_case = [statistics.median(times[i::count]) for i in range(count)]
    top = p90(per_case)
    return {
        "setup_s": statistics.median(setup_times),
        "solve_p50_s": statistics.median(per_case),
        "solve_p90_s": top,
        "solves_per_s": count / sum(per_case),
        "evals_per_solve": tally.evals / max(1, tally.completed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solved_frac": 1.0 - tally.failed / tally.attempted,
        "roots_found_frac": 1.0 - tally.missed / max(1, tally.oracle_roots),
        "roots_true_frac": 1.0 - tally.spurious / max(1, tally.found_roots),
    }, {
        "solves": len(times),
        "inputs": count,
        "above_p90": len(walls) * sum(1 for t in per_case if t > top),
        "pass_walls_s": [round(w, 3) for w in walls],
        "task_ms_per_pass": [round(1e3 * u, 4) for u in units],
        "wall_solve_p50_s": statistics.median(wall_per_case),
        "wall_solve_p90_s": p90(wall_per_case),
        "setup_probes": len(setup_times),
        "failed_frac": tally.failed / tally.attempted,
        "roots_missed": tally.missed,
        "roots_spurious": tally.spurious,
    }


def per_layer(tracer, traced_reports, plain_s, traced_s):
    calls, incl, self_s = tracer.totals()
    n = len(traced_reports)
    traced_reports = [r for r in traced_reports if r is not None]
    samples = sum(sum(s) for s in tracer.rung_sizes.values())
    wasted = sum(sum(s) - s[-1] for s in tracer.rung_sizes.values())
    candidates = sum(len(r.candidates) for r in traced_reports)
    all_calls, all_incl, _ = tracer.totals(solves_only=False)
    evals = {stage: sum(v for (s, _), v in tracer.stage_evals.items() if s == stage)
             for stage in ("sample", "polish", "vet")}
    return {
        "qr.balance_s": self_s["qr.balance_matrix"] / n,
        "qr.hessenberg_s": self_s["qr.hessenberg_reduce"] / n,
        "qr.francis_s": self_s["qr.hessenberg_eigenvalues"] / n,
        "companion.build_s": self_s["companion.build_frobenius"] / n,
        "companion.eigen_s": incl["companion.eigenvalues"] / n,
        "companion.order_mean": statistics.mean(tracer.orders) if tracer.orders else 0.0,
        "companion.order_max": max(tracer.orders, default=0),
        "companion.n3_sum": sum(o**3 for o in tracer.orders) / n,
        "companion.unconverged": tracer.unconverged / n,
        "rootfinder.nonconverged": sum(not r.proxy_converged for r in traced_reports) / n,
        "expressions.eval_calls": calls[EVAL] / n,
        "expressions.eval_s": self_s[EVAL] / n,
        "expressions.parse_s": all_incl["expressions.parse"] / max(1, all_calls["expressions.parse"]),
        "expressions.diff_s": incl["expressions.differentiate_expr"] / n,
        "rootfinder.sample_evals": evals["sample"] / n,
        "rootfinder.polish_evals": evals["polish"] / n,
        "rootfinder.vet_evals": evals["vet"] / n,
        "rootfinder.ladder_rungs": calls[TRANSFORM] / n,
        "rootfinder.wasted_sample_frac": wasted / max(1, samples),
        "rootfinder.candidates": candidates / n,
        "rootfinder.accept_frac": sum(len(r.roots) for r in traced_reports) / max(1, candidates),
        "rootfinder.polish_iters": sum(c.polish_iterations for r in traced_reports for c in r.candidates) / n,
        "rootfinder.polish_s": incl[POLISH] / n,
        "rootfinder.self_s": self_s["rootfinder.find_roots"] / n,
        "chebyshev.transform_calls": calls[TRANSFORM] / n,
        "chebyshev.transform_s": self_s[TRANSFORM] / n,
        "chebyshev.evaluate_calls": calls["chebyshev.evaluate"] / n,
        "chebyshev.evaluate_s": self_s["chebyshev.evaluate"] / n,
        "serialize.report_s": incl["serialize.report_to_json"] / n,
        "cli.self_s": self_s["cli.run_cli"] / n,
        "trace.overhead_frac": sum(traced_s) / sum(plain_s) - 1.0,
    }, {
        "traced_solves": n,
        "untraced_passes": len(plain_s),
        "sample_base": samples,
        "candidate_base": candidates,
        "module_self_share": module_shares(self_s),
        "skipped_patch_points": sorted(tracer.skipped),
    }


def module_shares(self_s):
    total = sum(self_s.values()) or 1.0
    shares = {m: 0.0 for m in MODULES}
    for name, seconds in self_s.items():
        module = name.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + seconds / total
    return shares


def run(workload, seed, seconds, trace, *, min_solves=MIN_SOLVES, probes=SETUP_PROBES, limit=None):
    """One benchmark run; returns (result object, human-readable notes)."""
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    e2e_names, layer_names = metric_table()
    tracer = Tracer() if trace else None
    chebroots, cases, client = setup_workload(workload, seed, tracer)
    check_texts(chebroots, cases, client)
    if limit is not None:
        cases = cases[:limit]
    for i in range(min(WARMUP_CASES, len(cases))):
        try:
            client.solve(i)
        except Exception:  # counted when the timed passes solve it again
            pass
    if trace:
        tally, plain_s, traced_s, traced_reports = run_traced(client, cases, seconds, tracer)
        values, notes = per_layer(tracer, traced_reports, plain_s, traced_s)
        tracer.write(HERE / ".out" / f"spans-{workload}.tsv")
        names = layer_names
    else:
        min_passes = -(-min_solves // len(cases))
        tally, times, walls, units, setup_times = run_untraced(
            client, cases, min_passes, seconds, lambda: measure_setup(workload, seed), probes)
        values, notes = end_to_end(tally, times, walls, units, setup_times)
        names = e2e_names
    notes["failures"] = tally.failures
    if tally.mismatched_reports:
        notes["report_mismatches"] = tally.mismatched_reports
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.unexpected,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dump-inputs", action="store_true",
                        help="print the seeded input list as JSON and exit")
    args = parser.parse_args(argv)
    try:
        if args.dump_inputs:
            print(workloads.inputs_json(workloads.generate(args.workload, args.seed)))
            return 0
        if args.setup_probe:
            print(repr(setup_probe(args.workload, args.seed)))
            return 0
        result, notes = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    for key, value in notes.items():
        print(f"# {key}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
