"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q benchmark
"""

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracing import EVAL, Tracer

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
BASELINE = json.loads((run.HERE / "baseline.json").read_text())


def dump_inputs(workload, seed, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--dump-inputs"],
        capture_output=True, check=True, env=env, cwd=run.ROOT,
    )
    return proc.stdout


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload):
    first = dump_inputs(workload, 5, 1)
    assert first == dump_inputs(workload, 5, 2)
    assert first != dump_inputs(workload, 6, 1)
    assert workloads.inputs_json(workloads.generate(workload, 5)).encode() + b"\n" == first


@pytest.mark.parametrize("seed", [0, 1, 17, 12345])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_oracles_hold_for_several_seeds(workload, seed):
    cases = workloads.generate(workload, seed)  # generate() self-checks every oracle
    assert len({c.name for c in cases}) == len(cases)
    for case in cases:
        assert case.roots, case.name
        assert case.a < case.b


def test_a_wrong_oracle_is_refused():
    case = workloads.generate("cli_exact_df", 1)[0]
    shifted = workloads.Case(case.name, case.text, case.a, case.b, case.degree,
                             tuple(r + 1e-3 for r in case.roots), func=case.func)
    with pytest.raises(ValueError, match="sign|tiny"):
        workloads.check_oracle(shifted)


def test_known_defects_match_the_baseline_record():
    recorded = {d["case"]: f"ROADMAP item {d['roadmap_item']}" for d in BASELINE["known_defects"]}
    for name in sorted(workloads.WORKLOADS):
        defects = {c.name: c.known_defect for c in workloads.generate(name, 1) if c.known_defect}
        assert defects == (recorded if name == "dense_roots" else {})


def test_every_per_layer_metric_is_mapped_once():
    mapped = [m for entry in BASELINE["layer_map"] for m in entry["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])


def test_match_roots_is_one_to_one():
    assert workloads.match_roots([1.0, 2.0], [1.0, 2.0]) == 2
    assert workloads.match_roots([1.0, 1.0 + 1e-12], [1.0]) == 1
    assert workloads.match_roots([1.0 + 1e-9], [1.0]) == 0
    assert workloads.match_roots([], [0.5]) == 0


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_tracer_self_time_and_eval_stages():
    tracer = Tracer()
    leaf = tracer.wrap("chebyshev.leaf", lambda: sum(range(1000)))
    polish = tracer.wrap("rootfinder.newton_polish", lambda f: f(0.0))
    f = tracer.wrap_eval(lambda x: x)
    outer = tracer.wrap("rootfinder.find_roots", lambda: (f(1.0), leaf(), polish(f), leaf()))
    tracer.solve = 0
    outer()
    calls, incl, self_s = tracer.totals()
    assert calls["chebyshev.leaf"] == 2 and calls[EVAL] == 2
    # self times partition the outermost span
    assert sum(self_s.values()) == pytest.approx(incl["rootfinder.find_roots"], abs=1e-9)
    assert incl[EVAL] == pytest.approx(self_s[EVAL])
    assert tracer.stage_evals == {("sample", 0): 1, ("polish", 0): 1}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_run_reports_every_metric(workload, trace):
    result, notes = run.run(workload, 3, 0.0, trace, min_solves=1, probes=1, limit=3)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3


def test_times_are_scaled_by_each_pass_reference_task():
    # The second pass ran on a host twice as slow: every solve and the
    # reference task took twice as long, so the scaled times agree.
    times = [0.1, 0.2, 0.3, 0.4] + [0.2, 0.4, 0.6, 0.8]
    units = [run.REF_UNIT_S, 2 * run.REF_UNIT_S]
    tally = run.Tally([])
    tally.attempted = 1
    values, notes = run.end_to_end(tally, times, [1.0, 2.0], units, [0.5, 0.7, 0.6])
    assert values["solve_p50_s"] == pytest.approx(0.25)
    assert values["solves_per_s"] == pytest.approx(4 / 1.0)
    assert values["setup_s"] == pytest.approx(0.6)
    assert notes["wall_solve_p50_s"] == pytest.approx(0.375)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "cli_exact_df", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "no chebroots package" in proc.stderr


def test_a_changed_report_marks_the_run_incorrect():
    chebroots = run.load_program()
    case = workloads.generate("cli_exact_df", 1)[0]
    report = chebroots.find_roots(case.func, (case.a, case.b))
    tally = run.Tally([case])
    tally.add([(report, 0)])
    assert tally.correct and tally.failed == 0
    tally.add([(dataclasses.replace(report, function_evaluations=0), 0)])
    assert tally.mismatched_reports == 1 and not tally.correct
