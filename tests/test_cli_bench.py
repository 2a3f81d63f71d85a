import argparse
import csv
import importlib.util
import io
import json
import math
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import chebroots
from chebroots import bench, chebyshev, companion, expressions, rootfinder
from chebroots.bench import (
    GRID_POINTS,
    BenchCase,
    bench_to_csv,
    bench_to_dict,
    bench_to_json,
    default_corpus,
    run_bench,
)
from chebroots.chebyshev import (
    ChebyshevSeries,
    Interval,
    evaluate,
    from_standard,
    standard_nodes,
    transform,
)
from chebroots.cli import _build_parser, run_cli
from chebroots.expressions import differentiate_expr, eval_expr, parse
from chebroots.rootfinder import RootConfig, find_roots
from chebroots.serialize import (
    config_to_dict,
    report_from_dict,
    report_from_json,
    report_to_csv,
    report_to_dict,
    report_to_json,
)


def _benchmark_workloads():
    """The benchmark's seeded inputs (``benchmark/workloads.py``, standard library only)."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks a class's module up by name
    spec.loader.exec_module(module)
    return module


workloads = _benchmark_workloads()


# f is NaN at the proxy's one root: (x - 0.3) times a 0/0 there
NAN_AT_ROOT_TEXT = "(x-0.3)*sqrt((x-0.3)^2-0.0001)/sqrt((x-0.3)^2-0.0001)"
NAN_AT_ROOT = parse(NAN_AT_ROOT_TEXT)


def run_json(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def strict_json(text):
    """json.loads that refuses NaN and infinities."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


class TestDeclarations:
    # the names the package exported before it took them from its modules' __all__
    EARLIER_EXPORTS = {
        "ChebyshevSeries", "Interval", "NonFiniteSampleError", "chop_series",
        "coefficient_decay", "differentiate", "evaluate", "from_standard", "standard_nodes",
        "to_standard", "transform", "DegenerateLeadingCoefficientError", "Spectrum",
        "build_frobenius", "eigenvalues", "series_spectrum", "PolishResult", "RejectionReason",
        "RootCandidate", "RootConfig", "RootReport", "build_proxy",
        "filter_candidates", "find_roots", "newton_polish", "Expression", "ParseError",
        "differentiate_expr", "eval_expr", "expression_to_text", "parse", "BenchCase",
        "BenchReport", "BenchRow", "default_corpus", "run_bench",
    }

    def test_package_exports_each_module_list_once(self):
        modules = (chebyshev, companion, rootfinder, expressions, bench)
        assert chebroots.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
        assert len(set(chebroots.__all__)) == len(chebroots.__all__)
        for module in modules:
            for name in module.__all__:
                assert getattr(chebroots, name) is getattr(module, name)
        assert self.EARLIER_EXPORTS <= set(chebroots.__all__)

    def test_every_subcommand_has_a_handler(self):
        (subcommands,) = [action for action in _build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction)]
        assert set(subcommands.choices) == {"roots", "sweep", "interp", "bench"}
        for name, parser in subcommands.choices.items():
            assert callable(parser.get_default("run")), name

    # each subcommand takes exactly the flags its handler reads
    SURFACE = {
        "roots": {"--function", "--interval", "--residual-tol", "--no-polish",
                  "--format", "--output", "--degree", "--allow-nonconverged"},
        "sweep": {"--function", "--interval", "--residual-tol", "--no-polish",
                  "--format", "--output", "--degrees"},
        "interp": {"--function", "--interval", "--format", "--output", "--degree", "--allow-nonconverged"},
        "bench": {"--format", "--output", "--no-polish"},
    }

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_subcommand_takes_exactly_the_flags_it_reads(self, command):
        (subcommands,) = [action for action in _build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction)]
        actions = [a for a in subcommands.choices[command]._actions
                   if not isinstance(a, argparse._HelpAction)]
        assert {opt for a in actions for opt in a.option_strings} == self.SURFACE[command]
        assert len(actions) == len(self.SURFACE[command])  # one option string per flag

    @pytest.mark.parametrize("command, flag", [
        (["interp"], ["--residual-tol", "1e-10"]),
        (["interp"], ["--no-polish"]),
        (["sweep", "--degrees", "30"], ["--allow-nonconverged"]),
        # the box filter's tolerances are constants, set by no flag
        (["roots"], ["--imag-tol", "1e-6"]),
        (["roots"], ["--box-tol", "0.001"]),
        (["sweep", "--degrees", "30"], ["--imag-tol", "1e-6"]),
        (["sweep", "--degrees", "30"], ["--box-tol", "0.001"]),
        # the adaptive degree is the default, chosen by leaving out --degree
        (["roots"], ["--adaptive"]),
        (["interp"], ["--adaptive"]),
    ], ids=["interp-residual-tol", "interp-no-polish", "sweep-allow-nonconverged",
            "roots-imag-tol", "roots-box-tol", "sweep-imag-tol", "sweep-box-tol",
            "roots-adaptive", "interp-adaptive"])
    def test_flag_the_subcommand_ignored_is_a_usage_error(self, capsys, command, flag):
        argv = command + ["--function", "cos(x)", "--interval", "-10", "10"]
        assert run_cli(argv) == 0
        capsys.readouterr()
        assert run_cli(argv + flag) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ") and flag[0] in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags, changed", [
        ([], {}),
        (["--residual-tol", "1e-10"], {"residual_tol": 1e-10}),
        (["--no-polish"], {"polish": False}),
        (["--residual-tol", "1e-10", "--no-polish"], {"residual_tol": 1e-10, "polish": False}),
    ], ids=["defaults", "residual-tol", "no-polish", "all"])
    @pytest.mark.parametrize("command", ["roots", "sweep"])
    def test_flag_reaches_its_config_field(self, capsys, command, flags, changed):
        degree = ["--degree", "30"] if command == "roots" else ["--degrees", "30"]
        code, doc = run_json(capsys, [command, "--function", "cos(x)", "--interval", "-10", "10"]
                             + degree + flags)
        assert code == 0
        config = doc["config"] if command == "roots" else doc["sweeps"][0]["config"]
        assert config == dict(config_to_dict(RootConfig(degree=30)), **changed)

    @pytest.mark.parametrize("flags, polish", [([], True), (["--no-polish"], False)])
    def test_bench_no_polish_reaches_its_config_field(self, capsys, monkeypatch, flags, polish):
        configs = []
        monkeypatch.setattr("chebroots.cli.run_bench",
                            lambda corpus, config: configs.append(config) or run_bench(corpus[:0]))
        assert run_cli(["bench", "--format", "text"] + flags) == 0
        assert configs == [RootConfig(polish=polish)]


class TestSerializationRoundtrip:
    def test_json_roundtrip_is_equal(self):
        config = RootConfig(degree=30)
        report = find_roots(math.cos, Interval(-10, 10), config)
        config_back, report_back = report_from_json(report_to_json(report))
        assert config_back == config
        assert report_back == report

    def test_adaptive_report_roundtrip(self):
        config = RootConfig()
        report = find_roots(lambda x: x * x - 2, Interval(0, 3), config)
        config_back, report_back = report_from_json(report_to_json(report))
        assert report_back == report
        assert config_back.degree is None

    @pytest.mark.parametrize("tol", [np.float32(1e-9), Fraction(1, 10**9), np.float64(1e-9)],
                             ids=["float32", "fraction", "float64"])
    def test_real_residual_tol_roundtrip(self, tol):
        # any real tolerance is held as a float, so the document has a JSON number
        config = RootConfig(degree=30, residual_tol=tol)
        assert type(config.residual_tol) is float and config.residual_tol == float(tol)
        report = find_roots(math.cos, Interval(-10, 10), config)
        config_back, report_back = report_from_json(report_to_json(report))
        assert config_back == config
        assert report_back == report

    def test_csv_and_json_payloads_match(self):
        config = RootConfig(degree=25)
        report = find_roots(math.cos, Interval(-10, 10), config)
        doc = report_to_dict(report)
        rows = list(csv.DictReader(io.StringIO(report_to_csv(report))))
        assert len(rows) == len(doc["candidates"])
        for row, cand in zip(rows, doc["candidates"]):
            assert float(row["re"]) == cand["re"]
            assert float(row["im"]) == cand["im"]
            assert (row["accepted"] == "true") == cand["accepted"]
            assert row["reason"] == cand["reason"]
            if cand["residual"] is None:
                assert row["residual"] == ""
            else:
                assert float(row["residual"]) == cand["residual"]
            if cand["mapped"] is None:
                assert row["mapped"] == ""
            else:
                assert float(row["mapped"]) == cand["mapped"]
            assert int(row["polish_iterations"]) == cand["polish_iterations"]

    def test_config_keys(self):
        config = RootConfig(degree=30)
        doc = report_to_dict(find_roots(math.cos, Interval(-10, 10), config))
        assert list(doc["config"]) == ["degree", "polish", "residual_tol"]

    def test_version_1_document_is_refused(self):
        config = RootConfig(degree=30)
        doc = report_to_dict(find_roots(math.cos, Interval(-10, 10), config))
        doc["version"] = 1
        doc["config"].update(chop_tol=1e-13, adaptive_tol=1e-12)
        with pytest.raises(ValueError, match="unsupported report version 1"):
            report_from_dict(doc)

    def test_version_2_document_is_refused(self):
        config = RootConfig(degree=30)
        doc = report_to_dict(find_roots(math.cos, Interval(-10, 10), config))
        doc["version"] = 2
        doc["config"].update(polish_max_iter=12, dedupe_tol=1e-9)
        with pytest.raises(ValueError, match="unsupported report version 2"):
            report_from_dict(doc)

    def test_version_3_document_is_refused(self):
        config = RootConfig(degree=30)
        doc = report_to_dict(find_roots(math.cos, Interval(-10, 10), config))
        doc["version"] = 3
        doc["config"].update(imag_tol=1e-8, box_tol=1e-6)
        with pytest.raises(ValueError, match="unsupported report version 3"):
            report_from_dict(doc)

    def test_version_4_document_is_refused(self):
        config = RootConfig(degree=30)
        doc = report_to_dict(find_roots(math.cos, Interval(-10, 10), config))
        doc["version"] = 4
        doc["config"].update(max_adaptive_degree=128)
        with pytest.raises(ValueError, match="unsupported report version 4"):
            report_from_dict(doc)

    def test_version_5_document_is_refused(self):
        config = RootConfig(degree=30)
        doc = report_to_dict(find_roots(math.cos, Interval(-10, 10), config))
        doc["version"] = 5
        doc["decay"] = [{"j": j, "abs_coeff": m} for j, m in enumerate(doc["decay"])]
        doc["decay_slope"] = "exact"
        with pytest.raises(ValueError, match="unsupported report version 5"):
            report_from_dict(doc)

    CONFIG = {"degree": 30, "polish": True, "residual_tol": None}

    @pytest.mark.parametrize("section", [
        dict(CONFIG, imag_tol=1e-8),
        {name: value for name, value in CONFIG.items() if name != "polish"},
        dict(CONFIG, max_adaptive_degree=128),
        dict(CONFIG, degree=True),
        dict(CONFIG, residual_tol="1e-9"),
        dict(CONFIG, residual_tol=True),
        dict(CONFIG, polish=1),
        dict(CONFIG, polish="yes"),
        [],
    ], ids=["unknown-key", "missing-polish", "stale-cap", "bool-degree", "string-tol", "bool-tol",
            "int-polish", "string-polish", "not-an-object"])
    def test_bad_config_section_is_a_value_error(self, section):
        config = RootConfig(degree=30)
        doc = report_to_dict(find_roots(math.cos, Interval(-10, 10), config))
        assert report_from_dict(dict(doc, config=self.CONFIG))[0] == config
        with pytest.raises(ValueError, match="^(config must have exactly the keys|[a-z_]+ must be)"):
            report_from_dict(dict(doc, config=section))

    @staticmethod
    def first_candidate(doc, **changes):
        doc["candidates"][0].update(changes)
        return doc

    @staticmethod
    def adaptive_cut(nodes):
        """The adaptive cos(x) document on [-10, 10] (48 nodes), cut to its first ``nodes`` magnitudes."""
        doc = report_to_dict(find_roots(math.cos, Interval(-10, 10)))
        assert doc["degree_used"] == 48 and report_from_dict(doc)[1].degree_used == 48
        return dict(doc, degree_used=nodes, decay=doc["decay"][:nodes])

    @staticmethod
    def root_as_bool(f, interval, value):
        """The document of ``f``'s one root ``float(value)`` on ``interval``, that root written as ``value``."""
        doc = report_to_dict(find_roots(f, interval))
        assert doc["roots"] == [float(value)] and report_from_dict(doc)[1].roots == (float(value),)
        return dict(doc, roots=[value])

    @staticmethod
    def first_root_at(doc, x):
        """``doc`` with its first accepted candidate moved to ``x`` and its roots to match."""
        next(c for c in doc["candidates"] if c["accepted"])["mapped"] = x
        doc["roots"] = sorted(c["mapped"] for c in doc["candidates"] if c["accepted"])
        return doc

    @pytest.mark.parametrize("edit", [
        lambda doc: [],
        lambda doc: dict(doc, candidates=[{}]),
        lambda doc: {key: value for key, value in doc.items() if key != "decay"},
        lambda doc: dict(doc, trace=None),
        lambda doc: dict(doc, degree_used="x"),
        lambda doc: dict(doc, degree_used=True),
        lambda doc: dict(doc, function_evaluations=-5),
        lambda doc: dict(doc, proxy_converged="yes"),
        lambda doc: dict(doc, candidates={}),
        lambda doc: dict(doc, decay_slope="exact"),
        lambda doc: dict(doc, version=6.0),
        lambda doc: dict(doc, version="6"),
        lambda doc: TestSerializationRoundtrip.first_candidate(doc, residual="big"),
        lambda doc: TestSerializationRoundtrip.first_candidate(doc, residual=-1.0),
        lambda doc: TestSerializationRoundtrip.first_candidate(doc, polish_iterations=1.5),
        lambda doc: TestSerializationRoundtrip.first_candidate(doc, re=None),
        lambda doc: dict(doc, decay=[{"j": j, "abs_coeff": m} for j, m in enumerate(doc["decay"])]),
        lambda doc: dict(doc, decay=["1"] + doc["decay"][1:]),
        lambda doc: dict(doc, decay=[-1.0] + doc["decay"][1:]),
        lambda doc: dict(doc, decay={"0": doc["decay"][0]}),
        # a node count, a degree or ladder rung and convergence that contradict each other
        lambda doc: dict(doc, decay=doc["decay"][:20]),
        lambda doc: dict(doc, degree_used=16, decay=doc["decay"][:16]),
        lambda doc: dict(doc, config=dict(doc["config"], degree=64)),
        lambda doc: dict(doc, proxy_converged=False),
        lambda doc: TestSerializationRoundtrip.adaptive_cut(20),
        lambda doc: dict(TestSerializationRoundtrip.adaptive_cut(48), proxy_converged=False),
        # every run evaluates f at each node of its final rung
        lambda doc: dict(TestSerializationRoundtrip.adaptive_cut(48), function_evaluations=0),
        # json reads true and false as bools, which Python compares equal to 1.0 and 0.0
        lambda doc: TestSerializationRoundtrip.root_as_bool(lambda x: x - 1, (0, 2), True),
        lambda doc: TestSerializationRoundtrip.root_as_bool(lambda x: x, (-1, 1), False),
        # numbers the writer never emits: json reads NaN, Infinity and integers past the float range
        lambda doc: TestSerializationRoundtrip.first_candidate(doc, re=math.nan),
        lambda doc: TestSerializationRoundtrip.first_candidate(doc, re=-math.inf),
        lambda doc: TestSerializationRoundtrip.first_candidate(doc, re=10**400),
        lambda doc: TestSerializationRoundtrip.first_candidate(doc, residual=math.inf),
        lambda doc: TestSerializationRoundtrip.first_root_at(doc, math.inf),
        lambda doc: dict(doc, decay=[math.inf] * len(doc["decay"])),
        lambda doc: dict(doc, decay=[math.nan] + doc["decay"][1:]),
    ], ids=["not-an-object", "empty-candidate", "no-decay", "unknown-key", "string-degree", "bool-degree",
            "negative-evaluations", "string-converged", "candidates-object", "version-5-slope",
            "float-version", "string-version",
            "string-residual", "negative-residual", "float-iterations", "null-re", "version-5-decay",
            "string-magnitude", "negative-magnitude", "decay-object", "degree-used-past-decay",
            "decay-truncated", "config-degree-not-degree-used", "fixed-degree-not-converged",
            "adaptive-degree-not-a-rung", "adaptive-not-converged-below-last-rung", "evaluations-below-nodes",
            "true-root", "false-root",
            "nan-re", "infinite-re",
            "huge-int-re", "infinite-residual", "infinite-mapped", "infinite-magnitude", "nan-magnitude"])
    def test_malformed_document_is_a_value_error(self, edit):
        config = RootConfig(degree=30)
        doc = report_to_dict(find_roots(math.cos, Interval(-10, 10), config))
        assert report_from_json(json.dumps(doc)) == report_from_dict(doc)
        with pytest.raises(ValueError):
            report_from_json(json.dumps(edit(doc)))

    @pytest.mark.parametrize("f, interval, config", [
        (math.cos, Interval(-10, 10), RootConfig(degree=30)),
        (math.exp, Interval(-10, 10), RootConfig(degree=20)),  # no roots
        (lambda x: math.sin(4.6 * x + 0.1), Interval(-10, 10), RootConfig()),  # duplicates across leaves
        (lambda x: (x - 0.3) ** 4, Interval(-1, 1), RootConfig(residual_tol=1e-12)),  # touching merge
        (math.cos, Interval(-10, 10), RootConfig(degree=30, polish=False)),
        (lambda x: eval_expr(NAN_AT_ROOT, x), Interval(-1, 1), RootConfig(degree=8, polish=False)),
        (lambda x: math.sin(20 * x), Interval(-10, 10), RootConfig()),  # unresolved at the last rung
    ], ids=["cosine", "no-roots", "leaves", "touching", "unpolished", "nan-at-root", "not-converged"])
    def test_every_written_document_reads_back(self, f, interval, config):
        report = find_roots(f, interval, config)
        assert report_from_json(report_to_json(report)) == (config, report)

    @pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
    def test_workload_reports_read_back(self, workload):
        for case in workloads.generate(workload, 1):
            expr, config = parse(case.text), RootConfig(degree=case.degree)
            report = find_roots(lambda x: eval_expr(expr, x), (case.a, case.b), config)
            assert report.config == config, case.name
            assert report_from_json(report_to_json(report)) == (config, report), case.name

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["roots"].pop(),
        lambda doc: doc["roots"].append(0.5),
        lambda doc: doc["roots"].__setitem__(0, doc["roots"][0] + 1e-9),
        lambda doc: doc["roots"].reverse(),
    ], ids=["dropped", "added", "moved", "unsorted"])
    def test_edited_roots_are_refused(self, edit):
        config = RootConfig(degree=30)
        doc = report_to_dict(find_roots(math.cos, Interval(-10, 10), config))
        edit(doc)
        with pytest.raises(ValueError, match="roots"):
            report_from_dict(doc)

    @pytest.mark.parametrize("accepted", [True, False])
    @pytest.mark.parametrize("key", ["accepted", "mapped"])
    def test_candidate_contradicting_its_reason_is_refused(self, key, accepted):
        # only an accepted candidate has a mapped location
        config = RootConfig(degree=30)
        doc = report_to_dict(find_roots(math.cos, Interval(-10, 10), config))
        cand = next(c for c in doc["candidates"] if c["accepted"] is accepted)
        cand[key] = (not accepted) if key == "accepted" else (None if accepted else 0.5)
        with pytest.raises(ValueError, match="contradicts its reason"):
            report_from_dict(doc)

    def test_csv_is_rfc4180(self):
        config = RootConfig(degree=20)
        report = find_roots(math.exp, Interval(-10, 10), config)
        text = report_to_csv(report)
        assert "\r\n" in text
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0][0] == "re"
        assert all(len(row) == len(parsed[0]) for row in parsed)


class TestRootsCommand:
    def test_cosine_json_report(self, capsys):
        code, doc = run_json(capsys, [
            "roots", "--function", "cos(x)", "--interval", "-10", "10", "--degree", "30",
        ])
        assert code == 0
        assert doc["version"] == 6
        assert len(doc["roots"]) == 6
        assert doc["config"]["degree"] == 30
        truth = sorted(s * k * math.pi / 2 for k in (1, 3, 5) for s in (1, -1))
        assert np.allclose(doc["roots"], truth, atol=1e-10, rtol=0)

    def test_exponential_has_no_roots(self, capsys):
        code, doc = run_json(capsys, [
            "roots", "--function", "exp(x)", "--interval", "-10", "10", "--degree", "30",
        ])
        assert code == 0
        assert doc["roots"] == []
        assert doc["candidates"]

    def test_csv_format(self, capsys):
        code = run_cli([
            "roots", "--function", "cos(x)", "--interval", "-10", "10",
            "--degree", "30", "--format", "csv",
        ])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][:2] == ["re", "im"]
        assert len(rows) > 10

    def test_text_format_lists_the_json_roots(self, capsys):
        argv = ["roots", "--function", "cos(x)", "--interval", "-10", "10", "--degree", "30"]
        _, doc = run_json(capsys, argv)
        assert run_cli(argv + ["--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "degree used: 30"
        assert lines[1] == f"function evaluations: {doc['function_evaluations']}"
        start = lines.index("roots (6):") + 1
        assert [float(line) for line in lines[start:start + 6]] == doc["roots"]
        assert lines[-1] == "residual test: automatic"
        assert run_cli(argv + ["--format", "text", "--residual-tol", "1e-10"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "residual test: |f(x)| <= 1e-10"
        # unpolished, only an explicit residual_tol vets the candidates
        assert run_cli(argv + ["--format", "text", "--no-polish"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == \
            "residual test: none (unpolished, so the roots are unvetted proxy roots)"
        assert run_cli(argv + ["--format", "text", "--no-polish", "--residual-tol", "1e-10"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "residual test: |f(x)| <= 1e-10"

    def test_only_the_chosen_format_is_rendered(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("json rendered for --format csv")

        monkeypatch.setattr("chebroots.cli.report_to_json", fail)
        assert run_cli(["roots", "--function", "cos(x)", "--interval", "-10", "10",
                        "--degree", "30", "--format", "csv"]) == 0

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = run_cli([
            "roots", "--function", "cos(x)", "--interval", "-10", "10",
            "--degree", "30", "--output", str(target),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert len(doc["roots"]) == 6

    @pytest.mark.parametrize("name, extra, kind", [
        ("r.csv", [], "csv"),
        ("r.json", [], "json"),
        ("r.out", [], "json"),
        ("r.csv", ["--format", "json"], "json"),
        ("r.json", ["--format", "csv"], "csv"),
    ], ids=["csv-suffix", "json-suffix", "other-suffix", "format-beats-csv", "format-beats-json"])
    def test_output_suffix_picks_the_format(self, tmp_path, name, extra, kind):
        target = tmp_path / name
        assert run_cli(["roots", "--function", "cos(x)", "--interval", "-10", "10",
                        "--degree", "30", "--output", str(target)] + extra) == 0
        text = target.read_text()
        if kind == "json":
            assert len(json.loads(text)["roots"]) == 6
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
            assert sum(row["accepted"] == "true" for row in rows) == 6

    def test_abs_function_polishes_with_its_exact_derivative(self, capsys):
        code, doc = run_json(capsys, [
            "roots", "--function", "abs(x)-1", "--interval", "-2", "2", "--degree", "40",
        ])
        assert code == 0
        assert np.allclose(doc["roots"], [-1.0, 1.0], atol=1e-9, rtol=0)

    def test_abs_of_a_cosine_keeps_every_root(self, capsys):
        # |cos(5x)| = 0.3 where 5x is +-acos(0.3) or +-acos(-0.3) plus a
        # multiple of 2 pi.  The proxy does not converge at the cap, so its
        # own derivative would mislead Newton; the exact one polishes all 20
        code, doc = run_json(capsys, [
            "roots", "--function", "abs(cos(5*x))-0.3", "--interval", "-3", "3", "--allow-nonconverged",
        ])
        assert code == 0
        angles = [sign * base + 2.0 * math.pi * k for base in (math.acos(0.3), math.acos(-0.3))
                  for sign in (1, -1) for k in range(-3, 4)]
        oracle = sorted(t / 5.0 for t in angles if abs(t) < 15.0)
        assert len(oracle) == 20
        assert doc["roots"] == pytest.approx(oracle, rel=0, abs=1e-12)

    @pytest.mark.parametrize("residual_tol", [[], ["--residual-tol", "1e-12"]], ids=["automatic", "explicit"])
    def test_nan_at_the_proxy_root_is_no_root(self, capsys, residual_tol):
        code = run_cli(["roots", "--function", NAN_AT_ROOT_TEXT, "--interval", "-1", "1", "--degree", "8",
                        "--no-polish", "--format", "json"] + residual_tol)
        assert code == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["roots"] == []
        assert [(c["reason"], c["residual"]) for c in doc["candidates"] if c["reason"] != "imag_too_large"] \
            == [("residual_too_large", None)]

    @pytest.mark.parametrize("function, interval, roots", [
        ("1e308*(x-0.5)", ["0", "1"], [0.5]),
        ("x-1.5e308", ["1e308", "1.7e308"], [1.5e308]),
        ("(x-0.5)/1e200", ["0", "1"], [0.5]),
        ("sin(x)/1e155", ["-1", "1"], [0.0]),
        ("x", ["0", "1e-308"], [0.0]),
        ("x", ["-5e-309", "5e-309"], [0.0]),
    ])
    def test_extreme_magnitudes(self, capsys, function, interval, roots):
        # samples near the largest float, endpoints whose sum overflows, a
        # quotient whose denominator squared leaves the float range, and
        # intervals so narrow that 2/width overflows
        code, doc = run_json(capsys, ["roots", "--function", function, "--interval", *interval])
        assert code == 0
        assert doc["roots"] == pytest.approx(roots, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("function, interval, degree, roots, degree_used, evaluations_below", [
        # 168 coefficients after the chop, so the eigenvalues come from leaves
        ("sin(30*x)", ["-4", "4"], ["--degree", "256"], [j * math.pi / 30 for j in range(-38, 39)], 256, None),
        # sin(26*x) resolves at 64 nodes; the 48-node tail of sin(30*x) rules
        # 64 out, so it goes from 48 straight to 128 nodes and spends fewer
        # evaluations than the 240 samples of the rungs 16, 48, 64 and 128
        ("sin(26*x)", ["-1", "1"], [], [j * math.pi / 26 for j in range(-8, 9)], 64, None),
        ("sin(30*x)", ["-1", "1"], [], [j * math.pi / 30 for j in range(-9, 10)], 128, 240),
        # the Gaussian's samples never change sign, and the two roots 1e-7
        # apart share one gap of the samples, so x - h and x + h decide both
        ("exp(-50*x^2)", ["-1", "1"], [], [], None, None),
        ("(x-0.3)*(x-0.3-1e-7)", ["-1", "1"], [], [0.3, 0.3 + 1e-7], None, None),
    ], ids=["split-proxy", "rung-64", "rung-64-skipped", "gaussian", "pair-1e-7-apart"])
    def test_polish_with_the_exact_derivative(self, capsys, function, interval, degree, roots, degree_used,
                                              evaluations_below):
        code, doc = run_json(capsys, ["roots", "--function", function, "--interval", *interval, *degree])
        assert code == 0
        assert doc["roots"] == pytest.approx(roots, rel=0, abs=1e-12)
        if degree_used is not None:
            assert doc["degree_used"] == degree_used
        if evaluations_below is not None:
            assert doc["function_evaluations"] < evaluations_below

    def test_no_polish_flag(self, capsys):
        code, doc = run_json(capsys, [
            "roots", "--function", "cos(x)", "--interval", "-10", "10",
            "--degree", "30", "--no-polish",
        ])
        assert code == 0
        assert doc["config"]["polish"] is False
        assert all(c["polish_iterations"] == 0 for c in doc["candidates"])

    @pytest.mark.parametrize("command, module", [
        (["roots", "--degree", "30", "--function", "cos(x)", "--interval", "-10", "10"], chebroots.cli),
        (["sweep", "--degrees", "13,30", "--function", "cos(x)", "--interval", "-10", "10"], chebroots.cli),
        (["bench", "--format", "csv"], chebroots.bench),
    ], ids=["roots", "sweep", "bench"])
    def test_no_polish_skips_the_derivative(self, capsys, monkeypatch, command, module):
        # only the polish reads df, so a run without it never differentiates
        def without_wall_time(out):
            """The output, a bench CSV's rows without their last cell, wall_time_s, which varies from run to run."""
            rows = list(csv.reader(io.StringIO(out)))
            return [row[:-1] for row in rows] if rows[0][-1] == "wall_time_s" else out

        argv = command + ["--no-polish"]
        assert run_cli(argv) == 0
        expected = without_wall_time(capsys.readouterr().out)

        def refuse(expr):
            raise AssertionError("differentiate_expr called")
        monkeypatch.setattr(module, "differentiate_expr", refuse)
        assert run_cli(argv) == 0
        assert without_wall_time(capsys.readouterr().out) == expected
        with pytest.raises(AssertionError, match="differentiate_expr called"):
            run_cli(command)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(["roots", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flags(self, capsys):
        assert run_cli(["roots", "--function", "cos(x)"]) == 1

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_residual_tol_exits_1_with_no_output(self, capsys, value):
        # "Infinity" would be no JSON number, and an infinite tolerance accepts any residual
        code = run_cli(["roots", "--function", "x-0.5", "--interval", "0", "1", "--residual-tol", value])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: residual_tol must be positive and finite")

    def test_bad_function_text(self, capsys):
        code = run_cli(["roots", "--function", "cos(y)", "--interval", "0", "1"])
        assert code == 1
        assert "unknown identifier" in capsys.readouterr().err

    @pytest.mark.parametrize("function, interval, roots", [
        ("(" * 3000 + "x" + ")" * 3000, ["0", "1"], [0.0]),
        ("(" * 5000 + "x-0.5" + ")" * 5000, ["0", "1"], [pytest.approx(0.5, rel=0, abs=1e-12)]),
        # "/" reads each operand twice, so each denominator gets a name of
        # its own instead of being copied into its quotient's text
        ("x/(3+" * 2000 + "x" + ")" * 2000, ["-1", "1"], [0.0]),
    ], ids=["3000-parentheses", "5000-parentheses", "2000-quotients"])
    def test_deeply_nested_function_solves(self, capsys, function, interval, roots):
        # the parser keeps its own stack, so nesting depth is no limit
        code, doc = run_json(capsys, ["roots", "--function", function, "--interval", *interval])
        assert code == 0
        assert doc["roots"] == roots

    @pytest.mark.parametrize("function, roots", [
        # an even run of signs: the function is x
        ("-" * 3000 + "x", [0.0]),
        ("-" * 5001 + "(x-0.5)", [pytest.approx(0.5, rel=0, abs=1e-12)]),
    ], ids=["3000-signs", "5001-signs"])
    def test_many_minus_signs_solve(self, capsys, function, roots):
        # a text that starts with "-" is passed as --function=TEXT, or it would read as a flag
        code, doc = run_json(capsys, ["roots", "--function=" + function, "--interval", "0", "1"])
        assert code == 0
        assert doc["roots"] == roots

    def test_deep_sum_solves(self, capsys):
        # the sum parses in a loop into a 3000-deep tree, which is differentiated,
        # compiled and evaluated without recursion
        code, doc = run_json(capsys, ["roots", "--function", "+".join(["x"] * 3000) + "-1500",
                                      "--interval", "-1", "2"])
        assert code == 0
        assert len(doc["roots"]) == 1 and abs(doc["roots"][0] - 0.5) <= 1e-12

    @pytest.mark.parametrize("argv", [["roots", "--degree", "100000000"], ["sweep", "--degrees", "16,100000000"]],
                             ids=["roots", "sweep"])
    def test_node_count_above_the_bound_exits_before_any_solve(self, capsys, monkeypatch, argv):
        def solve(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr("chebroots.cli.find_roots", solve)
        code = run_cli(argv + ["--function", "x-0.5", "--interval", "0", "1"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: degree must be at most 4096, got 100000000\n"

    def test_usage_error_leaves_the_next_call_working(self, capsys):
        assert _build_parser() is _build_parser()  # built once per process
        assert run_cli(["roots", "--function", "x-0.5", "--interval", "0"]) == 1
        assert "usage error" in capsys.readouterr().err
        code, doc = run_json(capsys, ["roots", "--function", "x-0.5", "--interval", "0", "1"])
        assert code == 0
        assert doc["roots"] == [pytest.approx(0.5, abs=1e-15)]

    @pytest.mark.parametrize("bound", ["-1e-3", "-1E+5"])
    @pytest.mark.parametrize("joined", [False, True], ids=["space", "equals"])
    @pytest.mark.parametrize("command, extra", [
        ("roots", []), ("sweep", ["--degrees", "16"]), ("interp", ["--degree", "16"]),
    ])
    def test_negative_bound_with_an_exponent(self, capsys, command, extra, joined, bound):
        interval = [f"--interval={bound}", "1"] if joined else ["--interval", bound, "1"]
        code, doc = run_json(capsys, [command, "--function", "x-0.5"] + interval + extra)
        assert code == 0
        if command == "roots":
            assert doc["roots"] == [pytest.approx(0.5, abs=1e-12)]
        else:
            assert doc["interval"] == [float(bound), 1.0]

    def test_bad_interval(self, capsys):
        code = run_cli(["roots", "--function", "cos(x)", "--interval", "5", "1"])
        assert code == 1

    @pytest.mark.parametrize("command, extra", [
        ("roots", []), ("sweep", ["--degrees", "16"]), ("interp", ["--degree", "16"]),
    ])
    def test_interval_too_narrow_to_halve_exits_1_with_a_message(self, capsys, command, extra):
        code = run_cli([command, "--function", "x", "--interval", "0", "5e-324"] + extra)
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: interval is too narrow to halve")

    def test_nonconverged_proxy_exits_2(self, capsys):
        argv = ["roots", "--function", "abs(x)", "--interval", "-1", "1"]
        assert run_cli(argv) == 2
        capsys.readouterr()
        assert run_cli(argv + ["--allow-nonconverged"]) == 0

    def test_nonconverged_interp_exits_2(self, capsys):
        argv = ["interp", "--function", "abs(x)", "--interval", "-1", "1"]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert "did not converge" in captured.err
        assert json.loads(captured.out)["proxy_converged"] is False  # still written
        assert run_cli(argv + ["--allow-nonconverged"]) == 0

    @pytest.mark.parametrize("argv, target", [
        (["roots", "--function", "cos(x)", "--interval", "-10", "10", "--degree", "30"], "r.json"),
        (["bench"], "r.json"),
        (["bench"], "bench"),  # no suffix: writes bench.json and bench.csv
    ], ids=["roots", "bench-json", "bench-stem"])
    def test_unwritable_output_is_an_error(self, tmp_path, capsys, argv, target):
        assert run_cli(argv + ["--output", str(tmp_path / "missing" / target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing" in err

    def test_non_finite_sample_is_numerical_failure(self, capsys):
        code = run_cli(["roots", "--function", "log(x)", "--interval", "-1", "1",
                        "--degree", "8"])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_eigenvalue_failure_is_numerical_failure(self, capsys, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        code = run_cli(["roots", "--function", "cos(x)", "--interval", "-10", "10"])
        assert code == 2
        assert "did not converge" in capsys.readouterr().err


class TestSweepCommand:
    ARGV = [
        "sweep", "--function", "cos(x)", "--interval", "-10", "10",
        "--degrees", "13,20,30",
    ]

    def test_json_structure_and_convergence_trend(self, capsys):
        code, doc = run_json(capsys, self.ARGV)
        assert code == 0
        assert [run["config"]["degree"] for run in doc["sweeps"]] == [13, 20, 30]
        truth = sorted(s * k * math.pi / 2 for k in (1, 3, 5) for s in (1, -1))
        errors = []
        for run in doc["sweeps"]:
            assert run["roots"]
            errors.append(max(min(abs(r - t) for t in truth) for r in run["roots"]))
        assert errors[0] >= errors[1] >= errors[2]

    def test_csv_rows_match_json_candidates(self, capsys):
        code, doc = run_json(capsys, self.ARGV)
        assert code == 0
        code = run_cli(self.ARGV + ["--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        flattened = [
            (run["config"]["degree"], cand)
            for run in doc["sweeps"]
            for cand in run["candidates"]
        ]
        assert len(rows) == len(flattened)
        for row, (degree, cand) in zip(rows, flattened):
            assert int(row["degree"]) == degree
            assert float(row["re"]) == cand["re"]
            assert float(row["im"]) == cand["im"]
            assert row["reason"] == cand["reason"]

    def test_text_format_one_line_per_degree(self, capsys):
        _, doc = run_json(capsys, self.ARGV)
        assert run_cli(self.ARGV + ["--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(doc["sweeps"])
        for line, run in zip(lines, doc["sweeps"]):
            assert line.startswith(f"N={run['config']['degree']}: {len(run['candidates'])} candidates, "
                                   f"{len(run['roots'])} roots [")
            roots = line[line.index("[") + 1:-1]
            assert [float(r) for r in roots.split(", ")] == run["roots"]

    @pytest.mark.parametrize("extra", [[], ["--no-polish"], ["--residual-tol", "1e-9"]],
                             ids=["polished", "unpolished", "explicit-tol"])
    def test_every_entry_is_the_report_of_its_degree(self, capsys, extra):
        # each entry is a whole report document, with its degree once, in its config
        code, doc = run_json(capsys, self.ARGV + extra)
        assert code == 0
        expr = parse("cos(x)")
        dexpr = differentiate_expr(expr)
        df = None if "--no-polish" in extra else (lambda x: eval_expr(dexpr, x))
        tol = float(extra[-1]) if "--residual-tol" in extra else None
        for run, degree in zip(doc["sweeps"], [13, 20, 30], strict=True):
            assert "degree" not in run
            config = RootConfig(degree=degree, polish=df is not None, residual_tol=tol)
            report = find_roots(lambda x: eval_expr(expr, x), Interval(-10, 10), config, df=df)
            assert report_from_dict(run) == (config, report)
            assert run == report_to_dict(report)

    def test_non_finite_sample_is_numerical_failure(self, capsys):
        code = run_cli(["sweep", "--function", "log(x)", "--interval", "-1", "1",
                        "--degrees", "8"])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_candidate_counts_grow_with_degree(self, capsys):
        code, doc = run_json(capsys, self.ARGV)
        counts = [len(run["candidates"]) for run in doc["sweeps"]]
        assert counts[0] < counts[1] < counts[2]

    @pytest.mark.parametrize("degrees, message", [
        ("8,x", "usage error: argument --degrees: bad --degrees list: "
                "invalid literal for int() with base 10: 'x'\n"),
        (",", "usage error: argument --degrees: needs at least one value\n"),
    ], ids=["not-an-integer", "empty"])
    def test_bad_degrees_list_is_usage_error(self, capsys, degrees, message):
        assert run_cli(self.ARGV[:-1] + [degrees]) == 1
        assert capsys.readouterr().err == message


class TestInterpCommand:
    def test_grid_size_and_proxy_accuracy(self, capsys):
        code, doc = run_json(capsys, [
            "interp", "--function", "cos(x)", "--interval", "-10", "10", "--degree", "30",
        ])
        assert code == 0
        assert len(doc["grid"]) == 1001
        worst = max(abs(p["f"] - p["proxy"]) for p in doc["grid"])
        assert worst <= 1e-9

    def test_low_degree_proxy_shows_boundary_error(self, capsys):
        code, doc = run_json(capsys, [
            "interp", "--function", "exp(-0.5*x^2)*(12-48*x^2+16*x^4)",
            "--interval", "-10", "10", "--degree", "30",
        ])
        assert code == 0
        worst = max(abs(p["f"] - p["proxy"]) for p in doc["grid"])
        assert worst > 1e-6  # visible truncation wiggles at this degree

    def test_csv_matches_json(self, capsys):
        argv = ["interp", "--function", "cos(x)", "--interval", "0", "1", "--degree", "8"]
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert run_cli(argv + ["--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == len(doc["grid"])
        for row, point in zip(rows, doc["grid"]):
            assert float(row["x"]) == point["x"]
            assert float(row["f"]) == point["f"]
            assert float(row["proxy"]) == point["proxy"]

    def test_text_format_reports_the_json_max_error(self, capsys):
        argv = ["interp", "--function", "cos(x)", "--interval", "-10", "10", "--degree", "12"]
        _, doc = run_json(capsys, argv)
        assert run_cli(argv + ["--format", "text"]) == 0
        worst = max(abs(p["f"] - p["proxy"]) for p in doc["grid"])
        assert capsys.readouterr().out == (
            f"degree used: 12\nmax |f - proxy| on 1001 uniform points: {worst!r}\n")

    def test_grid_ends_at_b_exactly(self, capsys):
        # a + 1000*(b - a)/1000 rounds past b = 0.1 here, where sqrt(0.1 - x) is NaN
        argv = ["interp", "--function", "sqrt(0.1-x)", "--interval", "-0.2", "0.1", "--degree", "64"]
        assert run_cli(argv) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert doc["grid"][-1]["x"] == 0.1 and doc["grid"][-1]["f"] == 0.0
        assert run_cli(argv + ["--format", "text"]) == 0
        worst = max(abs(p["f"] - p["proxy"]) for p in doc["grid"])
        assert capsys.readouterr().out.endswith(f"points: {worst!r}\n")
        # every other point is a + i*(b - a)/1000, as before
        rng = np.random.default_rng(17)
        for a, b in np.sort(rng.uniform(-100, 100, size=(200, 2)) * 10.0 ** rng.integers(-3, 3, size=(200, 1))):
            series = ChebyshevSeries(Interval(a, b), (1.0,))
            xs = [x for x, _, _ in bench.proxy_grid(lambda x: x, series)]
            assert xs[:-1] == [a + i * ((b - a) / 1000) for i in range(1000)] and xs[-1] == b

    def test_proxy_grid_is_python_floats_from_one_array_evaluate(self, monkeypatch):
        series = transform([math.cos(from_standard(Interval(0, 1), float(t))) for t in standard_nodes(9)],
                           Interval(0, 1))
        calls = []
        monkeypatch.setattr(bench, "evaluate", lambda s, x: calls.append(x) or evaluate(s, x))
        grid = bench.proxy_grid(math.cos, series)
        assert len(calls) == 1 and len(grid) == GRID_POINTS
        assert all(type(v) is float for point in grid for v in point)
        assert grid[-1][0] == 1.0 and grid[-1][1] == math.cos(1.0)
        assert [p for _, _, p in grid] == [evaluate(series, x) for x, _, _ in grid]

    def test_no_derivative_is_built(self, capsys, monkeypatch):
        def fail(expr):
            raise AssertionError("interp built a derivative")

        monkeypatch.setattr("chebroots.cli.differentiate_expr", fail)
        assert run_cli(["interp", "--function", "cos(x)", "--interval", "-10", "10",
                        "--degree", "12"]) == 0
        with pytest.raises(AssertionError, match="interp built a derivative"):
            run_cli(["roots", "--function", "cos(x)", "--interval", "-10", "10", "--degree", "12"])

    @pytest.mark.parametrize("function", ["log(x)", "log(1-x)"])
    def test_non_finite_f_gives_a_nan_max_error(self, capsys, function):
        # x = 0 is a grid point but no sample node, so the proxy builds
        argv = ["interp", "--function", function, "--interval", "0", "1", "--degree", "16"]
        assert run_cli(argv + ["--format", "text"]) == 0
        assert capsys.readouterr().out == (
            "degree used: 16\nmax |f - proxy| on 1001 uniform points: nan\n")

    # log(x) between 150 cosines on each side lands in a middle chunk of the
    # compiled code, which raises at x = 0 and reruns guarded
    MIDDLE_LOG = "+".join([f"cos({k}*x)" for k in range(1, 151)] + ["log(x)"]
                          + [f"cos({k}*x)" for k in range(151, 301)])

    @pytest.mark.parametrize("function", ["log(x)", MIDDLE_LOG], ids=["log", "log-in-a-middle-chunk"])
    def test_non_finite_f_is_null_in_json(self, capsys, function):
        argv = ["interp", "--function", function, "--interval", "0", "1", "--degree", "16"]
        assert run_cli(argv) == 0
        grid = strict_json(capsys.readouterr().out)["grid"]
        assert grid[0]["x"] == 0.0 and grid[0]["f"] is None and math.isfinite(grid[0]["proxy"])
        assert all(math.isfinite(p["f"]) for p in grid[1:])
        assert run_cli(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[:2] == ["0.0", "nan"]

    @pytest.mark.parametrize("args, degree_used", [
        (["--function", "x", "--interval", "-1", "1", "--degree", "4"], 4),
        (["--function", "x", "--interval", "-1", "1"], 16),
        (["--function", "cos(x)", "--interval", "-10", "10"], 48),
    ], ids=["fixed", "adaptive-linear", "adaptive-cosine"])
    def test_degree_used_matches_roots(self, capsys, args, degree_used):
        _, roots = run_json(capsys, ["roots"] + args)
        _, interp = run_json(capsys, ["interp"] + args)
        assert interp["degree_used"] == roots["degree_used"] == degree_used
        assert interp["proxy_converged"] == roots["proxy_converged"]


@pytest.fixture(scope="module")
def report():
    return run_bench()


class TestBench:
    def test_cosine_case_accuracy(self, report):
        rows = {(r.case, r.degree): r for r in report.rows}
        best = rows[("cosine", 30)]
        assert best.roots_found == 6
        assert best.root_count_matches
        assert best.max_root_error <= 1e-10

    def test_exponential_case_rejects_everything(self, report):
        for r in report.rows:
            if r.case == "exponential":
                assert r.roots_found == 0
                assert r.root_count_matches == (r.expected_roots == 0)

    def test_gaussian_quartic_at_forty(self, report):
        rows = {(r.case, r.degree): r for r in report.rows}
        best = rows[("gaussian_quartic", 40)]
        assert best.roots_found == 4
        assert best.max_root_error <= 1e-8

    def test_proxy_error_shrinks_with_degree(self, report):
        cos_rows = [r for r in report.rows if r.case == "cosine"]
        errors = [r.proxy_max_error for r in cos_rows]
        assert errors == sorted(errors, reverse=True)

    def test_default_corpus_runs_every_degree(self, report):
        assert len(report.rows) == 12
        assert [(r.case, r.degree) for r in report.rows] == [
            (c.name, n) for c in default_corpus() for n in c.degree_sweep]

    def test_oracle_root_outside_the_interval_refused(self):
        with pytest.raises(ValueError, match="oracle root 2.0 outside"):
            BenchCase("line", "x-2", Interval(0.0, 1.0), (16,), (2.0,))

    def test_corpus_degrees_match_catalog(self, report):
        sweeps = {c.name: c.degree_sweep for c in default_corpus()}
        assert sweeps["cosine"] == (12, 13, 20, 30)
        assert sweeps["exponential"] == (8, 13, 20, 30)
        assert sweeps["gaussian_quartic"] == (10, 20, 30, 40)

    def test_each_sample_node_is_evaluated_once(self, monkeypatch):
        # find_roots and the proxy behind proxy_max_error share one sampling of f
        calls = Counter()
        (case,) = [c for c in default_corpus() if c.name == "cosine"]
        f_tree = parse(case.function_text)

        def counting_eval(expr, x):
            calls[x] += expr == f_tree  # the polish's calls on the derivative's tree are no samples
            return eval_expr(expr, x)

        monkeypatch.setattr(bench, "eval_expr", counting_eval)
        case = replace(case, degree_sweep=(12,))
        (row,) = run_bench([case]).rows
        nodes = [from_standard(case.interval, float(t)) for t in standard_nodes(12)]
        assert [calls[x] for x in nodes] == [1] * 12
        assert sum(calls.values()) == row.function_evaluations + GRID_POINTS

    @pytest.mark.parametrize("case", default_corpus(), ids=lambda case: case.name)
    def test_polished_rows_equal_sweep(self, report, capsys, case):
        # bench polishes with the exact derivative, as roots and sweep do
        code, doc = run_json(capsys, [
            "sweep", "--function", case.function_text, "--interval", repr(case.interval.a),
            repr(case.interval.b), "--degrees", ",".join(map(str, case.degree_sweep)),
        ])
        assert code == 0
        rows = [(r.roots_found, r.function_evaluations) for r in report.rows if r.case == case.name]
        assert rows == [(len(run["roots"]), run["function_evaluations"]) for run in doc["sweeps"]]

    def test_csv_and_json_payloads_match(self, report):
        doc = bench_to_dict(report)
        rows = list(csv.DictReader(io.StringIO(bench_to_csv(report))))
        assert len(rows) == len(doc["rows"])
        for row, ref in zip(rows, doc["rows"]):
            assert row["case"] == ref["case"]
            assert int(row["degree"]) == ref["degree"]
            assert int(row["roots_found"]) == ref["roots_found"]
            if ref["max_root_error"] is None:
                assert row["max_root_error"] == ""
            else:
                assert float(row["max_root_error"]) == ref["max_root_error"]
            assert float(row["proxy_max_error"]) == ref["proxy_max_error"]
            assert float(row["wall_time_s"]) == ref["wall_time_s"]

    def test_row_columns(self, report):
        # every row has a fixed degree, so no row repeats it as a node count or a convergence flag
        columns = ["case", "degree", "roots_found", "expected_roots", "root_count_matches", "max_root_error",
                   "spurious_candidates", "proxy_max_error", "function_evaluations", "wall_time_s"]
        assert next(csv.reader(io.StringIO(bench_to_csv(report)))) == columns
        assert all(list(row) == columns for row in bench_to_dict(report)["rows"])

    def test_bench_cli_writes_both_formats(self, tmp_path):
        stem = tmp_path / "bench"
        assert run_cli(["bench", "--output", str(stem)]) == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert doc["rows"]
        rows = list(csv.DictReader(io.StringIO((tmp_path / "bench.csv").read_text())))
        assert len(rows) == len(doc["rows"])

    @pytest.mark.parametrize("name, extra, kind", [
        ("b.csv", [], "csv"),
        ("b.json", [], "json"),
        ("b.csv", ["--format", "json"], "json"),
        ("b", ["--format", "csv"], "csv"),
        ("b", ["--format", "json"], "json"),
    ], ids=["csv-suffix", "json-suffix", "format-beats-suffix", "format-beats-stem-csv",
            "format-beats-stem-json"])
    def test_bench_cli_suffix_picks_the_format(self, tmp_path, report, name, extra, kind):
        target = tmp_path / name
        assert run_cli(["bench", "--output", str(target)] + extra) == 0
        text = target.read_text()
        if kind == "json":
            assert len(json.loads(text)["rows"]) == len(report.rows)
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
            assert [row["case"] for row in rows] == [r.case for r in report.rows]
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    def test_bench_cli_text_format(self, capsys, report):
        assert run_cli(["bench", "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(report.rows)
        for line, r in zip(lines, report.rows):
            expect = "?" if r.expected_roots is None else r.expected_roots
            assert line.startswith(f"{r.case:18s} N={r.degree:<4d} roots {r.roots_found}/{expect}")
            assert f"proxy err {r.proxy_max_error:.3e}" in line
            assert line.endswith(" ms")

    def test_non_finite_f_gives_a_nan_row_and_null_json(self):
        case = BenchCase("log", "log(x)", Interval(0.0, 1.0), (16,), None)
        nan_report = run_bench([case])
        (row,) = nan_report.rows
        assert math.isnan(row.proxy_max_error)
        (doc_row,) = strict_json(bench_to_json(nan_report))["rows"]
        assert doc_row["proxy_max_error"] is None
        (csv_row,) = csv.DictReader(io.StringIO(bench_to_csv(nan_report)))
        assert csv_row["proxy_max_error"] == "nan"

    def test_bench_json_parses(self, report):
        doc = json.loads(bench_to_json(report))
        assert doc["version"] == 6
        assert len(doc["cases"]) == 3
