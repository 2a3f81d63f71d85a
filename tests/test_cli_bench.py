import csv
import io
import json
import math

import numpy as np
import pytest

from chebroots.bench import bench_to_csv, bench_to_dict, bench_to_json, default_corpus, run_bench
from chebroots.chebyshev import Interval
from chebroots.cli import run_cli
from chebroots.rootfinder import RootConfig, find_roots
from chebroots.serialize import (
    report_from_dict,
    report_from_json,
    report_to_csv,
    report_to_dict,
    report_to_json,
)


def run_json(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSerializationRoundtrip:
    def test_json_roundtrip_is_equal(self):
        config = RootConfig(degree=30)
        report = find_roots(math.cos, Interval(-10, 10), config)
        config_back, report_back = report_from_json(report_to_json(report, config))
        assert config_back == config
        assert report_back == report

    def test_adaptive_report_roundtrip(self):
        config = RootConfig()
        report = find_roots(lambda x: x * x - 2, Interval(0, 3), config)
        config_back, report_back = report_from_json(report_to_json(report, config))
        assert report_back == report
        assert config_back.degree is None

    def test_csv_and_json_payloads_match(self):
        config = RootConfig(degree=25)
        report = find_roots(math.cos, Interval(-10, 10), config)
        doc = report_to_dict(report, config)
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
        doc = report_to_dict(find_roots(math.cos, Interval(-10, 10), config), config)
        assert list(doc["config"]) == ["degree", "imag_tol", "box_tol", "max_adaptive_degree",
                                       "polish", "polish_max_iter", "residual_tol", "dedupe_tol"]

    def test_version_1_document_is_refused(self):
        config = RootConfig(degree=30)
        doc = report_to_dict(find_roots(math.cos, Interval(-10, 10), config), config)
        doc["version"] = 1
        doc["config"].update(chop_tol=1e-13, adaptive_tol=1e-12)
        with pytest.raises(ValueError, match="unsupported report version 1"):
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
        assert doc["version"] == 2
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

    def test_abs_function_falls_back_to_proxy_derivative(self, capsys):
        code, doc = run_json(capsys, [
            "roots", "--function", "abs(x)-1", "--interval", "-2", "2", "--degree", "40",
        ])
        assert code == 0
        assert np.allclose(doc["roots"], [-1.0, 1.0], atol=1e-9, rtol=0)

    def test_no_polish_flag(self, capsys):
        code, doc = run_json(capsys, [
            "roots", "--function", "cos(x)", "--interval", "-10", "10",
            "--degree", "30", "--no-polish",
        ])
        assert code == 0
        assert doc["config"]["polish"] is False
        assert all(c["polish_iterations"] == 0 for c in doc["candidates"])


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(["roots", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flags(self, capsys):
        assert run_cli(["roots", "--function", "cos(x)"]) == 1

    def test_bad_function_text(self, capsys):
        code = run_cli(["roots", "--function", "cos(y)", "--interval", "0", "1"])
        assert code == 1
        assert "unknown identifier" in capsys.readouterr().err

    def test_bad_interval(self, capsys):
        code = run_cli(["roots", "--function", "cos(x)", "--interval", "5", "1"])
        assert code == 1

    def test_degree_conflicts_with_adaptive(self, capsys):
        code = run_cli([
            "roots", "--function", "cos(x)", "--interval", "0", "1",
            "--degree", "8", "--adaptive",
        ])
        assert code == 1

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
        assert [run["degree"] for run in doc["sweeps"]] == [13, 20, 30]
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
            (run["degree"], cand)
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
            assert line.startswith(f"N={run['degree']}: {len(run['candidates'])} candidates, "
                                   f"{len(run['roots'])} roots [")
            roots = line[line.index("[") + 1:-1]
            assert [float(r) for r in roots.split(", ")] == run["roots"]

    def test_non_finite_sample_is_numerical_failure(self, capsys):
        code = run_cli(["sweep", "--function", "log(x)", "--interval", "-1", "1",
                        "--degrees", "8"])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_candidate_counts_grow_with_degree(self, capsys):
        code, doc = run_json(capsys, self.ARGV)
        counts = [len(run["candidates"]) for run in doc["sweeps"]]
        assert counts[0] < counts[1] < counts[2]


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

    def test_no_derivative_is_built(self, capsys, monkeypatch):
        def fail(expr):
            raise AssertionError("interp built a derivative")

        monkeypatch.setattr("chebroots.cli.differentiate_expr", fail)
        assert run_cli(["interp", "--function", "cos(x)", "--interval", "-10", "10",
                        "--degree", "12"]) == 0
        with pytest.raises(AssertionError, match="interp built a derivative"):
            run_cli(["roots", "--function", "cos(x)", "--interval", "-10", "10", "--degree", "12"])

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

    def test_corpus_degrees_match_catalog(self, report):
        sweeps = {c.name: c.degree_sweep for c in default_corpus()}
        assert sweeps["cosine"] == (12, 13, 20, 30)
        assert sweeps["exponential"] == (8, 13, 20, 30)
        assert sweeps["gaussian_quartic"] == (10, 20, 30, 40)

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
    ], ids=["csv-suffix", "json-suffix", "format-beats-suffix"])
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

    def test_bench_json_parses(self, report):
        doc = json.loads(bench_to_json(report))
        assert doc["version"] == 2
        assert len(doc["cases"]) == 3
