"""Benchmark harness: run a corpus of rootfinding cases across degree sweeps.

The built-in corpus is three functions on [-10, 10] -- a cosine, an
exponential with no real roots, and a Gaussian-damped quartic -- each swept
over several proxy degrees, with closed-form oracle roots where they exist.
Each (case, degree) run reports accepted-root counts, error against the
oracle, spurious-candidate counts, the proxy's max error on a dense uniform
grid, and wall time, as JSON or CSV.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .chebyshev import ChebyshevSeries, Interval, evaluate
from .expressions import differentiate_expr, eval_expr, parse
from .rootfinder import RootConfig, build_proxy, find_roots
from .serialize import FORMAT_VERSION, format_cell, json_number, write_csv_rows

__all__ = [
    "BenchCase",
    "BenchRow",
    "BenchReport",
    "default_corpus",
    "run_bench",
    "proxy_grid",
    "bench_to_dict",
    "bench_to_json",
    "bench_to_csv",
    "bench_to_text",
]

GRID_POINTS = 1001


@dataclass(frozen=True)
class BenchCase:
    """One benchmark function with its degree sweep and optional oracle.

    ``oracle_roots=None`` means no reference roots are known; an empty tuple
    means the function is known to have no roots on the interval.
    """

    name: str
    function_text: str
    interval: Interval
    degree_sweep: tuple[int, ...]
    oracle_roots: tuple[float, ...] | None
    oracle_note: str = ""

    def __post_init__(self):
        if self.oracle_roots is not None:
            for r in self.oracle_roots:
                if not (self.interval.a <= r <= self.interval.b):
                    raise ValueError(f"oracle root {r!r} outside {self.interval}")


@dataclass(frozen=True)
class BenchRow:
    case: str
    degree: int
    roots_found: int
    expected_roots: int | None
    root_count_matches: bool | None
    max_root_error: float | None
    spurious_candidates: int
    proxy_max_error: float
    function_evaluations: int
    wall_time_s: float


@dataclass(frozen=True)
class BenchReport:
    cases: tuple[BenchCase, ...]
    rows: tuple[BenchRow, ...]


def default_corpus() -> tuple[BenchCase, ...]:
    """The built-in three-case corpus on [-10, 10]."""
    iv = Interval(-10.0, 10.0)
    half_pi = math.pi / 2.0
    cos_roots = tuple(sorted(s * k * half_pi for k in (1, 3, 5) for s in (1, -1)))
    q_inner = math.sqrt((3.0 - math.sqrt(6.0)) / 2.0)
    q_outer = math.sqrt((3.0 + math.sqrt(6.0)) / 2.0)
    return (
        BenchCase(
            name="cosine",
            function_text="cos(x)",
            interval=iv,
            degree_sweep=(12, 13, 20, 30),
            oracle_roots=cos_roots,
            oracle_note="odd multiples of pi/2 inside the interval",
        ),
        BenchCase(
            name="exponential",
            function_text="exp(x)",
            interval=iv,
            degree_sweep=(8, 13, 20, 30),
            oracle_roots=(),
            oracle_note="strictly positive everywhere, so no real roots",
        ),
        BenchCase(
            name="gaussian_quartic",
            function_text="exp(-0.5*x^2)*(12-48*x^2+16*x^4)",
            interval=iv,
            degree_sweep=(10, 20, 30, 40),
            oracle_roots=(-q_outer, -q_inner, q_inner, q_outer),
            oracle_note="quartic roots x^2 = (3 +/- sqrt(6))/2 from the quadratic formula",
        ),
    )


def proxy_grid(f, series: ChebyshevSeries) -> list[tuple[float, float, float]]:
    """(x, f(x), proxy(x)) at GRID_POINTS uniform points of the series'
    interval, from a to b exactly."""
    xs = np.linspace(series.interval.a, series.interval.b, GRID_POINTS)
    return [(x, f(x), px) for x, px in zip(xs.tolist(), evaluate(series, xs).tolist())]


def grid_max_error(grid) -> float:
    """max |f - proxy| over a :func:`proxy_grid`, or NaN if any |f - proxy| is not finite."""
    errors = [abs(fx - px) for _, fx, px in grid]
    return max(errors) if all(map(math.isfinite, errors)) else math.nan


def run_bench(corpus=None, config: RootConfig = RootConfig()) -> BenchReport:
    """Run every (case, degree) pair and collect one row per run.

    ``config`` supplies everything except the degree, which the sweep sets.
    Each case's text is differentiated once, and the polish uses that exact
    derivative, as ``chebroots roots`` does; a run without the polish reads
    no df, so it differentiates nothing.  Oracle mismatches are reported in
    the row, never raised.
    """
    if corpus is None:
        corpus = default_corpus()
    rows = []
    for case in corpus:
        expr = parse(case.function_text)

        def f(x, _expr=expr):
            return eval_expr(_expr, x)

        df = None
        if config.polish:
            dexpr = differentiate_expr(expr)

            def df(x, _dexpr=dexpr):
                return eval_expr(_dexpr, x)

        for degree in case.degree_sweep:
            run_config = replace(config, degree=degree)
            seen = {}

            def f_row(x, _seen=seen):
                _seen[x] = fx = f(x)
                return fx

            start = time.perf_counter()
            report = find_roots(f_row, case.interval, run_config, df=df)
            wall = time.perf_counter() - start
            # the proxy again, from the samples find_roots took: f is not called twice
            _, series, _ = build_proxy(seen.__getitem__, case.interval, run_config)
            grid = proxy_grid(f, series)
            found = len(report.roots)
            if case.oracle_roots is None:
                expected = None
                matches = None
                max_err = None
            else:
                expected = len(case.oracle_roots)
                matches = found == expected
                if case.oracle_roots and report.roots:
                    max_err = max(
                        min(abs(r - o) for o in case.oracle_roots) for r in report.roots
                    )
                else:
                    max_err = None
            rows.append(
                BenchRow(
                    case=case.name,
                    degree=degree,
                    roots_found=found,
                    expected_roots=expected,
                    root_count_matches=matches,
                    max_root_error=max_err,
                    spurious_candidates=sum(1 for c in report.candidates if not c.accepted),
                    proxy_max_error=grid_max_error(grid),
                    function_evaluations=report.function_evaluations,
                    wall_time_s=wall,
                )
            )
    return BenchReport(tuple(corpus), tuple(rows))


def bench_to_dict(report: BenchReport) -> dict:
    return {
        "version": FORMAT_VERSION,
        "cases": [
            {
                "name": c.name,
                "function": c.function_text,
                "interval": [c.interval.a, c.interval.b],
                "degrees": list(c.degree_sweep),
                "oracle_roots": None if c.oracle_roots is None else list(c.oracle_roots),
                "oracle_note": c.oracle_note,
            }
            for c in report.cases
        ],
        "rows": [{k: json_number(v) for k, v in asdict(r).items()} for r in report.rows],
    }


def bench_to_json(report: BenchReport) -> str:
    return json.dumps(bench_to_dict(report), indent=2)


def bench_to_csv(report: BenchReport) -> str:
    return write_csv_rows(
        [field.name for field in fields(BenchRow)],
        [[format_cell(v) for v in asdict(r).values()] for r in report.rows],
    )


def bench_to_text(report: BenchReport) -> str:
    lines = []
    for r in report.rows:
        err = "n/a" if r.max_root_error is None else f"{r.max_root_error:.3e}"
        expect = "?" if r.expected_roots is None else str(r.expected_roots)
        lines.append(
            f"{r.case:18s} N={r.degree:<4d} roots {r.roots_found}/{expect}"
            f"  max err {err:>9s}  spurious {r.spurious_candidates:<3d}"
            f"  proxy err {r.proxy_max_error:.3e}  {r.wall_time_s*1e3:7.1f} ms"
        )
    return "\n".join(lines) + "\n"
