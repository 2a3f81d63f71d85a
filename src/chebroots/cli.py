"""Command-line front end.

Subcommands:

    roots   find all real roots of a function on an interval
    sweep   rerun the finder across several proxy degrees, emitting every
            candidate per degree
    interp  tabulate the true function against its proxy on a uniform grid
    bench   run the built-in benchmark corpus against its oracles

Exit codes: 0 success, 1 usage error (an unwritable --output included),
2 numerical failure (a non-converged proxy without --allow-nonconverged, a
non-finite sample, or LAPACK failing to converge on the companion
eigenvalues).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from numpy.linalg import LinAlgError

from .bench import (GRID_POINTS, bench_to_csv, bench_to_json, bench_to_text, default_corpus,
                    proxy_grid, run_bench)
from .chebyshev import Interval, NonFiniteSampleError
from .expressions import UnsupportedDerivativeError, differentiate_expr, eval_expr, parse, ParseError
from .rootfinder import RootConfig, build_proxy, find_roots
from .serialize import (
    FORMAT_VERSION,
    format_cell,
    report_to_csv,
    report_to_dict,
    report_to_json,
    report_to_text,
    sweep_to_csv,
    write_csv_rows,
)

__all__ = ["run_cli", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting the process."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="chebroots", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--function", required=True, metavar="TEXT",
                        help="expression in x, e.g. 'cos(x)' (multiplication is explicit: 2*x)")
    common.add_argument("--interval", required=True, nargs=2, type=float, metavar=("A", "B"))
    common.add_argument("--imag-tol", type=float, default=None,
                        help="max |imag| for an eigenvalue to count as real")
    common.add_argument("--box-tol", type=float, default=None,
                        help="how far outside [-1,1] an eigenvalue may sit")
    common.add_argument("--residual-tol", type=float, default=None,
                        help="absolute |f(x)| acceptance threshold (default: automatic)")
    common.add_argument("--no-polish", action="store_true")
    common.add_argument("--allow-nonconverged", action="store_true",
                        help="exit 0 even if the adaptive proxy hit its degree cap")
    common.add_argument("--format", choices=("json", "csv", "text"),
                        help="default: csv for an --output ending in .csv, else json")
    common.add_argument("--output", metavar="PATH", help="write here instead of stdout")

    degree_opts = argparse.ArgumentParser(add_help=False)
    group = degree_opts.add_mutually_exclusive_group()
    group.add_argument("--degree", type=int, metavar="N",
                       help="number of interpolation nodes (proxy degree N-1)")
    group.add_argument("--adaptive", action="store_true",
                       help="choose the degree automatically (default)")

    sub.add_parser("roots", parents=[common, degree_opts],
                   help="find all real roots on the interval")

    sweep = sub.add_parser("sweep", parents=[common],
                           help="rerun across several degrees, keeping all candidates")
    sweep.add_argument("--degrees", required=True, metavar="N1,N2,...",
                       help="comma-separated list of node counts")

    sub.add_parser("interp", parents=[common, degree_opts],
                   help="tabulate function vs proxy on a uniform grid")

    bench = sub.add_parser("bench", help="run the built-in benchmark corpus")
    bench.add_argument("--format", choices=("json", "csv", "text"),
                       help="default: csv for an --output ending in .csv, else json")
    bench.add_argument("--output", metavar="PATH",
                       help="file to write; without a .json/.csv suffix, writes PATH.json and PATH.csv")
    bench.add_argument("--no-polish", action="store_true")
    return parser


def _config_from_args(args, degree: int | None) -> RootConfig:
    config = RootConfig(degree=degree)
    overrides = {}
    if args.imag_tol is not None:
        overrides["imag_tol"] = args.imag_tol
    if args.box_tol is not None:
        overrides["box_tol"] = args.box_tol
    if args.residual_tol is not None:
        overrides["residual_tol"] = args.residual_tol
    if args.no_polish:
        overrides["polish"] = False
    return replace(config, **overrides) if overrides else config


def _function_from_args(args, derivative=True):
    expr = parse(args.function)
    def f(x):
        return eval_expr(expr, x)
    if not derivative:
        return f, None
    try:
        dexpr = differentiate_expr(expr)
    except UnsupportedDerivativeError:
        return f, None  # polish falls back to the proxy-series derivative
    def df(x):
        return eval_expr(dexpr, x)
    return f, df


def _emit(args, **renderers):
    """Write ``renderers[fmt]()`` to ``--output`` or stdout.

    ``fmt`` is ``--format`` if given, else csv for an ``--output`` ending in
    ``.csv``, else json.  Each renderer is a zero-argument callable, so only
    the chosen format is ever built.
    """
    fmt = args.format or ("csv" if (args.output or "").endswith(".csv") else "json")
    text = renderers[fmt]()
    if args.output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(args.output, "w") as handle:
            handle.write(text)


def _exit_code(converged: bool, args) -> int:
    """2 for a non-converged proxy unless --allow-nonconverged, else 0."""
    if converged or args.allow_nonconverged:
        return 0
    print("proxy did not converge at the adaptive degree cap "
          "(pass --allow-nonconverged to accept)", file=sys.stderr)
    return 2


def _cmd_roots(args) -> int:
    interval = Interval(*args.interval)
    config = _config_from_args(args, args.degree)
    f, df = _function_from_args(args)
    report = find_roots(f, interval, config, df=df)
    _emit(args, json=lambda: report_to_json(report, config), csv=lambda: report_to_csv(report),
          text=lambda: report_to_text(report, config))
    return _exit_code(report.proxy_converged, args)


def _parse_degrees(text: str) -> list[int]:
    try:
        degrees = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad --degrees list: {exc}") from None
    if not degrees:
        raise _UsageError("--degrees needs at least one value")
    return degrees


def _sweep_text(runs) -> str:
    lines = []
    for degree, _, report in runs:
        roots = ", ".join(repr(r) for r in report.roots)
        lines.append(f"N={degree}: {len(report.candidates)} candidates, "
                     f"{len(report.roots)} roots [{roots}]")
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> int:
    interval = Interval(*args.interval)
    degrees = _parse_degrees(args.degrees)
    f, df = _function_from_args(args)
    runs = []
    for degree in degrees:
        config = _config_from_args(args, degree)
        runs.append((degree, config, find_roots(f, interval, config, df=df)))
    _emit(
        args,
        json=lambda: json.dumps({
            "version": FORMAT_VERSION,
            "function": args.function,
            "interval": [interval.a, interval.b],
            "sweeps": [
                dict(report_to_dict(report, config), degree=degree)
                for degree, config, report in runs
            ],
        }, indent=2),
        csv=lambda: sweep_to_csv([(degree, report) for degree, _, report in runs]),
        text=lambda: _sweep_text(runs),
    )
    return 0


def _cmd_interp(args) -> int:
    interval = Interval(*args.interval)
    config = _config_from_args(args, args.degree)
    f, _ = _function_from_args(args, derivative=False)
    raw, series, converged = build_proxy(f, interval, config)
    grid = proxy_grid(f, series, interval)
    # degree_used is the node count of the proxy, as in RootReport
    _emit(
        args,
        json=lambda: json.dumps({
            "version": FORMAT_VERSION,
            "function": args.function,
            "interval": [interval.a, interval.b],
            "degree_used": len(raw.coeffs),
            "proxy_converged": converged,
            "grid": [{"x": x, "f": fx, "proxy": px} for x, fx, px in grid],
        }, indent=2),
        csv=lambda: write_csv_rows(["x", "f", "proxy"],
                                   [[format_cell(v) for v in point] for point in grid]),
        text=lambda: (f"degree used: {len(raw.coeffs)}\n"
                      f"max |f - proxy| on {GRID_POINTS} uniform points: "
                      f"{max(abs(fx - px) for _, fx, px in grid)!r}\n"),
    )
    return _exit_code(converged, args)


def _cmd_bench(args) -> int:
    report = run_bench(default_corpus(), RootConfig(polish=not args.no_polish))
    if args.output and not args.output.endswith((".json", ".csv")):
        for suffix, render in ((".json", bench_to_json), (".csv", bench_to_csv)):
            with open(args.output + suffix, "w") as handle:
                handle.write(render(report))
        return 0
    _emit(args, json=lambda: bench_to_json(report), csv=lambda: bench_to_csv(report),
          text=lambda: bench_to_text(report))
    return 0


def run_cli(argv=None) -> int:
    """Run the CLI on an argument list.  Returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "roots":
            return _cmd_roots(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "interp":
            return _cmd_interp(args)
        return _cmd_bench(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValueError, OSError) as exc:
        if isinstance(exc, (NonFiniteSampleError, LinAlgError)):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
