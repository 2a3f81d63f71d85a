"""Command-line front end.

Subcommands:

    roots   find all real roots of a function on an interval
    sweep   rerun the finder across several proxy degrees, emitting every
            candidate per degree
    interp  tabulate the true function against its proxy on a uniform grid
    bench   run the built-in benchmark corpus against its oracles

Exit codes: 0 success, 1 usage error (an unparseable function and an
unwritable --output included),
2 numerical failure (a non-converged proxy without --allow-nonconverged, a
non-finite sample, or LAPACK failing to converge on the companion
eigenvalues).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import fields

from numpy.linalg import LinAlgError

from .bench import (GRID_POINTS, bench_to_csv, bench_to_json, bench_to_text, default_corpus,
                    grid_max_error, proxy_grid, run_bench)
from .chebyshev import Interval, NonFiniteSampleError
from .expressions import differentiate_expr, eval_expr, parse
from .rootfinder import RootConfig, build_proxy, find_roots
from .serialize import (
    FORMAT_VERSION,
    format_cell,
    json_number,
    report_to_csv,
    report_to_dict,
    report_to_json,
    report_to_text,
    sweep_to_csv,
    write_csv_rows,
)

__all__ = ["run_cli", "main"]

_CONFIG_FIELDS = frozenset(field.name for field in fields(RootConfig))

# argparse's own pattern for a negative number has no exponent
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting the process.

    A negative number with an exponent ("-1e-3") is a value, as "-0.001"
    is, and "--interval=A B" is "--interval A B".
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def parse_known_args(self, args=None, namespace=None):
        # argparse binds "--opt=value" to one value, so an option that takes
        # two ("--interval") would refuse "--interval=A B"
        split = []
        for arg in sys.argv[1:] if args is None else args:
            option, equals, value = arg.partition("=")
            action = self._option_string_actions.get(option) if equals else None
            if isinstance(getattr(action, "nargs", None), int) and action.nargs > 1:
                split += [option, value]
            else:
                split.append(arg)
        return super().parse_known_args(split, namespace)

    def error(self, message):
        raise _UsageError(message)


def _config_from_args(args, **fixed) -> RootConfig:
    """A :class:`RootConfig` from every parsed flag whose dest is one of its fields.

    ``fixed`` sets fields no flag of the subcommand does (``degree`` for each
    run of a sweep).
    """
    knobs = {name: value for name, value in vars(args).items()
             if name in _CONFIG_FIELDS and value is not None}
    return RootConfig(**knobs, **fixed)


def _function_from_args(args, derivative: bool):
    """f and, if ``derivative``, its exact derivative df, else None.

    Every parsed text has a derivative.  Only a run that polishes reads df,
    so any other skips differentiating.
    """
    expr = parse(args.function)
    def f(x):
        return eval_expr(expr, x)
    if not derivative:
        return f, None
    dexpr = differentiate_expr(expr)
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
    config = _config_from_args(args)
    f, df = _function_from_args(args, derivative=args.polish)
    report = find_roots(f, interval, config, df=df)
    _emit(args, json=lambda: report_to_json(report), csv=lambda: report_to_csv(report),
          text=lambda: report_to_text(report))
    return _exit_code(report.proxy_converged, args)


def _parse_degrees(text: str) -> list[int]:
    """The argparse ``type`` of ``--degrees``: comma-separated node counts."""
    try:
        degrees = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --degrees list: {exc}") from None
    if not degrees:
        raise argparse.ArgumentTypeError("needs at least one value")
    return degrees


def _sweep_text(reports) -> str:
    lines = []
    for report in reports:
        roots = ", ".join(repr(r) for r in report.roots)
        lines.append(f"N={report.config.degree}: {len(report.candidates)} candidates, "
                     f"{len(report.roots)} roots [{roots}]")
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> int:
    interval = Interval(*args.interval)
    f, df = _function_from_args(args, derivative=args.polish)
    # every config first, so that a bad degree costs no solve
    configs = [_config_from_args(args, degree=degree) for degree in args.degrees]
    reports = [find_roots(f, interval, config, df=df) for config in configs]
    _emit(
        args,
        json=lambda: json.dumps({
            "version": FORMAT_VERSION,
            "function": args.function,
            "interval": [interval.a, interval.b],
            "sweeps": [report_to_dict(report) for report in reports],
        }, indent=2),
        csv=lambda: sweep_to_csv(reports),
        text=lambda: _sweep_text(reports),
    )
    return 0


def _cmd_interp(args) -> int:
    interval = Interval(*args.interval)
    f, _ = _function_from_args(args, derivative=False)
    raw, series, converged = build_proxy(f, interval, _config_from_args(args))
    grid = proxy_grid(f, series)
    # degree_used is the node count of the proxy, as in RootReport
    _emit(
        args,
        json=lambda: json.dumps({
            "version": FORMAT_VERSION,
            "function": args.function,
            "interval": [interval.a, interval.b],
            "degree_used": len(raw.coeffs),
            "proxy_converged": converged,
            "grid": [{"x": x, "f": json_number(fx), "proxy": json_number(px)} for x, fx, px in grid],
        }, indent=2),
        csv=lambda: write_csv_rows(["x", "f", "proxy"],
                                   [[format_cell(v) for v in point] for point in grid]),
        text=lambda: (f"degree used: {len(raw.coeffs)}\n"
                      f"max |f - proxy| on {GRID_POINTS} uniform points: "
                      f"{grid_max_error(grid)!r}\n"),
    )
    return _exit_code(converged, args)


def _cmd_bench(args) -> int:
    report = run_bench(default_corpus(), _config_from_args(args))
    if args.output and args.format is None and not args.output.endswith((".json", ".csv")):
        for suffix, render in ((".json", bench_to_json), (".csv", bench_to_csv)):
            with open(args.output + suffix, "w") as handle:
                handle.write(render(report))
        return 0
    _emit(args, json=lambda: bench_to_json(report), csv=lambda: bench_to_csv(report),
          text=lambda: bench_to_text(report))
    return 0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="chebroots", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # each parent holds flags that the same subcommands read, so no flag is
    # declared twice and no subcommand takes a flag it ignores
    output = argparse.ArgumentParser(add_help=False)  # every subcommand
    output.add_argument("--format", choices=("json", "csv", "text"),
                        help="default: csv for an --output ending in .csv, else json")
    output.add_argument("--output", metavar="PATH", help="write here instead of stdout")

    polish = argparse.ArgumentParser(add_help=False)  # the subcommands that vet candidates
    polish.add_argument("--no-polish", dest="polish", action="store_false", help="skip the Newton polish")

    function = argparse.ArgumentParser(add_help=False)  # every subcommand but bench
    function.add_argument("--function", required=True, metavar="TEXT",
                          help="expression in x, e.g. 'cos(x)' (multiplication is explicit: 2*x)")
    function.add_argument("--interval", required=True, nargs=2, type=float, metavar=("A", "B"))

    vetting = argparse.ArgumentParser(add_help=False)  # roots and sweep
    vetting.add_argument("--residual-tol", type=float,
                         help="absolute |f(x)| acceptance threshold (default: automatic)")

    degree = argparse.ArgumentParser(add_help=False)  # roots and interp
    degree.add_argument("--degree", type=int, metavar="N",
                        help="number of interpolation nodes (proxy degree N-1; default: adaptive)")
    degree.add_argument("--allow-nonconverged", action="store_true",
                        help="exit 0 even if the adaptive proxy hit its degree cap")

    sub.add_parser("roots", parents=[function, vetting, polish, output, degree],
                   help="find all real roots on the interval").set_defaults(run=_cmd_roots)

    sweep = sub.add_parser("sweep", parents=[function, vetting, polish, output],
                           help="rerun across several degrees, keeping all candidates")
    sweep.add_argument("--degrees", required=True, type=_parse_degrees, metavar="N1,N2,...",
                       help="comma-separated list of node counts")
    sweep.set_defaults(run=_cmd_sweep)

    sub.add_parser("interp", parents=[function, output, degree],
                   help="tabulate function vs proxy on a uniform grid").set_defaults(run=_cmd_interp)

    sub.add_parser("bench", parents=[polish, output], help="run the built-in benchmark corpus",
                   description="An --output PATH with neither --format nor a .json/.csv "
                               "suffix writes PATH.json and PATH.csv.").set_defaults(run=_cmd_bench)
    return parser


def run_cli(argv=None) -> int:
    """Run the CLI on an argument list.  Returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        if isinstance(exc, (NonFiniteSampleError, LinAlgError)):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
