"""Span tracing of chebroots from outside the program.

:class:`Tracer` rebinds, in the traced process only, the module globals
through which ``find_roots`` (and the CLI) reach each stage, so every call
crossing a module boundary becomes a span: name, start, end, parent span
and solve id.  Spans stay in memory and are written out when the run ends.
Names missing from a module are skipped, so the tracer survives stages
being merged or removed; their metrics then read 0.

A layer's self time is its spans' duration minus the part covered by
their child spans.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from pathlib import Path

__all__ = ["Tracer", "PATCH_POINTS", "MODULES"]

# module -> the globals it calls through, rebound while tracing
PATCH_POINTS = {
    "chebroots.rootfinder": (
        "transform", "chop_series", "series_spectrum", "filter_candidates", "differentiate",
        "newton_polish", "residual_reject", "evaluate", "coefficient_decay",
    ),
    "chebroots.companion": ("build_frobenius", "eigenvalues", "dense_eigenvalues"),
    "chebroots.qr": ("balance_matrix", "hessenberg_reduce", "hessenberg_eigenvalues"),
    "chebroots.cli": ("find_roots", "parse", "differentiate_expr", "eval_expr", "report_to_json"),
}

MODULES = ("expressions", "chebyshev", "companion", "qr", "rootfinder", "serialize", "cli")

EVAL = "expressions.eval_expr"
POLISH = "rootfinder.newton_polish"
TRANSFORM = "chebyshev.transform"
SETUP = -1  # solve id of spans recorded outside any solve


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """In-memory span recorder plus the per-solve counts taken at spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, solve id]
        self.solve = SETUP
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.skipped: set[str] = set()
        self.stage_evals: Counter = Counter()  # (stage, solve) -> f/df calls
        self.rung_sizes: dict[int, list[int]] = defaultdict(list)  # solve -> samples per transform
        self.orders: list[int] = []  # companion order of every spectrum taken
        self.unconverged = 0
        self._spectrum_seen: set[int] = set()

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording one span per call; hooks see args (and result)."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1, self.solve])
            open_.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_eval(self, fn):
        """Wrap a user f/df; each call is attributed to sample, polish or vet."""
        return self.wrap(EVAL, fn, before=self._count_eval)

    def _count_eval(self, args):
        if any(self.spans[i][0] == POLISH for i in self._open):
            stage = "polish"
        elif self.solve in self._spectrum_seen:
            stage = "vet"
        else:
            stage = "sample"
        self.stage_evals[stage, self.solve] += 1

    def _saw_spectrum(self, args):
        self._spectrum_seen.add(self.solve)
        self.orders.append(len(args[0].coeffs) - 1)

    def _spectrum_flags(self, args, spectrum):
        self.unconverged += sum(1 for ok in spectrum.converged if not ok)

    def _rung(self, args):
        self.rung_sizes[self.solve].append(len(args[0]))

    # -- installing ------------------------------------------------------

    def install(self):
        """Rebind every patch point that exists; :meth:`uninstall` undoes it."""
        hooks = {
            "series_spectrum": {"before": self._saw_spectrum, "after": self._spectrum_flags},
            "transform": {"before": self._rung},
        }
        for modname, names in PATCH_POINTS.items():
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.skipped.add(modname)
                continue
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.skipped.add(f"{modname}.{name}")
                    continue
                self._patched.append((module, name, original))
                if module.__name__ == "chebroots.cli" and name == "eval_expr":
                    traced = self.wrap_eval(original)
                else:
                    traced = self.wrap(_span_name(original), original, **hooks.get(name, {}))
                setattr(module, name, traced)

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------

    def totals(self, solves_only: bool = True):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, solve in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, solve) in enumerate(self.spans):
            if solves_only and solve == SETUP:
                continue
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, incl, self_s

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write("index\tname\tstart\tend\tparent\tsolve\n")
            for i, (name, start, end, parent, solve) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{solve}\n")
