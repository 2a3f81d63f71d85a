"""Seeded inputs and closed-form oracles for the benchmark workloads.

Standard library only: the setup-time probe imports this module before it
starts timing the import of ``chebroots``.

Each workload is a list of :class:`Case` values.  A case holds only what
the program receives (expression text, interval, optional fixed degree)
plus its oracle roots and an independent Python closure of the same
function.  The closure never goes to the program; it lets
:func:`check_oracle` prove, at generation time, that every oracle root is a
real sign change of f with a tiny residual, so a wrong oracle cannot pass
for a solver failure.

Seeded parameters are drawn by jittered stratified sampling (one draw per
equal slice of the parameter range), so every seed gets the same spread
of problem sizes and the cost of a pass barely depends on the seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable

__all__ = ["Case", "WORKLOADS", "generate", "check_oracle", "inputs_json", "match_roots"]

# Oracle match tolerance: |found - oracle| <= ROOT_TOL * max(1, |oracle|).
ROOT_TOL = 1e-10


@dataclass(frozen=True)
class Case:
    """One root-finding problem and its oracle.

    ``known_defect`` names the ROADMAP open item that addresses a failure
    this case shows at the commit that defined the benchmark; such a case
    still counts as failed in ``failed_frac`` and the oracle fractions, but
    its failure does not mark the run incorrect.
    """

    name: str
    text: str
    a: float
    b: float
    degree: int | None
    roots: tuple[float, ...]
    known_defect: str | None = None
    func: Callable[[float], float] = field(default=None, compare=False, repr=False)

    def inputs(self) -> dict:
        """What the program receives, plus the oracle, as plain JSON data."""
        return {
            "name": self.name,
            "text": self.text,
            "interval": [self.a, self.b],
            "degree": self.degree,
            "roots": list(self.roots),
            "known_defect": self.known_defect,
        }


def _strata(rng: random.Random, count: int, lo: float, hi: float, digits: int = 6) -> list[float]:
    """One uniform draw from each of ``count`` equal slices of [lo, hi]."""
    step = (hi - lo) / count
    return [round(lo + (i + rng.random()) * step, digits) for i in range(count)]


def _sine_roots(k: float, phi: float, a: float, b: float) -> tuple[float, ...]:
    """Roots of sin(k*x + phi) strictly inside (a, b), for k > 0."""
    first = math.ceil((k * a + phi) / math.pi)
    last = math.floor((k * b + phi) / math.pi)
    roots = ((m * math.pi - phi) / k for m in range(first, last + 1))
    return tuple(r for r in roots if a < r < b)


def _sine_case(name: str, k: float, phi: float, a: float, b: float, degree=None) -> Case:
    return Case(
        name=name,
        text=f"sin({k!r}*x+{phi!r})",
        a=a,
        b=b,
        degree=degree,
        roots=_sine_roots(k, phi, a, b),
        func=lambda x: math.sin(k * x + phi),
    )


def _dense_roots(rng: random.Random) -> list[Case]:
    # Adaptive sines: 17 land at 64 nodes and 4 at 128 (the ladder's top rung).
    # The 64-node group holds the median solve; a 128-node sine costs about
    # three 64-node ones, so fewer of them leave time for more passes.
    cases = [
        _sine_case(f"sine64_{i}", k, round(rng.uniform(0.0, math.pi), 6), -10.0, 10.0)
        for i, k in enumerate(_strata(rng, 17, 1.1, 2.4))
    ]
    cases += [
        _sine_case(f"sine128_{i}", k, round(rng.uniform(0.0, math.pi), 6), -10.0, 10.0)
        for i, k in enumerate(_strata(rng, 4, 3.4, 5.0))
    ]
    q_in = math.sqrt((3.0 - math.sqrt(6.0)) / 2.0)
    q_out = math.sqrt((3.0 + math.sqrt(6.0)) / 2.0)
    cases.append(Case(
        name="gaussian_quartic",
        text="exp(-0.5*x^2)*(12-48*x^2+16*x^4)",
        a=-10.0, b=10.0, degree=None,
        roots=(-q_out, -q_in, q_in, q_out),
        func=lambda x: math.exp(-0.5 * x * x) * (12 - 48 * x**2 + 16 * x**4),
    ))
    cases.append(Case(
        name="wilkinson20",
        text="*".join(f"(x-{j})" for j in range(1, 21)),
        a=0.0, b=21.0, degree=None,
        roots=tuple(float(j) for j in range(1, 21)),
        func=lambda x: math.prod(x - j for j in range(1, 21)),
    ))
    p, q = 0.3, 0.3 + 1e-7
    cases.append(Case(
        name="pair_1e-7",
        text=f"(x-{p!r})*(x-{q!r})",
        a=-1.0, b=1.0, degree=None,
        roots=(p, q),
        func=lambda x: (x - p) * (x - q),
    ))
    cases.append(_sine_case("oscillator_n256", 30.0, 0.0, -4.0, 4.0, degree=256))
    cases.append(replace(_sine_case("sin20x", 20.0, 0.0, -10.0, 10.0), known_defect="ROADMAP item 3"))
    cases.append(Case(
        name="tiny_scale_sin",
        text="2^(-1000)*sin(x)",
        a=-4.0, b=4.0, degree=None,
        roots=(-math.pi, 0.0, math.pi),
        known_defect="ROADMAP item 4",
        func=lambda x: 2.0**-1000 * math.sin(x),
    ))
    cases.append(Case(
        name="triple_root",
        text="(x-0.2)^3",
        a=-1.0, b=1.0, degree=None,
        roots=(0.2,),
        known_defect="ROADMAP item 4",
        func=lambda x: (x - 0.2) ** 3,
    ))
    cases.append(Case(
        name="runge_shifted",
        text="1/(1+25*x^2)-0.5",
        a=-1.0, b=1.0, degree=None,
        roots=(-0.2, 0.2),
        known_defect="ROADMAP item 3",
        func=lambda x: 1.0 / (1.0 + 25.0 * x * x) - 0.5,
    ))
    r = 1.0000000000005
    cases.append(Case(
        name="linear_narrow",
        text=f"x-{r!r}",
        a=1.0, b=1.0 + 1e-12, degree=None,
        roots=(r,),
        known_defect="ROADMAP item 5",
        func=lambda x: x - r,
    ))
    return cases


# costly_f: sin(k*x+phi) * exp(0.5 * sum_j a_j cos(w_j x + psi_j)).  The
# exponential factor is positive, so the roots are exactly those of the sine;
# its J low-frequency terms make one evaluation cost about 1.7 ms.
COSTLY_TERMS = 600
COSTLY_GROUP = 25  # terms per parenthesised group, keeping the parse tree shallow


def _costly_case(name: str, rng: random.Random, k: float) -> Case:
    phi = round(rng.uniform(0.0, math.pi), 6)
    amp = 1.0 / math.sqrt(COSTLY_TERMS)
    terms = [
        (round(rng.uniform(-amp, amp), 6), round(rng.uniform(0.0, 0.5), 6),
         round(rng.uniform(0.0, 2 * math.pi), 6))
        for _ in range(COSTLY_TERMS)
    ]
    groups = []
    for start in range(0, COSTLY_TERMS, COSTLY_GROUP):
        body = "".join(
            f"{'-' if c < 0 else '+'}{abs(c)!r}*cos({w!r}*x+{psi!r})"
            for c, w, psi in terms[start:start + COSTLY_GROUP]
        )
        groups.append("(" + body.lstrip("+") + ")")
    text = f"sin({k!r}*x+{phi!r})*exp(0.5*(" + "+".join(groups) + "))"

    def func(x):
        s = math.fsum(c * math.cos(w * x + psi) for c, w, psi in terms)
        return math.sin(k * x + phi) * math.exp(0.5 * s)

    return Case(name, text, -4.0, 4.0, None, _sine_roots(k, phi, -4.0, 4.0), None, func)


def _costly_f(rng: random.Random) -> list[Case]:
    # 5 slow sines land at 32 nodes and 15 faster ones at 64, so the median
    # and p90 solve sit well inside the 64-node group for every seed.
    ks = _strata(rng, 5, 0.4, 0.6) + _strata(rng, 15, 1.5, 2.4)
    return [_costly_case(f"costly_{i}", rng, k) for i, k in enumerate(ks)]


def _cli_exact_df(rng: random.Random) -> list[Case]:
    """Moderate expressions whose roots have closed forms; 5 of each family.

    A solve costs about 4 ms for the three polynomial families, 15-25 ms for
    exp_level, quadratic_exp and log_shift, and 20-110 ms for the other five,
    so the median input falls inside the middle group for every seed, not
    on the edge between two groups of different cost.
    """
    def u(lo, hi):
        return round(rng.uniform(lo, hi), 6)

    cases = []
    for i in range(5):
        k, phi = u(1.25 + i % 3, 2.0 + i % 3), u(0.0, math.pi)
        cases.append(_sine_case(f"sine_{i}", k, phi, -6.0, 6.0))

        c, beta = u(0.5, 4.0), rng.choice((-1, 1)) * u(0.5, 1.0)
        cases.append(Case(
            f"quadratic_exp_{i}", f"(x^2-{c!r})*exp({beta!r}*x)", -3.0, 3.0, None,
            (-math.sqrt(c), math.sqrt(c)), None,
            lambda x, c=c, beta=beta: (x * x - c) * math.exp(beta * x),
        ))

        c, d = u(1.5, 2.5), u(1.2, 1.5)
        cases.append(Case(
            f"log_shift_{i}", f"log(x+{c!r})-{d!r}", 0.5, 4.0, None,
            (math.exp(d) - c,), None,
            lambda x, c=c, d=d: math.log(x + c) - d,
        ))

        k, s = u(1.0, 2.0), u(10.0, 20.0)
        cases.append(Case(
            f"damped_cos_{i}", f"cos({k!r}*x)*exp(-x^2/{s!r})", -5.0, 5.0, None,
            _sine_roots(k, math.pi / 2, -5.0, 5.0), None,
            lambda x, k=k, s=s: math.cos(k * x) * math.exp(-x * x / s),
        ))

        c, d = u(1.3, 2.0), u(1.6, 2.2)
        cases.append(Case(
            f"sqrt_shift_{i}", f"sqrt(x+{c!r})-{d!r}", 0.0, 4.0, None,
            (d * d - c,), None,
            lambda x, c=c, d=d: math.sqrt(x + c) - d,
        ))

        c = u(0.5, 2.0)
        cases.append(Case(
            f"odd_cubic_{i}", f"x^3-{c!r}*x", -2.0, 2.0, None,
            (-math.sqrt(c), 0.0, math.sqrt(c)), None,
            lambda x, c=c: x**3 - c * x,
        ))

        c = u(0.5, 2.0)
        cases.append(Case(
            f"even_quadratic_{i}", f"x^2-{c!r}", -2.0, 2.0, None,
            (-math.sqrt(c), math.sqrt(c)), None,
            lambda x, c=c: x * x - c,
        ))

        c = u(0.2, 5.0)
        cases.append(Case(
            f"cube_level_{i}", f"x^3-{c!r}", -2.0, 2.0, None,
            (c ** (1.0 / 3.0),), None,
            lambda x, c=c: x**3 - c,
        ))

        t = u(-3.0, 3.0)
        cases.append(Case(
            f"tan_level_{i}", f"tan(x)-({t!r})", -1.3, 1.3, None,
            (math.atan(t),), None,
            lambda x, t=t: math.tan(x) - t,
        ))

        c = u(0.2, 5.0)
        cases.append(Case(
            f"exp_level_{i}", f"exp(x)-{c!r}", -2.0, 2.0, None,
            (math.log(c),), None,
            lambda x, c=c: math.exp(x) - c,
        ))
    return cases


WORKLOADS: dict[str, Callable[[random.Random], list[Case]]] = {
    "dense_roots": _dense_roots,
    "costly_f": _costly_f,
    "cli_exact_df": _cli_exact_df,
}


def check_oracle(case: Case) -> None:
    """Raise ValueError unless every oracle root is a true root of the case.

    Each root must lie inside the interval, f must change sign across it
    (the roots used here all have odd multiplicity) and |f| there must be
    tiny against the scale of f on the interval.
    """
    f = case.func
    width = case.b - case.a
    scale = max(abs(f(case.a + width * (i + 0.5) / 64)) for i in range(64))
    roots = sorted(case.roots)
    if list(case.roots) != roots:
        raise ValueError(f"{case.name}: oracle roots are not sorted")
    for i, r in enumerate(roots):
        if not case.a < r < case.b:
            raise ValueError(f"{case.name}: oracle root {r!r} outside ({case.a}, {case.b})")
        gaps = [abs(r - o) for j, o in enumerate(roots) if j != i]
        h = min([1e-6 * max(1.0, abs(r)), 1e-3 * width] + [g / 4 for g in gaps])
        lo, hi = f(r - h), f(r + h)
        if not (lo < 0.0 < hi or hi < 0.0 < lo):
            raise ValueError(f"{case.name}: f does not change sign across oracle root {r!r}")
        if abs(f(r)) > 1e-8 * scale:
            raise ValueError(f"{case.name}: |f({r!r})| = {abs(f(r))!r} is not tiny against {scale!r}")


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's input list for this seed, each oracle self-checked."""
    rng = random.Random(f"{workload}/{seed}")
    cases = WORKLOADS[workload](rng)
    for case in cases:
        check_oracle(case)
    return cases


def inputs_json(cases: list[Case]) -> str:
    """Canonical text of an input list; equal seeds give equal bytes."""
    return json.dumps([c.inputs() for c in cases], indent=1)


def match_roots(found, oracle) -> int:
    """Number of one-to-one matches between sorted found and oracle roots."""
    i = j = matched = 0
    while i < len(found) and j < len(oracle):
        x, o = found[i], oracle[j]
        if abs(x - o) <= ROOT_TOL * max(1.0, abs(o)):
            matched += 1
            i += 1
            j += 1
        elif x < o:
            i += 1
        else:
            j += 1
    return matched
