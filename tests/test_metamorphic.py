"""Metamorphic and grid-oracle checks of ROADMAP item 12.

A seeded corpus of 150 random inputs from the trig, poly and gauss families
is solved as f, -f, 2^40*f and 2^-40*f.  Negation and scaling by a power of
two change no sample's bits except its sign and exponent, so every run must
end the same: the same roots, candidates and fates, evaluations and
convergence.  Solved as f(-x) on [-b, -a], an input must keep its root
count and convergence, with roots that are the negated ones up to rounding.
Each input's root count must also equal the number of strict sign changes
of f on a 200001-point uniform grid of its interval, read from a numpy twin
of f.

A fourth family, 20 products of 20-50 random linear factors on [-1, 1], has
its factor roots for an oracle: every accepted root must be one of them,
negation and scaling by a power of two must change no outcome, and every
factor root must be found.  Where |f| between the roots sits below the
proxy's noise level, roots are missed with the proxy converged (ROADMAP
item 18).
"""

import math
import random

import numpy as np
import pytest

from chebroots.rootfinder import find_roots


# Each family returns (f, its numpy twin on arrays, interval).

def trig(rng):
    """K in [1, 30] terms c_k*cos(k*x + phi_k), c_k ~ N(0, 1)/(1 + k)^U(0, 1.5), on a random interval."""
    power = rng.uniform(0, 1.5)
    terms = [(k, rng.gauss(0, 1) / (1 + k) ** power, rng.uniform(0, 2 * math.pi))
             for k in range(1, rng.randint(1, 30) + 1)]
    a = rng.uniform(-5, 0)
    return (lambda x: sum(c * math.cos(k * x + phase) for k, c, phase in terms),
            lambda x: sum(c * np.cos(k * x + phase) for k, c, phase in terms),
            (a, a + rng.uniform(0.5, 8)))


def poly(rng):
    """A product of n in [1, 12] factors x - r_i, r_i ~ U(-1, 1), on [-1, 1]."""
    roots = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 12))]
    return (lambda x: math.prod(x - r for r in roots),
            lambda x: np.prod([x - r for r in roots], axis=0),
            (-1.0, 1.0))


def gauss(rng):
    """m in [1, 6] bumps h*exp(-((x - mu)/s)^2) minus a level in U(0.05, 0.8), on [-3, 3]."""
    bumps = [(rng.uniform(0.2, 1), rng.uniform(-2, 2), rng.uniform(0.05, 1)) for _ in range(rng.randint(1, 6))]
    level = rng.uniform(0.05, 0.8)
    return (lambda x: sum(h * math.exp(-((x - mu) / s) ** 2) for h, mu, s in bumps) - level,
            lambda x: sum(h * np.exp(-((x - mu) / s) ** 2) for h, mu, s in bumps) - level,
            (-3.0, 3.0))


def _draws():
    rng = random.Random(5)
    return [rng.choice((trig, poly, gauss))(rng) for _ in range(150)]


_DRAWS = _draws()
CORPUS = [(f, interval) for f, _, interval in _DRAWS]

# gauss inputs the 128-node cap leaves unconverged, each missing roots
_GRID_MISSES = {60, 65, 108}


def outcome(report):
    """What a run ended on, bar the residuals, which scale with f."""
    fates = tuple((c.standard_coord, c.mapped_coord, c.rejection_reason, c.polish_iterations)
                  for c in report.candidates)
    return report.roots, fates, report.function_evaluations, report.proxy_converged


@pytest.fixture(scope="module")
def outcomes():
    return [outcome(find_roots(f, interval)) for f, interval in CORPUS]


@pytest.mark.parametrize("scale", [-1.0, 2.0 ** 40, 2.0 ** -40], ids=["negated", "times-2^40", "times-2^-40"])
def test_scaling_f_by_a_power_of_two_changes_no_outcome(outcomes, scale):
    for i, (f, interval) in enumerate(CORPUS):
        assert outcome(find_roots(lambda x: scale * f(x), interval)) == outcomes[i], i


def test_reflecting_x_keeps_the_roots(outcomes):
    for i, (f, (a, b)) in enumerate(CORPUS):
        report = find_roots(lambda x: f(-x), (-b, -a))
        roots, _, _, converged = outcomes[i]
        assert (len(report.roots), report.proxy_converged) == (len(roots), converged), i
        assert all(abs(r + s) <= 1e-12 * (b - a) for r, s in zip(report.roots, reversed(roots))), i


@pytest.mark.parametrize("i", [
    pytest.param(i, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 14")) if i in _GRID_MISSES else i
    for i in range(len(_DRAWS))])
def test_root_count_equals_the_grid_sign_changes(outcomes, i):
    _, twin, (a, b) = _DRAWS[i]
    values = twin(np.linspace(a, b, 200001))
    assert len(outcomes[i][0]) == np.count_nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)


def _products():
    """Twenty ascending lists of n in [20, 50] factor roots r_i ~ U(-1, 1)."""
    rng = random.Random(5)
    products = []
    for _ in range(20):
        n = rng.randint(20, 50)
        products.append(sorted(rng.uniform(-1, 1) for _ in range(n)))
    return products


PRODUCTS = _products()

# products whose proxy converges but misses 1 to 45 factor roots
_PRODUCT_MISSES = {0, 1, 3, 7, 8, 9, 10, 12, 13, 15, 17, 19}


def product(roots):
    """f = prod(x - r_i), multiplied in ascending order of r_i."""
    return lambda x: math.prod(x - r for r in roots)


@pytest.fixture(scope="module")
def product_reports():
    return [find_roots(product(roots), (-1.0, 1.0)) for roots in PRODUCTS]


def test_every_accepted_root_of_a_product_is_a_factor_root(product_reports):
    for i, (roots, report) in enumerate(zip(PRODUCTS, product_reports)):
        assert all(min(abs(x - r) for r in roots) <= 1e-8 for x in report.roots), (i, report.roots)


@pytest.mark.parametrize("scale", [-1.0, 2.0 ** 40, 2.0 ** -40], ids=["negated", "times-2^40", "times-2^-40"])
def test_scaling_a_product_by_a_power_of_two_changes_no_outcome(product_reports, scale):
    for i, roots in enumerate(PRODUCTS):
        f = product(roots)
        assert outcome(find_roots(lambda x: scale * f(x), (-1.0, 1.0))) == outcome(product_reports[i]), i


@pytest.mark.parametrize("i", [
    pytest.param(i, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 18"))
    if i in _PRODUCT_MISSES else i
    for i in range(len(PRODUCTS))])
def test_every_factor_root_of_a_product_is_found(product_reports, i):
    roots, found = PRODUCTS[i], product_reports[i].roots
    assert len(found) == len(roots) and all(abs(x - r) <= 1e-8 for x, r in zip(found, roots)), found
