"""Metamorphic checks of ROADMAP item 12: relations between runs that need no oracle.

A seeded corpus of 150 random inputs from the trig, poly and gauss families
is solved as f, -f, 2^40*f and 2^-40*f.  Negation and scaling by a power of
two change no sample's bits except its sign and exponent, so every run must
end the same: the same roots, candidates and fates, evaluations and
convergence.
"""

import math
import random

import pytest

from chebroots.rootfinder import find_roots


def trig(rng):
    """K in [1, 30] terms c_k*cos(k*x + phi_k), c_k ~ N(0, 1)/(1 + k)^U(0, 1.5), on a random interval."""
    power = rng.uniform(0, 1.5)
    terms = [(k, rng.gauss(0, 1) / (1 + k) ** power, rng.uniform(0, 2 * math.pi))
             for k in range(1, rng.randint(1, 30) + 1)]
    a = rng.uniform(-5, 0)
    return (lambda x: sum(c * math.cos(k * x + phase) for k, c, phase in terms)), (a, a + rng.uniform(0.5, 8))


def poly(rng):
    """A product of n in [1, 12] factors x - r_i, r_i ~ U(-1, 1), on [-1, 1]."""
    roots = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 12))]
    return (lambda x: math.prod(x - r for r in roots)), (-1.0, 1.0)


def gauss(rng):
    """m in [1, 6] bumps h*exp(-((x - mu)/s)^2) minus a level in U(0.05, 0.8), on [-3, 3]."""
    bumps = [(rng.uniform(0.2, 1), rng.uniform(-2, 2), rng.uniform(0.05, 1)) for _ in range(rng.randint(1, 6))]
    level = rng.uniform(0.05, 0.8)
    return (lambda x: sum(h * math.exp(-((x - mu) / s) ** 2) for h, mu, s in bumps) - level), (-3.0, 3.0)


def _corpus():
    rng = random.Random(5)
    return [rng.choice((trig, poly, gauss))(rng) for _ in range(150)]


CORPUS = _corpus()


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
