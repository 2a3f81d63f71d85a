"""The hard-case ledger of ROADMAP item 12: inputs the rootfinder gets wrong.

Each case asserts the right answer for ``find_roots`` on the parsed text with
the default config and no ``df``, and is a strict xfail naming the ROADMAP
item that owns it.  A change that makes a case pass turns its xfail into a
failure, and must then drop the mark; a case that fails other than by its
assertion fails the run too.
"""

import math
import random

import pytest

from chebroots.expressions import eval_expr, parse
from chebroots.rootfinder import find_roots


def solve(text, a, b):
    tree = parse(text)
    return find_roots(lambda x: eval_expr(tree, x), (a, b))


def assert_roots(report, expected, tol):
    """``report`` has exactly the roots ``expected`` (ascending), each within ``tol``."""
    assert len(report.roots) == len(expected), report.roots
    assert all(abs(got - want) <= tol for got, want in zip(report.roots, expected)), report.roots


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 5 and 14")
def test_many_oscillations():
    # 3 of the roots kpi/20 are found, unconverged at 128 nodes, after 816 evaluations
    assert_roots(solve("sin(20*x)", -10, 10), [k * math.pi / 20 for k in range(-63, 64)], 1e-8)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_identically_zero_up_to_rounding():
    # 111 roots are accepted in the rounding noise of f, unconverged at 128 nodes
    assert_roots(solve("cos(x)^2+sin(x)^2-1", -1, 1), [], 0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 2 and 4")
def test_roots_1e7_apart():
    # no root found, with proxy_converged=True: a silent wrong answer
    assert_roots(solve("sin(x-0.3)*sin(x-0.3-1e-7)", -1, 1), [0.3, 0.3 + 1e-7], 1e-8)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
def test_roots_on_a_huge_interval():
    # both candidates are newton_diverged
    assert_roots(solve("x*(x-1)", -1e8, 1e8), [0.0, 1.0], 1e-8)


# a root of multiplicity m is only determined to about eps^(1/m)
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
@pytest.mark.parametrize("text, root, tol", [
    ("(x-0.2)^3", 0.2, 1e-4),
    ("sin(x-0.2)^3", 0.2, 1e-4),
    ("(x-0.2)^5*cos(x)", 0.2, 1e-2),
    ("(x-0.3)^2", 0.3, 1e-6),
    ("cos(x)-1", 0.0, 1e-6),
], ids=["cube", "sine-cubed", "fifth-power", "square", "cos-minus-1"])
def test_multiple_root(text, root, tol):
    # no root found, and every proxy converged
    assert_roots(solve(text, -1, 1), [root], tol)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 7, 14 and 15")
@pytest.mark.parametrize("text, a, b, roots", [
    ("(exp(100*x)-1)/(exp(100*x)+1)", -1, 1, [0.0]),
    ("abs(x)-0.5", -1, 1, [-0.5, 0.5]),
    ("sqrt(x)-0.5", 0, 1, [0.25]),
], ids=["tanh-50x", "abs", "sqrt"])
def test_unresolved_at_128_nodes(text, a, b, roots):
    # the roots are found, but the proxy does not converge
    report = solve(text, a, b)
    assert_roots(report, roots, 1e-8)
    assert report.proxy_converged


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 15")
def test_root_at_an_endpoint():
    assert_roots(solve("sqrt(x)", 0, 1), [0.0], 1e-8)


def _random_products():
    """Ten products of n random linear factors on [-1, 1] for each n, drawn in turn."""
    rng = random.Random(5)
    return {n: [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(10)] for n in (20, 30, 40, 50)}


RANDOM_PRODUCTS = _random_products()


# 198 of 200, 277 of 300, 305 of 400 and 249 of 500 roots are found, every proxy converged
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 18")
@pytest.mark.parametrize("n", sorted(RANDOM_PRODUCTS))
def test_product_of_random_linear_factors(n):
    for roots in RANDOM_PRODUCTS[n]:
        assert_roots(solve("*".join(f"(x-({r!r}))" for r in roots), -1, 1), sorted(roots), 1e-8)
