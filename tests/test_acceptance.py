"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np

from chebroots.chebyshev import (
    ChebyshevSeries,
    Interval,
    evaluate,
    from_standard,
    standard_nodes,
    transform,
)
from chebroots.companion import Spectrum, build_frobenius, eigenvalues
from chebroots.rootfinder import (
    RootConfig,
    build_proxy,
    filter_candidates,
    find_roots,
    newton_polish,
)

EPS = float(np.finfo(np.float64).eps)
BIG = Interval(-10.0, 10.0)
COS_ROOTS = sorted(s * k * math.pi / 2 for k in (1, 3, 5) for s in (1, -1))


def nearest_error(found, oracle):
    return max(min(abs(r - t) for t in oracle) for r in found)


def test_criterion_1_cosine_roots():
    start = time.perf_counter()
    report = find_roots(math.cos, BIG, RootConfig(degree=30))
    elapsed = time.perf_counter() - start
    assert len(report.roots) == 6
    worst = nearest_error(report.roots, COS_ROOTS)
    assert worst <= 1e-10
    assert elapsed <= 1.0
    print(f"ACCEPTANCE 1 PASS: cos on [-10,10], N=30 -> 6 roots, "
          f"max err {worst:.2e}, {elapsed*1e3:.0f} ms")


def test_criterion_2_cosine_convergence_in_degree():
    errors = []
    for degree in (13, 20, 30):
        report = find_roots(math.cos, BIG, RootConfig(degree=degree, polish=False))
        assert report.roots, f"no unpolished roots at N={degree}"
        errors.append(nearest_error(report.roots, COS_ROOTS))
    assert errors[0] >= errors[1] >= errors[2]
    assert errors[2] <= 1e-6
    print(f"ACCEPTANCE 2 PASS: unpolished errors {errors[0]:.2e} >= "
          f"{errors[1]:.2e} >= {errors[2]:.2e} (<= 1e-6 at N=30)")


def test_criterion_3_exponential_spurious_roots_vanish():
    report30 = find_roots(math.exp, BIG, RootConfig(degree=30))
    assert report30.roots == ()
    report13 = find_roots(math.exp, BIG, RootConfig(degree=13))
    assert len(report13.candidates) > 0
    assert all(not c.accepted for c in report13.candidates)
    assert report13.roots == ()
    print(f"ACCEPTANCE 3 PASS: exp -> 0 roots at N=30; at N=13 "
          f"{len(report13.candidates)} candidates, all rejected")


def test_criterion_4_gaussian_quartic_roots():
    f = lambda x: math.exp(-0.5 * x * x) * (12 - 48 * x * x + 16 * x ** 4)
    inner = math.sqrt((3 - math.sqrt(6)) / 2)
    outer = math.sqrt((3 + math.sqrt(6)) / 2)
    oracle = [-outer, -inner, inner, outer]
    start = time.perf_counter()
    report = find_roots(f, BIG, RootConfig(degree=40))
    elapsed = time.perf_counter() - start
    assert len(report.roots) == 4
    worst = max(abs(r - t) for r, t in zip(report.roots, oracle))
    assert worst <= 1e-8
    assert elapsed <= 1.0
    print(f"ACCEPTANCE 4 PASS: Gaussian quartic, N=40 -> 4 roots, "
          f"max err {worst:.2e}, {elapsed*1e3:.0f} ms")


def _smooth_corpus(rng, count):
    funcs = []
    for _ in range(count):
        a, b, c, d, e = rng.uniform(-2, 2, size=5)
        w1, w2 = rng.uniform(0.2, 3.0, size=2)

        def f(x, a=a, b=b, c=c, d=d, e=e, w1=w1, w2=w2):
            return (a * math.cos(w1 * x) + b * math.sin(w2 * x)
                    + c * math.exp(0.15 * x) + d + 0.01 * e * x * x)

        funcs.append(f)
    return funcs


def test_criterion_5_interpolation_exactness():
    rng = np.random.default_rng(515)
    iv = Interval(-6.0, 4.0)
    worst_rel = 0.0
    for f in _smooth_corpus(rng, 20):
        for n in (8, 16, 32):
            nodes = [from_standard(iv, float(t)) for t in standard_nodes(n)]
            samples = [f(x) for x in nodes]
            series = transform(samples, iv)
            scale = max(abs(s) for s in samples)
            err = max(abs(evaluate(series, x) - s) for x, s in zip(nodes, samples))
            worst_rel = max(worst_rel, err / max(scale, 1e-300))
            assert err <= 1e-12 * scale
    print(f"ACCEPTANCE 5 PASS: 20 functions x N in {{8,16,32}}, "
          f"worst node error {worst_rel:.2e} relative")


def test_criterion_6_companion_matches_closed_form_roots():
    worst = 0.0
    for n in range(2, 31):
        series = ChebyshevSeries(Interval(-1, 1), tuple([0.0] * n + [1.0]))
        spectrum = eigenvalues(build_frobenius(series))
        found = np.sort([z.real for z in spectrum.values])
        expected = np.sort(np.cos(np.pi * (2 * np.arange(1, n + 1) - 1) / (2 * n)))
        worst = max(worst, float(np.max(np.abs(found - expected))),
                    max(abs(z.imag) for z in spectrum.values))
        assert np.max(np.abs(found - expected)) <= 1e-8
    print(f"ACCEPTANCE 6 PASS: companion spectra match closed-form roots "
          f"for N=2..30, worst dev {worst:.2e}")


def test_criterion_7_filter_contract():
    rng = np.random.default_rng(77)
    values = []
    for _ in range(400):
        re = float(rng.uniform(-1.3, 1.3))
        im = float(rng.choice([0.0, 1e-12, 1e-9, 1e-8, 2e-8, 1e-5, 0.3]))
        values.append(complex(re, im * rng.choice([-1.0, 1.0])))
    # deliberate boundary straddles
    values += [
        complex(0.0, 1e-8), complex(0.0, math.nextafter(1e-8, 1.0)),
        complex(1.0 + 1e-6, 0.0), complex(math.nextafter(1.0 + 1e-6, 2.0), 0.0),
        complex(-(1.0 + 1e-6), 0.0), complex(0.99, -1e-8),
    ]
    spectrum = Spectrum(tuple(values))
    for cand, z in zip(filter_candidates(spectrum), values):
        expected = abs(z.imag) <= 1e-8 and abs(z.real) <= 1.0 + 1e-6
        assert cand.accepted == expected, z
    print(f"ACCEPTANCE 7 PASS: filter accepts iff |im|<=1e-8 and "
          f"|re|<=1+1e-6 on {len(values)} synthetic eigenvalues")


def test_criterion_8_newton_polish_stopping():
    df = lambda x: -math.sin(x)
    worst_iters = 0
    for root in COS_ROOTS:
        for offset in (-0.1, -0.04, 0.05, 0.1):
            result = newton_polish(math.cos, df, root + offset, BIG, 12)
            assert result.converged and not result.diverged
            assert result.iterations <= 6
            assert result.iterations < 12  # stopping rule fired, not the cap
            assert abs(result.final_correction) <= 4 * EPS * max(1.0, abs(result.x))
            assert abs(result.x - root) <= 1e-12
            worst_iters = max(worst_iters, result.iterations)
    print(f"ACCEPTANCE 8 PASS: polish converges from +/-0.1 of every cos root "
          f"in <= {worst_iters} iterations")


def test_criterion_9_random_polynomial_completeness():
    rng = np.random.default_rng(909)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        d = int(rng.integers(2, 9))
        a, b = (-10.0, 10.0) if trial % 2 else (-2.0, 5.0)
        w = b - a
        while True:
            roots = np.sort(rng.uniform(a + 0.05 * w, b - 0.05 * w, size=d))
            if d == 1 or np.min(np.diff(roots)) >= 0.05 * w:
                break
        lead = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))

        def poly(x, roots=roots, lead=lead):
            out = lead
            for r in roots:
                out *= x - r
            return out

        report = find_roots(poly, Interval(a, b))
        assert len(report.roots) == d, f"trial {trial}: {len(report.roots)} != {d}"
        err = float(np.max(np.abs(np.array(report.roots) - roots)))
        assert err <= 1e-8, f"trial {trial}: err {err:.2e}"
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    print(f"ACCEPTANCE 9 PASS: 200/200 polynomials recovered, worst err "
          f"{worst:.2e}, {elapsed:.1f} s")


def test_criterion_10_decay_diagnostic_and_adaptive_cap():
    iv = BIG
    samples = [math.cos(from_standard(iv, float(t))) for t in standard_nodes(32)]
    series = transform(samples, iv)
    mags = [abs(c) for c in series.coeffs]
    cut = 1e-12 * max(mags)
    first_below = next(j for j, m in enumerate(mags) if j > 0 and m <= cut)
    assert first_below < 32
    assert mags[31] <= cut  # the tail itself reaches the threshold
    sign = lambda x: math.copysign(1.0, x)
    _, _, converged = build_proxy(sign, iv)
    report = find_roots(sign, iv)
    assert not converged
    assert not report.proxy_converged
    assert report.degree_used == 128
    print(f"ACCEPTANCE 10 PASS: cos coefficients reach 1e-12*max inside N=32 "
          f"(first at j={first_below}, tail |a_31|={mags[31]:.1e}); "
          f"sign(x) hits the adaptive cap and is flagged")
