import math

import numpy as np
import pytest

from chebroots.chebyshev import ChebyshevSeries, Interval, evaluate, standard_nodes, transform, from_standard
from chebroots.companion import (
    DegenerateLeadingCoefficientError,
    Spectrum,
    build_frobenius,
    eigenvalues,
    series_spectrum,
)

STD = Interval(-1.0, 1.0)


def basis_series(n):
    """The pure degree-n basis polynomial as a series."""
    return ChebyshevSeries(STD, tuple([0.0] * n + [1.0]))


def real_parts(spectrum):
    return [z.real for z in spectrum.values]


class TestBuildFrobenius:
    def test_degree_two_matrix_and_roots(self):
        m = build_frobenius(basis_series(2))
        assert m.tolist() == [[0.0, 1.0], [0.5, 0.0]]
        spectrum = eigenvalues(m)
        expected = math.cos(math.pi / 4)
        assert real_parts(spectrum) == pytest.approx([-expected, expected], abs=1e-12)

    def test_degree_one_degenerate_entry(self):
        m = build_frobenius(basis_series(1))
        assert m.shape == (1, 1)
        assert m.tolist() == [[0.0]]
        assert eigenvalues(m).values == (0j,)

    def test_degree_five_layout(self):
        coeffs = (3.0, -1.0, 2.0, 0.5, -4.0, 2.0)
        m = build_frobenius(ChebyshevSeries(STD, coeffs))
        a = coeffs
        expected = np.zeros((5, 5))
        expected[0, 1] = 1.0
        expected[1, 0] = expected[1, 2] = 0.5
        expected[2, 1] = expected[2, 3] = 0.5
        # interior rows follow the two-half-entries pattern throughout;
        # the lone full row is the last one
        expected[3, 2] = expected[3, 4] = 0.5
        expected[4, :] = [-a[k] / (2 * a[5]) for k in range(5)]
        expected[4, 3] += 0.5
        assert m.dtype == np.float64 and np.array_equal(m, expected)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="degree >= 1"):
            build_frobenius(ChebyshevSeries(STD, (1.0,)))

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(DegenerateLeadingCoefficientError, match="chop"):
            build_frobenius(ChebyshevSeries(STD, (1.0, 2.0, 0.0)))

    def test_entries_are_write_locked(self):
        m = build_frobenius(basis_series(3))
        with pytest.raises(ValueError):
            m[0, 0] = 99.0


class TestEigenvalues:
    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="matrix order must be >= 1"):
            eigenvalues(np.zeros((0, 0)))

    def test_basis_roots_match_nodes_across_orders(self):
        # up to 256, the largest proxy degree the benchmark's dense workload uses
        for n in [*range(2, 31), 32, 64, 100, 128, 192, 255, 256]:
            spectrum = eigenvalues(build_frobenius(basis_series(n)))
            assert all(spectrum.converged)
            assert max(abs(z.imag) for z in spectrum.values) <= 1e-10
            expected = np.sort(standard_nodes(n))
            assert np.allclose(real_parts(spectrum), expected, atol=1e-12, rtol=0)

    def test_degree_eight_against_closed_form(self):
        spectrum = eigenvalues(build_frobenius(basis_series(8)))
        expected = np.sort(np.cos(np.pi * (2 * np.arange(1, 9) - 1) / 16))
        assert np.max(np.abs(np.array(real_parts(spectrum)) - expected)) <= 1e-10

    def test_trace_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            coeffs = rng.normal(size=n + 1)
            if abs(coeffs[-1]) < 1e-2:
                coeffs[-1] = 1.0
            m = build_frobenius(ChebyshevSeries(STD, tuple(coeffs)))
            spectrum = eigenvalues(m)
            total = sum(spectrum.values)
            trace = float(np.trace(m))
            assert abs(total - trace) <= 1e-9 * max(1.0, abs(trace))
            assert abs(total.imag) <= 1e-9

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            coeffs = rng.normal(size=n + 1)
            coeffs[-1] = coeffs[-1] or 1.0
            spectrum = eigenvalues(build_frobenius(ChebyshevSeries(STD, tuple(coeffs))))
            complexes = [z for z in spectrum.values if abs(z.imag) > 1e-10]
            for z in complexes:
                assert any(abs(w - z.conjugate()) <= 1e-10 for w in complexes)

    def test_monic_quadratic_roots(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            r1, r2 = np.sort(rng.uniform(-1, 1, size=2))
            # (x - r1)(x - r2) in the Chebyshev basis: x^2 = (T_0 + T_2)/2
            series = ChebyshevSeries(STD, (0.5 + r1 * r2, -(r1 + r2), 0.5))
            spectrum = eigenvalues(build_frobenius(series))
            assert np.allclose(real_parts(spectrum), [r1, r2], atol=1e-10, rtol=0)
            assert max(abs(z.imag) for z in spectrum.values) <= 1e-10

    def test_matches_bisection_oracle_on_separated_roots(self):
        """Cross-check the eigenvalue route against exhaustive sign-scan bisection."""
        rng = np.random.default_rng(31)
        for _ in range(15):
            d = int(rng.integers(2, 6))
            while True:
                roots = np.sort(rng.uniform(-0.95, 0.95, size=d))
                if d == 1 or np.min(np.diff(roots)) > 0.15:
                    break
            samples = [float(np.prod(x - roots)) for x in
                       (from_standard(STD, float(t)) for t in standard_nodes(d + 1))]
            series = transform(samples, STD)
            spectrum = series_spectrum(series)
            found = sorted(z.real for z in spectrum.values if abs(z.imag) <= 1e-10)
            oracle = _bisection_roots(lambda x: evaluate(series, x), -1.0, 1.0)
            assert len(found) == len(oracle) == d
            assert np.allclose(found, oracle, atol=1e-8, rtol=0)


def _bisection_roots(f, lo, hi, grid=4096):
    """Every simple real root of f on [lo, hi] by sign scan plus bisection."""
    xs = np.linspace(lo, hi, grid + 1)
    values = [f(x) for x in xs]
    roots = []
    for x0, x1, f0, f1 in zip(xs, xs[1:], values, values[1:]):
        if f0 == 0.0:
            roots.append(float(x0))
            continue
        if f0 * f1 < 0:
            a, b, fa = float(x0), float(x1), f0
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    if values[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


class TestSeriesSpectrum:
    def test_constant_series_has_no_roots(self):
        assert series_spectrum(ChebyshevSeries(STD, (2.0,))) == Spectrum(())

    def test_linear_series_solved_analytically(self):
        # 0.6 + 1.5*T_1 vanishes at -0.4, which is the 1x1 companion entry:
        # x*T_0 = T_1 carries no 1/2
        series = ChebyshevSeries(STD, (0.6, 1.5))
        assert build_frobenius(series).tolist() == [[-0.6 / 1.5]]
        spectrum = series_spectrum(series)
        assert spectrum.values == (complex(-0.6 / 1.5),)
        assert spectrum.values[0].real == pytest.approx(-0.4, abs=1e-15)
        assert spectrum.converged == (True,)

    def test_huge_leading_coefficient(self):
        # 2*a_n overflows above ~9e307; the spectrum must not depend on the scale
        huge = series_spectrum(ChebyshevSeries(STD, (1e308, 0.0, 1.7e308)))
        assert huge == series_spectrum(ChebyshevSeries(STD, (1e300, 0.0, 1.7e300)))
        assert abs(huge.values[-1].real) == pytest.approx(0.4537, abs=1e-4)

    def test_every_value_is_converged(self):
        assert Spectrum((1 + 0j, 2 - 1j, 2 + 1j)).converged == (True, True, True)
        assert Spectrum(()).converged == ()

    def test_spectrum_is_sorted(self):
        spectrum = series_spectrum(basis_series(9))
        keyed = [(z.real, z.imag) for z in spectrum.values]
        assert keyed == sorted(keyed)
