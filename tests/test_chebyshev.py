import math

import numpy as np
import pytest

from chebroots.chebyshev import (
    ChebyshevSeries,
    Interval,
    NonFiniteSampleError,
    chop_series,
    coefficient_decay,
    differentiate,
    evaluate,
    from_standard,
    standard_nodes,
    to_standard,
    transform,
)


def series_on(a, b, *coeffs):
    return ChebyshevSeries(Interval(a, b), tuple(coeffs))


def sample(f, interval, n):
    return [f(from_standard(interval, float(t))) for t in standard_nodes(n)]


class TestInterval:
    def test_width(self):
        assert Interval(2, 6).width == 4

    def test_rejects_reversed_and_empty(self):
        with pytest.raises(ValueError, match="a < b"):
            Interval(1, 0)
        with pytest.raises(ValueError, match="a < b"):
            Interval(3, 3)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Interval(0, math.inf)
        with pytest.raises(ValueError, match="finite"):
            Interval(math.nan, 1)

    def test_rejects_overflowing_width(self):
        with pytest.raises(ValueError, match="width overflows"):
            Interval(-1e308, 1e308)
        assert Interval(-8e307, 8e307).width == 1.6e308

    @pytest.mark.parametrize("a, b", [(0.0, 5e-324), (1e-323, 1.5e-323), (1.5e-323, 2.5e-323)])
    def test_rejects_an_interval_too_narrow_to_halve(self, a, b):
        # a width of 2^-1074 halves to 0; both endpoints of the last halve to 1e-323
        with pytest.raises(ValueError, match="too narrow to halve"):
            Interval(a, b)


class TestStandardNodes:
    def test_single_node_is_zero(self):
        assert standard_nodes(1).tolist() == [0.0]

    def test_two_nodes(self):
        nodes = standard_nodes(2)
        assert nodes[0] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert nodes[1] == -nodes[0]

    def test_odd_count_has_exact_middle_zero(self):
        assert standard_nodes(3)[1] == 0.0
        assert standard_nodes(15)[7] == 0.0

    def test_strictly_decreasing_inside_open_interval(self):
        for n in (1, 2, 5, 17, 64):
            nodes = standard_nodes(n)
            assert np.all(np.diff(nodes) < 0)
            assert np.all(np.abs(nodes) < 1)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            standard_nodes(0)


class TestCoordinateMaps:
    def test_endpoints_and_midpoint(self):
        iv = Interval(-10, 10)
        assert to_standard(iv, 10) == 1.0
        assert to_standard(iv, 0) == 0.0
        assert from_standard(iv, -1) == -10
        assert from_standard(Interval(0, 1), 0) == 0.5

    def test_off_center_point(self):
        iv = Interval(2, 6)
        assert to_standard(iv, 3) == -0.5
        assert from_standard(iv, -0.5) == 3

    def test_map_is_affine_outside_interval(self):
        iv = Interval(0, 1)
        assert to_standard(iv, 2) == 3.0

    def test_roundtrip_random_intervals(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = np.sort(rng.uniform(-1e6, 1e6, size=2))
            if b - a < 1e-3:
                continue
            iv = Interval(a, b)
            x = rng.uniform(a, b)
            back = from_standard(iv, to_standard(iv, x))
            assert abs(back - x) <= 1e-14 * max(1.0, abs(a), abs(b))


class TestTransform:
    def test_constant_function(self):
        series = transform([1.0] * 9, Interval(-1, 1))
        assert series.coeffs[0] == pytest.approx(1.0, abs=1e-14)
        assert max(abs(c) for c in series.coeffs[1:]) <= 1e-14

    def test_recovers_degree_one_basis(self):
        iv = Interval(-1, 1)
        series = transform(sample(lambda x: x, iv, 4), iv)
        assert series.coeffs[1] == pytest.approx(1.0, abs=1e-14)
        assert abs(series.coeffs[0]) <= 1e-14
        assert max(abs(c) for c in series.coeffs[2:]) <= 1e-14

    def test_recovers_degree_two_basis(self):
        iv = Interval(-1, 1)
        series = transform(sample(lambda x: 2 * x * x - 1, iv, 5), iv)
        assert series.coeffs[2] == pytest.approx(1.0, abs=1e-14)
        assert max(abs(c) for j, c in enumerate(series.coeffs) if j != 2) <= 1e-14

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            transform([], Interval(-1, 1))

    def test_non_finite_sample_names_the_node(self):
        iv = Interval(0, 2)
        samples = sample(lambda x: x, iv, 6)
        samples[3] = math.nan
        with pytest.raises(NonFiniteSampleError) as excinfo:
            transform(samples, iv)
        assert excinfo.value.index == 3
        expected_node = from_standard(iv, float(standard_nodes(6)[3]))
        assert excinfo.value.node == pytest.approx(expected_node)
        assert "sample 3" in str(excinfo.value)


class TestEvaluate:
    def test_constant(self):
        assert evaluate(series_on(-1, 1, 1.0), 0.37) == 1.0

    def test_linear_basis(self):
        assert evaluate(series_on(-1, 1, 0.0, 1.0), 0.5) == 0.5

    def test_quadratic_basis(self):
        assert evaluate(series_on(-1, 1, 0.0, 0.0, 1.0), 0.5) == -0.5

    def test_matches_cosine_form_inside_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            coeffs = rng.normal(size=n)
            series = series_on(-1, 1, *coeffs)
            t = float(rng.uniform(-1, 1))
            direct = sum(c * math.cos(j * math.acos(t)) for j, c in enumerate(coeffs))
            assert evaluate(series, t) == pytest.approx(direct, abs=1e-12)


class TestDifferentiate:
    def test_derivative_of_linear_basis(self):
        d = differentiate(series_on(-1, 1, 0.0, 1.0))
        assert d.coeffs.tolist() == [1.0]

    def test_derivative_of_quadratic_basis(self):
        d = differentiate(series_on(-1, 1, 0.0, 0.0, 1.0))
        assert d.coeffs.tolist() == [0.0, 4.0]

    def test_chain_rule_scaling(self):
        d = differentiate(series_on(0, 10, 0.0, 1.0))
        assert d.coeffs.tolist() == [0.2]

    def test_constant_differentiates_to_zero(self):
        assert differentiate(series_on(-1, 1, 3.0)).coeffs.tolist() == [0.0]

    def test_coefficients_near_the_largest_float(self):
        # the terms 2*j*c[j] overflow unless scaled; the scaling is by a power
        # of two, so the result is the small series' derivative scaled exactly
        small = series_on(-40, 40, 0.3, -0.9, 0.5, 0.25, -0.7)
        big = ChebyshevSeries(small.interval, np.ldexp(small.coeffs, 1023))
        assert bits(differentiate(big).coeffs) == bits(np.ldexp(differentiate(small).coeffs, 1023))

    def test_against_central_differences(self):
        rng = np.random.default_rng(23)
        iv = Interval(-3, 5)
        series = transform(sample(lambda x: math.sin(x) * math.exp(0.2 * x), iv, 40), iv)
        d = differentiate(series)
        h = 1e-6
        for x in rng.uniform(-2.9, 4.9, size=100):
            fd = (evaluate(series, x + h) - evaluate(series, x - h)) / (2 * h)
            assert evaluate(d, x) == pytest.approx(fd, abs=1e-5)


class TestChop:
    def test_drops_roundoff_tail(self):
        series = series_on(-1, 1, 1.0, 0.5, 1e-15, 1e-16)
        assert chop_series(series).coeffs.tolist() == [1.0, 0.5]

    def test_keeps_significant_leading_coefficient(self):
        series = series_on(-1, 1, 1.0, 0.5, 1e-3)
        assert chop_series(series) is series

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="chop tolerance must be >= 0"):
            chop_series(series_on(-1, 1, 1.0, 0.5), -1e-13)

    @pytest.mark.parametrize("rel_tol, scale, message", [
        (math.nan, None, "chop tolerance"),
        (math.nan, 1.0, "chop tolerance"),
        (1e-13, math.nan, "chop scale"),
        (1e-13, -1.0, "chop scale"),
    ])
    def test_nan_tolerance_or_scale_rejected(self, rel_tol, scale, message):
        # a NaN cut compares false everywhere, so the series would chop to one coefficient
        series = series_on(-1, 1, 1.0, 0.5, 0.25, 0.125)
        with pytest.raises(ValueError, match=f"^{message} must be >= 0$"):
            chop_series(series, rel_tol, scale)
        assert chop_series(series, 1e-13, 0.0) is series  # a zero scale cuts nothing

    def test_all_zero_series_keeps_one_coefficient(self):
        assert chop_series(series_on(-1, 1, 0.0, 0.0, 0.0)).coeffs.tolist() == [0.0]

    def test_interior_small_coefficients_survive(self):
        series = series_on(-1, 1, 1.0, 1e-16, 1.0, 1e-16)
        assert chop_series(series).coeffs.tolist() == [1.0, 1e-16, 1.0]


class TestCoefficientDecay:
    def test_exact_polynomial_tail_is_roundoff(self):
        iv = Interval(-1, 1)
        series = transform(sample(lambda x: 2 * x * x - 1, iv, 8), iv)
        magnitudes = coefficient_decay(series)
        assert len(magnitudes) == 8
        assert max(magnitudes[3:]) <= 1e-14

    def test_cosine_tail_reaches_relative_noise(self):
        iv = Interval(-10, 10)
        series = transform(sample(math.cos, iv, 30), iv)
        magnitudes = coefficient_decay(series)
        top = max(magnitudes)
        assert min(magnitudes) <= 1e-12 * top

    def test_magnitudes_are_the_absolute_coefficients(self):
        for coeffs in ((3.0,), (1.0, -0.5), (-2.0, 1.0, 0.25), (0.5, -0.0, -1e-300, 2.0)):
            magnitudes = coefficient_decay(series_on(-1, 1, *coeffs))
            assert magnitudes == tuple(abs(c) for c in coeffs)
            assert all(type(m) is float for m in magnitudes)


class TestInterpolationInvariants:
    def test_interpolates_samples_at_nodes(self):
        """Evaluating the transform at its own nodes reproduces the samples."""
        rng = np.random.default_rng(3)
        iv = Interval(-4, 9)
        funcs = [
            math.cos,
            lambda x: math.exp(0.3 * x),
            lambda x: math.sin(2 * x) + 0.1 * x * x,
        ]
        for f in funcs:
            for _ in range(10):
                n = int(rng.integers(1, 65))
                samples = sample(f, iv, n)
                series = transform(samples, iv)
                scale = max(abs(s) for s in samples)
                for t, s in zip(standard_nodes(n), samples):
                    x = from_standard(iv, float(t))
                    assert abs(evaluate(series, x) - s) <= 1e-12 * max(1.0, scale)

    def test_transform_is_linear(self):
        rng = np.random.default_rng(5)
        iv = Interval(-2, 3)
        n = 24
        for _ in range(25):
            fa = rng.normal(size=n)
            fb = rng.normal(size=n)
            alpha, beta = rng.normal(size=2)
            combined = transform(alpha * fa + beta * fb, iv).coeffs
            separate = [
                alpha * ca + beta * cb
                for ca, cb in zip(transform(fa, iv).coeffs, transform(fb, iv).coeffs)
            ]
            assert np.allclose(combined, separate, atol=1e-13, rtol=0)

    def test_polynomial_coefficients_recovered_exactly(self):
        """A degree-d series sampled at n > d nodes transforms back to itself."""
        rng = np.random.default_rng(13)
        iv = Interval(-1.5, 2.5)
        for _ in range(25):
            d = int(rng.integers(0, 12))
            n = int(rng.integers(d + 1, d + 20))
            coeffs = tuple(rng.normal(size=d + 1))
            original = ChebyshevSeries(iv, coeffs)
            series = transform([evaluate(original, x) for x in
                                (from_standard(iv, float(t)) for t in standard_nodes(n))], iv)
            recovered = series.coeffs[: d + 1]
            assert np.allclose(recovered, coeffs, atol=1e-12, rtol=0)
            if len(series.coeffs) > d + 1:
                assert max(abs(c) for c in series.coeffs[d + 1:]) <= 1e-12


class TestSeriesConstruction:
    def test_rejects_empty_and_two_dimensional_input(self):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            ChebyshevSeries(Interval(-1, 1), ())
        with pytest.raises(ValueError, match="non-empty 1-D"):
            ChebyshevSeries(Interval(-1, 1), np.ones((2, 3)))
        with pytest.raises(ValueError, match="non-empty 1-D"):
            ChebyshevSeries(Interval(-1, 1), 1.0)

    def test_non_finite_coefficient_names_the_first_bad_index(self):
        with pytest.raises(ValueError, match=r"^series coefficient 2 is non-finite \(nan\)$"):
            series_on(-1, 1, 1.0, 2.0, math.nan, math.inf)
        with pytest.raises(ValueError, match=r"^series coefficient 0 is non-finite \(-inf\)$"):
            series_on(-1, 1, -math.inf)

    def test_coefficients_are_a_write_locked_float64_copy(self):
        source = np.array([1.0, 2.0, 3.0])
        series = ChebyshevSeries(Interval(-1, 1), source)
        assert series.coeffs.dtype == np.float64 and series.coeffs.shape == (3,)
        assert not series.coeffs.flags.writeable
        with pytest.raises(ValueError):
            series.coeffs[0] = 5.0
        source[0] = 5.0
        assert series.coeffs.tolist() == [1.0, 2.0, 3.0]

    def test_equality_by_value_and_not_hashable(self):
        a = series_on(-1, 1, 1.0, 0.0)
        assert a == series_on(-1, 1, 1.0, -0.0)
        assert a == ChebyshevSeries(Interval(-1, 1), np.array([1, 0]))
        assert a != series_on(-1, 1, 1.0, 0.0, 0.0)
        assert a != series_on(-1, 2, 1.0, 0.0)
        assert a != (1.0, 0.0)
        with pytest.raises(TypeError):
            hash(a)


# Plain-Python references: the coefficient loops the array code replaced.

def reference_differentiate(coeffs, width):
    n = len(coeffs) - 1
    if n == 0:
        return [0.0]
    d = [0.0] * (n + 2)
    for jj in range(n, 0, -1):
        d[jj - 1] = d[jj + 1] + 2.0 * jj * coeffs[jj]
    d[0] *= 0.5
    scale = 2.0 / width
    return [v * scale for v in d[:n]]


def reference_chop_length(coeffs, rel_tol, scale=None):
    cut = rel_tol * (max(abs(v) for v in coeffs) if scale is None else scale)
    keep = len(coeffs)
    while keep > 1 and abs(coeffs[keep - 1]) <= cut:
        keep -= 1
    return keep


def bits(values):
    """Bytes of a float64 vector, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).tobytes()


def random_series(rng):
    """Degree 0-130, per-coefficient scales up to 1e+-200, signed zeros and
    exact-zero tails."""
    n = int(rng.integers(1, 132))
    c = rng.normal(size=n)
    if rng.random() < 0.5:
        c *= 10.0 ** rng.integers(-200, 201, size=n)
    c[rng.random(n) < 0.1] = 0.0
    c[rng.random(n) < 0.1] = -0.0
    tail = int(rng.integers(0, n))
    if rng.random() < 0.3 and tail:
        c[-tail:] = rng.choice([0.0, -0.0], size=tail)
    a = float(rng.uniform(-50, 50))
    return ChebyshevSeries(Interval(a, a + float(rng.uniform(1e-3, 100))), c)


class TestArrayEquivalence:
    def test_differentiate_matches_the_recurrence_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for _ in range(400):
            series = random_series(rng)
            expected = reference_differentiate(series.coeffs.tolist(), series.interval.width)
            assert bits(differentiate(series).coeffs) == bits(expected)

    def test_differentiate_keeps_a_negative_zero_term_positive(self):
        # d[n-1] = 0.0 + 2n*c[n] is +0.0 even when c[n] is -0.0
        for coeffs in ((1.0, -0.0), (1.0, 2.0, -0.0), (3.0, -0.0, -0.0, -0.0)):
            d = differentiate(series_on(-1, 1, *coeffs)).coeffs
            assert bits(d) == bits(reference_differentiate(coeffs, 2.0))
            assert not np.signbit(d).any()

    def test_chop_matches_the_loop(self):
        rng = np.random.default_rng(43)
        for _ in range(400):
            series = random_series(rng)
            c = series.coeffs.tolist()
            for rel_tol, scale in ((1e-13, None), (1e-3, None), (0.0, None), (1.0, None),
                                   (1e-13, max(abs(v) for v in c) * 10.0), (1e-13, 0.0)):
                chopped = chop_series(series, rel_tol, scale)
                keep = reference_chop_length(c, rel_tol, scale)
                assert bits(chopped.coeffs) == bits(c[:keep])
                assert (chopped is series) == (keep == len(c))

    def test_array_evaluate_matches_scalar_calls(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            series = random_series(rng)
            if rng.random() < 0.2:
                series = ChebyshevSeries(series.interval, series.coeffs[:1])
            iv = series.interval
            # points inside, at the ends and up to a width outside the interval
            xs = np.concatenate([[iv.a, iv.b], rng.uniform(iv.a - iv.width, iv.b + iv.width, 40)])
            values = evaluate(series, xs)
            assert isinstance(values, np.ndarray) and values.shape == xs.shape
            assert bits(values) == bits([evaluate(series, x) for x in xs.tolist()])

    def test_scalar_evaluate_returns_a_python_float(self):
        for series in (series_on(-1, 1, 2.5), series_on(0, 3, 1.0, -2.0, 0.5)):
            for x in (0.25, 1, np.float64(0.25), np.float32(0.25)):
                value = evaluate(series, x)
                assert type(value) is float, (series, x)
                assert value == evaluate(series, float(x))
