import math

import numpy as np
import pytest

from chebroots import rootfinder
from chebroots.chebyshev import (Interval, NonFiniteSampleError, chop_series, from_standard,
                                 standard_nodes, transform)
from chebroots.companion import Spectrum
from chebroots.rootfinder import (
    RejectionReason,
    RootConfig,
    build_proxy,
    dedupe_and_sort,
    filter_candidates,
    find_roots,
    newton_polish,
)

BIG = Interval(-10.0, 10.0)
COS_ROOTS = sorted(s * k * math.pi / 2 for k in (1, 3, 5) for s in (1, -1))


def synthetic_spectrum(*values):
    return Spectrum(tuple(complex(v) for v in values), tuple([True] * len(values)))


class Recorder:
    """f that records every x it is called at."""

    def __init__(self, f):
        self.f = f
        self.xs = []

    def __call__(self, x):
        self.xs.append(x)
        return self.f(x)


def fresh_transform(f, interval, n):
    return transform([f(from_standard(interval, float(t))) for t in standard_nodes(n)], interval)


def doubling_ladder_samples(f, interval, config):
    """Samples the plain doubling ladder 16, 32, 64, ... (fresh each rung) takes."""
    n, total = min(16, config.max_adaptive_degree), 0
    tol = max(1e-13, np.finfo(float).eps * max(abs(interval.a), abs(interval.b)) / (interval.width / 2))
    while True:
        total += n
        mags = [abs(c) for c in fresh_transform(f, interval, n).coeffs]
        resolved = all(m <= tol * max(mags) for m in mags[-8:])
        if resolved or n >= config.max_adaptive_degree:
            return total
        n = min(2 * n, config.max_adaptive_degree)


class TestNewtonPolish:
    def test_cosine_from_nearby_start(self):
        result = newton_polish(math.cos, lambda x: -math.sin(x), 1.5, BIG, 12)
        assert result.converged and not result.diverged
        assert result.iterations <= 4
        assert result.x == pytest.approx(math.pi / 2, abs=1e-15)

    def test_square_root_of_two(self):
        result = newton_polish(lambda x: x * x - 2, lambda x: 2 * x, 1.5, Interval(0, 3), 12)
        assert result.x == pytest.approx(math.sqrt(2), abs=1e-15)
        assert result.converged

    def test_exact_root_returns_immediately(self):
        f = lambda x: x - 2.0
        result = newton_polish(f, lambda x: 1.0, 2.0, Interval(0, 5), 12)
        assert result.x == 2.0
        assert result.iterations == 1
        assert result.converged

    def test_zero_derivative_diverges_without_raising(self):
        f = lambda x: x * x + 1.0
        result = newton_polish(f, lambda x: 2 * x, 0.0, Interval(-1, 1), 12)
        assert result.diverged and not result.converged

    def test_escaping_iterate_diverges(self):
        # constant correction of -1 walks left out of the widened interval
        result = newton_polish(math.exp, math.exp, -0.5, Interval(-1, 1), 12)
        assert result.diverged

    def test_never_returns_worse_residual_than_start(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            x0 = float(rng.uniform(-9, 9))
            result = newton_polish(math.cos, lambda x: -math.sin(x), x0, BIG, 12)
            assert result.residual <= abs(math.cos(x0))


class TestFilterCandidates:
    def test_plain_real_accepted(self):
        (cand,) = filter_candidates(synthetic_spectrum(0.5))
        assert cand.accepted
        assert cand.rejection_reason is RejectionReason.NONE

    def test_imaginary_part_checked_first(self):
        (cand,) = filter_candidates(synthetic_spectrum(1.5 + 1e-3j))
        assert not cand.accepted
        assert cand.rejection_reason is RejectionReason.IMAG_TOO_LARGE

    def test_box_tolerance_admits_slightly_outside(self):
        inside, outside = filter_candidates(synthetic_spectrum(1.0000005, 1.1))
        assert inside.accepted
        assert not outside.accepted
        assert outside.rejection_reason is RejectionReason.OUTSIDE_BOX

    def test_boundary_values_are_inclusive(self):
        config = RootConfig()
        spectrum = synthetic_spectrum(
            complex(0.0, config.imag_tol),
            complex(1.0 + config.box_tol, 0.0),
        )
        results = filter_candidates(spectrum, config)
        assert all(c.accepted for c in results)


class TestAdaptiveDegree:
    def test_cosine_converges_before_the_cap(self):
        _, series, converged = build_proxy(math.cos, BIG)
        assert converged
        mags = [abs(c) for c in series.coeffs]
        assert all(m <= 1e-12 * max(mags) for m in mags[-2:]) or len(series.coeffs) < 64

    def test_linear_function_chops_to_degree_one(self):
        _, series, converged = build_proxy(lambda x: x, Interval(-1, 1))
        assert converged
        assert series.degree == 1

    def test_step_function_hits_the_cap(self):
        _, series, converged = build_proxy(lambda x: math.copysign(1.0, x), BIG)
        assert not converged
        assert len(series.coeffs) >= 100  # chop barely trims the cap-degree series

    def test_cosine_reuses_the_16_samples_at_48_nodes(self):
        f = Recorder(math.cos)
        _, _, converged = build_proxy(f, BIG)
        assert converged
        assert len(f.xs) == 48
        assert len(set(f.xs)) == 48

    def test_reused_samples_match_a_fresh_transform(self):
        raw, _, converged = build_proxy(math.cos, BIG, RootConfig())
        assert converged and len(raw.coeffs) == 48
        fresh = fresh_transform(math.cos, BIG, 48).coeffs
        scale = max(abs(c) for c in fresh)
        assert np.max(np.abs(np.array(raw.coeffs) - fresh)) <= 1e-15 * scale

    def test_never_samples_more_than_the_doubling_ladder(self):
        iv = Interval(-1.0, 1.0)
        config = RootConfig()
        seen = set()
        for k in np.geomspace(0.05, 120.0, 60):
            f = Recorder(lambda x, k=k: math.sin(k * x))
            build_proxy(f, iv, config)
            budget = doubling_ladder_samples(lambda x, k=k: math.sin(k * x), iv, config)
            assert len(f.xs) <= budget, k
            seen.add(budget)
        assert seen == {16, 48, 112, 240}  # k passed through every rung

    def test_ladder_rungs_and_sample_counts(self, monkeypatch):
        rungs = []
        original = rootfinder.transform
        monkeypatch.setattr(rootfinder, "transform",
                            lambda samples, iv: rungs.append(len(samples)) or original(samples, iv))
        step = lambda x: math.copysign(1.0, x)
        for cap, ladder, samples in (
            (8, [8], 8),
            (40, [16, 32, 40], 16 + 32 + 40),
            (100, [16, 48, 64, 100], 16 + 32 + 64 + 100),
            (128, [16, 48, 64, 128], 16 + 32 + 64 + 128),
            (512, [16, 48, 64, 192, 256, 512], 16 + 32 + 64 + 128 + 256 + 512),
        ):
            rungs.clear()
            f = Recorder(step)
            _, _, converged = build_proxy(f, Interval(-1.0, 1.0),
                                          RootConfig(max_adaptive_degree=cap))
            assert not converged
            assert rungs == ladder, cap
            assert len(f.xs) == len(set(f.xs)) == samples, cap

    @pytest.mark.parametrize("a, width", [(1.0, 1e-12), (1e6, 1e-4)])
    def test_narrow_interval_resolves_above_its_rounding_noise(self, a, width):
        # the samples carry rounding noise of eps*|a| relative to a width-sized f
        c = a + width / 2
        report = find_roots(lambda x: x - c, Interval(a, a + width))
        assert report.proxy_converged
        assert report.degree_used <= 48
        assert len(report.roots) == 1
        assert report.roots[0] == pytest.approx(c, abs=1e-3 * width)

    def test_narrow_interval_fixed_degree_is_cut_at_the_noise(self):
        _, series, _ = build_proxy(lambda x: x - (1 + 5e-13), Interval(1, 1 + 1e-12),
                                   RootConfig(degree=16))
        assert series.degree == 1

    def test_ordinary_interval_keeps_its_degree_and_cut(self):
        assert find_roots(math.cos, BIG).degree_used == 48
        raw, series, _ = build_proxy(math.cos, BIG, RootConfig(degree=30))
        assert series == chop_series(raw, 1e-13)

    def test_each_rung_is_chopped_once_and_returned(self, monkeypatch):
        rungs, chops = [], []
        transform_, chop_ = rootfinder.transform, rootfinder.chop_series
        monkeypatch.setattr(rootfinder, "transform",
                            lambda samples, iv: rungs.append(len(samples)) or transform_(samples, iv))
        monkeypatch.setattr(rootfinder, "chop_series",
                            lambda series, tol: chops.append(chop_(series, tol)) or chops[-1])
        _, series, converged = build_proxy(math.cos, BIG)
        assert converged
        assert rungs == [16, 48]
        assert len(chops) == 2
        assert series is chops[-1]


class TestDedupe:
    def _candidates(self, locations, residuals):
        from dataclasses import replace

        cands = filter_candidates(synthetic_spectrum(*[x / 10.0 for x in locations]))
        return [
            replace(c, mapped_coord=x, residual=r)
            for c, x, r in zip(cands, locations, residuals)
        ]

    def test_near_duplicates_merge_keeping_smaller_residual(self):
        cands = self._candidates([1.0, 1.0 + 2e-11], [1e-12, 1e-15])
        roots = dedupe_and_sort(cands, BIG)
        assert roots == [1.0 + 2e-11]

    def test_distinct_roots_both_kept_sorted(self):
        cands = self._candidates([2.0, 1.0], [1e-12, 1e-12])
        assert dedupe_and_sort(cands, BIG) == [1.0, 2.0]

    def test_empty_input(self):
        assert dedupe_and_sort([], BIG) == []

    def test_missing_residuals_tolerated(self):
        cands = self._candidates([1.0, 1.0 + 1e-11], [None, None])
        assert dedupe_and_sort(cands, BIG) == [1.0]

    def test_roots_whole_periods_apart_are_not_merged(self):
        # two roots of sin(20x) with the roots between them missed: the
        # midpoint and the probes one gap outside both land near roots
        f = lambda x: math.sin(20 * x)
        step = math.pi / 20
        config = RootConfig(residual_tol=1e-8)
        for j in (2, 4, 6):
            for k in range(-63, 64 - j):
                cands = self._candidates([k * step, (k + j) * step], [1e-15, 1e-15])
                roots, _ = rootfinder._dedupe_candidates(tuple(cands), BIG, config, f)
                assert len(roots) == 2, (k, j)


class TestFindRoots:
    def test_cosine_six_roots(self):
        report = find_roots(math.cos, BIG, RootConfig(degree=30))
        assert len(report.roots) == 6
        assert np.allclose(report.roots, COS_ROOTS, atol=1e-10, rtol=0)
        assert report.degree_used == 30
        assert report.proxy_converged

    def test_exponential_no_roots(self):
        report = find_roots(math.exp, BIG, RootConfig(degree=30))
        assert report.roots == ()

    def test_gaussian_quartic_four_roots(self):
        f = lambda x: math.exp(-0.5 * x * x) * (12 - 48 * x * x + 16 * x ** 4)
        report = find_roots(f, BIG, RootConfig(degree=40))
        inner = math.sqrt((3 - math.sqrt(6)) / 2)
        outer = math.sqrt((3 + math.sqrt(6)) / 2)
        assert np.allclose(report.roots, [-outer, -inner, inner, outer], atol=1e-8, rtol=0)

    def test_duplicate_rejections_recorded(self):
        f = lambda x: (x - 1.0) * (x + 2.0)
        report = find_roots(f, Interval(-5, 5), RootConfig(degree=8, dedupe_tol=0.5))
        assert report.roots == (-2.0,) or len(report.roots) == 1
        reasons = {c.rejection_reason for c in report.candidates if not c.accepted}
        assert RejectionReason.DUPLICATE in reasons

    def test_accepts_plain_interval_tuple(self):
        report = find_roots(math.cos, (-10, 10), RootConfig(degree=30))
        assert len(report.roots) == 6

    def test_non_finite_sample_propagates_with_node(self):
        f = lambda x: math.nan if x < 0 else x
        with pytest.raises(NonFiniteSampleError, match="node"):
            find_roots(f, Interval(-1, 1), RootConfig(degree=8))

    def test_user_derivative_is_used(self):
        calls = {"n": 0}

        def df(x):
            calls["n"] += 1
            return -math.sin(x)

        report = find_roots(math.cos, BIG, RootConfig(degree=30), df=df)
        assert calls["n"] > 0
        assert len(report.roots) == 6

    def test_adaptive_default_on_cosine(self):
        report = find_roots(math.cos, BIG)
        assert report.proxy_converged
        assert len(report.roots) == 6
        assert np.allclose(report.roots, COS_ROOTS, atol=1e-10, rtol=0)

    def test_step_function_flagged_non_converged(self):
        report = find_roots(lambda x: math.copysign(1.0, x), BIG)
        assert not report.proxy_converged
        assert report.degree_used == 128

    def test_every_root_is_an_accepted_candidate(self):
        report = find_roots(math.cos, BIG, RootConfig(degree=30))
        accepted = {c.mapped_coord for c in report.candidates if c.accepted}
        assert set(report.roots) == accepted

    def test_root_at_left_endpoint(self):
        report = find_roots(lambda x: x, Interval(0, 1), RootConfig(degree=8))
        assert len(report.roots) == 1
        assert abs(report.roots[0]) <= 1e-12

    def test_root_at_right_endpoint_of_half_defined_function(self):
        # f is only evaluable on [0, 1]; the root sits exactly at b
        f = lambda x: math.sqrt(x) if x >= 0 else math.nan
        report = find_roots(lambda x: f(x) - 1.0, Interval(0, 1), RootConfig(degree=12))
        assert len(report.roots) == 1
        assert report.roots[0] == pytest.approx(1.0, abs=1e-9)

    def test_root_at_zero(self):
        report = find_roots(math.sin, Interval(-1, 1), RootConfig(degree=16))
        assert len(report.roots) == 1
        assert abs(report.roots[0]) <= 1e-12

    def test_narrow_interval(self):
        report = find_roots(lambda x: x - 5e-7, Interval(0, 1e-6), RootConfig(degree=8))
        assert len(report.roots) == 1
        assert report.roots[0] == pytest.approx(5e-7, rel=1e-9)

    def test_far_from_origin_interval(self):
        target = 1e5 + 0.3
        report = find_roots(lambda x: math.tanh(x - target), Interval(1e5, 1e5 + 1),
                            RootConfig(degree=24))
        assert len(report.roots) == 1
        assert report.roots[0] == pytest.approx(target, abs=1e-8)

    def test_minimal_fixed_degree(self):
        report = find_roots(lambda x: x - 0.25, Interval(-1, 1), RootConfig(degree=2))
        assert report.roots == (0.25,)

    def test_explicit_residual_tol_is_absolute_and_skips_sign_check(self):
        # exp(-x^2) never crosses zero; its tail sits far below 1e-12
        gauss = lambda x: math.exp(-x * x)
        assert find_roots(gauss, BIG, RootConfig(degree=8)).roots == ()
        report = find_roots(gauss, BIG, RootConfig(degree=8, residual_tol=1e-12))
        assert len(report.roots) == 6
        assert all(gauss(x) <= 1e-12 for x in report.roots)
        # a triple root crosses zero, but p'(x) -> 0 drives the automatic threshold to 0
        cube = lambda x: (x - 0.2) ** 3
        assert find_roots(cube, Interval(-1, 1)).roots == ()
        (root,) = find_roots(cube, Interval(-1, 1), RootConfig(residual_tol=1e-12)).roots
        assert root == pytest.approx(0.2, abs=1e-7)

    @pytest.mark.parametrize("power", [4, 6])
    def test_explicit_residual_tol_merges_a_split_even_root(self, power):
        # the proxy splits the root into two real candidates that both pass
        report = find_roots(lambda x: (x - 0.3) ** power, Interval(-1, 1),
                            RootConfig(residual_tol=1e-12))
        (root,) = report.roots
        assert root == pytest.approx(0.3, abs=1e-12 ** (1 / power))
        assert any(c.rejection_reason is RejectionReason.DUPLICATE for c in report.candidates)

    def test_explicit_residual_tol_merges_a_double_root_polished_to_one_side(self):
        # both candidates of the double root at 0.806 polish to its right, so
        # |f| only rises again more than one gap to their left
        f = lambda x: ((x + 0.0311) ** 2 * (x - 0.6579) * (x - 0.6948) ** 3 * (x - 0.806) ** 2
                       * (1 + 0.3 * math.sin(3 * x)))
        roots = find_roots(f, Interval(-1, 1), RootConfig(residual_tol=1e-9)).roots
        assert sum(abs(x - 0.806) < 1e-6 for x in roots) == 1
        assert min(abs(x - 0.6579) for x in roots) < 1e-9

    @pytest.mark.parametrize("f, roots", [
        (lambda x: (x - 0.3) ** 2 * (x - 0.5) ** 2, (0.3, 0.5)),
        (lambda x: (x - 0.3) * (x - 0.3 - 1e-7), (0.3, 0.3 + 1e-7)),
    ], ids=["two-double-roots", "simple-pair-1e-7-apart"])
    def test_explicit_residual_tol_keeps_distinct_roots(self, f, roots):
        report = find_roots(f, Interval(-1, 1), RootConfig(residual_tol=1e-12))
        assert report.roots == pytest.approx(roots, abs=1e-9)

    def test_explicit_residual_tol_never_merges_sign_changes(self):
        # adjacent accepted roots an even number of root spacings apart, the
        # roots between them missed by the unconverged proxy
        report = find_roots(lambda x: math.sin(20 * x), BIG, RootConfig(residual_tol=1e-8))
        assert not any(c.rejection_reason is RejectionReason.DUPLICATE for c in report.candidates)
        assert len(report.roots) == 17
        # four cubic roots with |f| <= 1e-6 between the middle two; a probe a
        # whole gap outside them would jump over the outer roots
        cubes = lambda x: ((x + 0.0142) * (x - 0.0428) * (x - 0.4) * (x - 0.4775)) ** 3 * (
            1 + 0.3 * math.sin(3 * x))
        assert len(find_roots(cubes, Interval(-1, 1), RootConfig(residual_tol=1e-6)).roots) == 4

    def test_vet_evaluation_budget(self):
        """The sign check runs only after the residual test passes.

        Candidates the residual test rejects cost no sign-bracket evaluations,
        so these counts rise if the two checks run in the other order.
        """
        f = lambda x: math.exp(-0.5 * x * x) * (12 - 48 * x * x + 16 * x ** 4)
        assert find_roots(f, BIG, RootConfig(degree=40)).function_evaluations == 292
        gauss = lambda x: math.exp(-x * x)
        assert find_roots(gauss, BIG, RootConfig(degree=8)).function_evaluations == 50


class TestPipelineInvariants:
    def test_completeness_on_random_polynomials(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            d = int(rng.integers(2, 9))
            a, b = sorted(rng.uniform(-8, 8, size=2))
            if b - a < 1:
                b = a + 1
            w = b - a
            while True:
                roots = np.sort(rng.uniform(a + 0.05 * w, b - 0.05 * w, size=d))
                if d == 1 or np.min(np.diff(roots)) >= 0.05 * w:
                    break

            def poly(x, roots=roots):
                out = 1.0
                for r in roots:
                    out *= x - r
                return out

            report = find_roots(poly, Interval(a, b))
            assert len(report.roots) == d
            assert np.max(np.abs(np.array(report.roots) - roots)) <= 1e-8

    def test_no_false_positives_on_sign_definite_functions(self):
        for degree in (20, 25, 33, 48):
            assert find_roots(math.exp, BIG, RootConfig(degree=degree)).roots == ()
            assert find_roots(lambda x: 2 + math.sin(x), BIG, RootConfig(degree=degree)).roots == ()

    def test_polish_never_increases_residual(self):
        report = find_roots(math.cos, BIG, RootConfig(degree=25))
        for cand in report.candidates:
            if not cand.accepted:
                continue
            before = abs(math.cos(from_standard(BIG, cand.standard_coord.real)))
            assert cand.residual <= before + 1e-300

    def test_affine_invariance(self):
        a, b = 3.0, 11.0
        width = b - a

        def f(x):
            return math.cos(3 * x) * (x - 7.3)

        def g(t):  # f composed with the affine map from [-1, 1]
            return f(0.5 * (a + b + width * t))

        for degree in (64, None):
            report_ab = find_roots(f, Interval(a, b), RootConfig(degree=degree))
            report_std = find_roots(g, Interval(-1, 1), RootConfig(degree=degree))
            assert len(report_ab.roots) == len(report_std.roots) == 9, degree
            assert report_ab.degree_used == report_std.degree_used, degree
            mapped = [0.5 * (a + b + width * t) for t in report_std.roots]
            assert np.max(np.abs(np.array(report_ab.roots) - mapped)) <= 1e-9 * width, degree

    def test_mirror_invariance(self):
        # the roots of f(-x) on [-b, -a] are the negated roots of f on [a, b]
        cases = [
            (lambda x: math.cos(3 * x) * (x - 7.3), 3.0, 11.0),
            (lambda x: math.exp(x / 4) * math.sin(5 * x) - 0.3, -2.0, 5.0),
            (lambda x: (x - 0.1) * (x + 0.7) * (x - 0.93), -1.0, 1.0),
        ]
        for f, a, b in cases:
            report = find_roots(f, (a, b))
            mirrored = find_roots(lambda x, f=f: f(-x), (-b, -a))
            assert report.roots, (a, b)
            assert mirrored.degree_used == report.degree_used, (a, b)
            assert mirrored.proxy_converged == report.proxy_converged, (a, b)
            assert len(mirrored.roots) == len(report.roots), (a, b)
            expected = [-r for r in reversed(report.roots)]
            assert np.max(np.abs(np.array(mirrored.roots) - expected)) <= 1e-12 * (b - a), (a, b)

    def test_power_of_two_scaling_invariance(self):
        # scaling by 2^k is exact, so no stage may see a different problem
        expected = [-math.pi, 0.0, math.pi]
        for k in (-1000, -500, -10, 0, 10, 500, 1000):
            scale = 2.0 ** k
            report = find_roots(lambda x: scale * math.sin(x), (-4, 4))
            assert len(report.roots) == 3, k
            assert np.max(np.abs(np.array(report.roots) - expected)) <= 1e-12, k

    def test_unpolished_error_shrinks_with_degree(self):
        errors = []
        for degree in (13, 20, 30):
            report = find_roots(math.cos, BIG, RootConfig(degree=degree, polish=False))
            assert report.roots
            errors.append(
                max(min(abs(r - t) for t in COS_ROOTS) for r in report.roots)
            )
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[2] <= 1e-6

    def test_determinism_bit_identical_reports(self):
        for config in (RootConfig(degree=27), RootConfig()):
            first = find_roots(math.cos, BIG, config)
            second = find_roots(math.cos, BIG, config)
            assert first == second


class TestRootConfigValidation:
    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError, match="degree"):
            RootConfig(degree=1)

    def test_rejects_non_positive_tolerances(self):
        with pytest.raises(ValueError, match="imag_tol"):
            RootConfig(imag_tol=0.0)
        with pytest.raises(ValueError, match="residual_tol"):
            RootConfig(residual_tol=-1e-9)

    @pytest.mark.parametrize("name, value", [
        ("degree", 30.5),
        ("degree", 30.0),
        ("max_adaptive_degree", 40.5),
        ("polish_max_iter", 2.5),
    ])
    def test_rejects_non_integral_counts(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            RootConfig(**{name: value})

    def test_accepts_numpy_integer_counts(self):
        config = RootConfig(degree=np.int64(30), max_adaptive_degree=np.int32(64),
                            polish_max_iter=np.int16(12))
        plain = RootConfig(degree=30, max_adaptive_degree=64)
        assert config == plain
        assert all(type(v) is int for v in (config.degree, config.max_adaptive_degree,
                                             config.polish_max_iter))
        assert find_roots(math.cos, BIG, config) == find_roots(math.cos, BIG, plain)
