import inspect
import math
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from chebroots import chebyshev, rootfinder
from chebroots.chebyshev import (Interval, NonFiniteSampleError, chop_series, evaluate, from_standard,
                                 restrict, standard_nodes, transform)
from chebroots.companion import Spectrum, series_spectrum
from chebroots.expressions import differentiate_expr, eval_expr, parse
from chebroots.rootfinder import (
    RejectionReason,
    RootCandidate,
    RootConfig,
    RootReport,
    build_proxy,
    filter_candidates,
    find_roots,
    newton_polish,
)

BIG = Interval(-10.0, 10.0)
COS_ROOTS = sorted(s * k * math.pi / 2 for k in (1, 3, 5) for s in (1, -1))


def synthetic_spectrum(*values):
    return Spectrum(tuple(complex(v) for v in values))


class Recorder:
    """f that records every x it is called at."""

    def __init__(self, f):
        self.f = f
        self.xs = []

    def __call__(self, x):
        self.xs.append(x)
        return self.f(x)


# roots of the degree-50 Chebyshev polynomial, ascending
CHEBYSHEV_50 = [math.cos((2 * j - 1) * math.pi / 100) for j in range(50, 0, -1)]


@pytest.fixture
def rungs(monkeypatch):
    """The sample count of each transform the ladder takes, in order."""
    sizes = []
    original = rootfinder.transform
    monkeypatch.setattr(rootfinder, "transform",
                        lambda samples, iv: sizes.append(len(samples)) or original(samples, iv))
    return sizes


def fresh_transform(f, interval, n):
    return transform([f(from_standard(interval, float(t))) for t in standard_nodes(n)], interval)


def doubling_ladder_samples(f, interval):
    """Samples the plain doubling ladder 16, 32, 64, 128 (fresh each rung) takes."""
    n, total = 16, 0
    tol = max(1e-13, np.finfo(float).eps * max(abs(interval.a), abs(interval.b)) / (interval.width / 2))
    while True:
        total += n
        mags = [abs(c) for c in fresh_transform(f, interval, n).coeffs]
        resolved = all(m <= tol * max(mags) for m in mags[-8:])
        if resolved or n == 128:
            return total
        n *= 2


class TestNewtonPolish:
    def test_cosine_from_nearby_start(self):
        result = newton_polish(math.cos, lambda x: -math.sin(x), 1.5, BIG)
        assert result.converged and not result.diverged
        assert result.iterations <= 4
        assert result.x == pytest.approx(math.pi / 2, abs=1e-15)

    def test_square_root_of_two(self):
        result = newton_polish(lambda x: x * x - 2, lambda x: 2 * x, 1.5, Interval(0, 3))
        assert result.x == pytest.approx(math.sqrt(2), abs=1e-15)
        assert result.converged

    def test_exact_root_returns_immediately(self):
        f = lambda x: x - 2.0
        result = newton_polish(f, lambda x: 1.0, 2.0, Interval(0, 5))
        assert result.x == 2.0
        assert result.iterations == 1
        assert result.converged

    def test_a_step_that_does_not_move_costs_no_call(self):
        # at an exact root the correction is -0.0, so x + corr is x and f(x)
        # is already known; a correction of one ulp still moves and is tried
        f = Recorder(lambda x: x - 0.25)
        result = newton_polish(f, lambda x: 1.0, 0.25, Interval(0, 1))
        assert (result.x, result.residual, result.converged) == (0.25, 0.0, True)
        assert f.xs == [0.25]
        above = 0.25 + 2.0 ** -54
        f = Recorder(lambda x: x - above)
        result = newton_polish(f, lambda x: 1.0, 0.25, Interval(0, 1))
        assert (result.x, result.residual, result.converged) == (above, 0.0, True)
        assert f.xs == [0.25, above]

    def test_zero_derivative_diverges_without_raising(self):
        f = lambda x: x * x + 1.0
        result = newton_polish(f, lambda x: 2 * x, 0.0, Interval(-1, 1))
        assert result.diverged and not result.converged

    @pytest.mark.parametrize("dfx", [math.nan, 0.0, math.inf])
    def test_exact_root_where_the_derivative_fails_converges(self, dfx):
        # x+0.5*abs(x) has a kink at its root 0: Newton lands on it from 0.3,
        # and there is nothing left to correct whatever df says
        f = parse("x+0.5*abs(x)")
        result = newton_polish(lambda x: eval_expr(f, x), lambda x: 1.5 if x else dfx, 0.3, Interval(-1, 1))
        assert (result.x, result.converged, result.diverged, result.residual) == (0.0, True, False, 0.0)

    @pytest.mark.parametrize("text, root", [("x+0.5*abs(x)", 0.0), ("2*x+abs(x)", 0.0),
                                            ("x-0.2+0.5*abs(x-0.2)", 0.2)])
    def test_root_on_a_kink_with_the_exact_derivative(self, text, root):
        # the exact derivative is NaN at the kink, where abs has none
        f, df = parse(text), differentiate_expr(parse(text))
        assert math.isnan(eval_expr(df, root))
        report = find_roots(lambda x: eval_expr(f, x), (-1.0, 1.0), df=lambda x: eval_expr(df, x))
        assert report.roots == (root,)

    def test_escaping_iterate_diverges(self):
        # constant correction of -1 walks left out of the widened interval
        result = newton_polish(math.exp, math.exp, -0.5, Interval(-1, 1))
        assert result.diverged

    def test_non_finite_start_diverges(self):
        result = newton_polish(lambda x: math.nan, lambda x: 1.0, 0.5, Interval(-1, 1))
        assert result.diverged and result.iterations == 0 and math.isnan(result.residual)

    def test_non_finite_correction_diverges(self):
        # 1/5e-324 overflows to inf
        result = newton_polish(lambda x: 1.0, lambda x: 5e-324, 0.5, Interval(-1, 1))
        assert result.diverged and result.iterations == 1
        assert (result.x, result.residual) == (0.5, 1.0)

    def test_non_finite_next_iterate_diverges(self):
        # the first step lands on x = 1, where f is NaN
        f = lambda x: x - 1.0 if x < 0.5 else math.nan
        result = newton_polish(f, lambda x: 1.0, 0.0, Interval(-2, 2))
        assert result.diverged and result.iterations == 1
        assert (result.x, result.residual, result.final_correction) == (0.0, 1.0, 1.0)

    @pytest.mark.parametrize("x0", [5.0, -5.0])
    def test_a_start_outside_the_interval_is_clamped_first(self, x0):
        # f is evaluated only on [a, b], from the start on
        f = Recorder(lambda x: x * x - 2)
        newton_polish(f, lambda x: 2 * x, x0, Interval(0, 3))
        assert f.xs[0] == (3.0 if x0 > 0 else 0.0) and all(0.0 <= x <= 3.0 for x in f.xs)

    def test_the_iteration_cap_is_fixed(self):
        # x^3 at its triple root: each step takes a third off x, so only the cap stops the run
        assert list(inspect.signature(newton_polish).parameters) == ["f", "df", "x0", "interval"]
        result = newton_polish(lambda x: x ** 3, lambda x: 3 * x * x, 1.0, Interval(-1, 2))
        assert (result.iterations, result.converged, result.diverged) == (12, False, False)

    def test_never_returns_worse_residual_than_start(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            x0 = float(rng.uniform(-9, 9))
            result = newton_polish(math.cos, lambda x: -math.sin(x), x0, BIG)
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
        spectrum = synthetic_spectrum(
            complex(0.0, rootfinder._IMAG_TOL),
            complex(1.0 + rootfinder._BOX_TOL, 0.0),
        )
        results = filter_candidates(spectrum)
        assert all(c.accepted for c in results)

    def test_whole_interval_keeps_eigenvalues_as_they_are(self):
        (cand,) = filter_candidates(synthetic_spectrum(complex(-0.0, 0.0)))
        assert repr(cand.standard_coord) == repr(complex(-0.0, 0.0))

    def test_leaf_box_is_its_own_and_imag_test_the_whole_intervals(self):
        # on the leaf [0, 0.5] of the standard interval, z maps to 0.25 + 0.25*z
        near_real, off_box, tilted = filter_candidates(
            synthetic_spectrum(0.5 + 2e-8j, 1.1, -1.0000005 + 8e-8j), (0.0, 0.5))
        assert near_real.accepted  # |imag| is 5e-9 in the whole interval's coordinate
        assert near_real.standard_coord == complex(0.375, 5e-9)
        assert off_box.rejection_reason is RejectionReason.OUTSIDE_BOX
        assert off_box.standard_coord == complex(0.525, 0.0)
        assert tilted.rejection_reason is RejectionReason.IMAG_TOO_LARGE


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
            budget = doubling_ladder_samples(lambda x, k=k: math.sin(k * x), iv)
            assert len(f.xs) <= budget, k
            seen.add(budget)
        assert seen == {16, 48, 112, 240}  # k passed through every rung

    def test_ladder_rungs_and_sample_counts(self, rungs):
        # the step's 48-node tail rules out 64 nodes, so 64 is skipped
        f = Recorder(lambda x: math.copysign(1.0, x))
        _, _, converged = build_proxy(f, Interval(-1.0, 1.0))
        assert not converged
        assert rungs == [16, 48, 128]
        assert len(f.xs) == len(set(f.xs)) == 16 + 32 + 128

    @pytest.mark.parametrize("f, ladder, roots", [
        # sin(30x)'s 48-node tail rules 64 nodes out; sin(26x)'s does not
        (lambda x: math.sin(30 * x), [16, 48, 128], [j * math.pi / 30 for j in range(-9, 10)]),
        (lambda x: math.sin(26 * x), [16, 48, 64], [j * math.pi / 26 for j in range(-8, 9)]),
        # 64 nodes would resolve this degree-50 polynomial, but its 48-node
        # tail is large, so it is resolved at 128 nodes instead
        (lambda x: math.prod(x - r for r in CHEBYSHEV_50), [16, 48, 128], CHEBYSHEV_50),
    ], ids=["sin30x", "sin26x", "degree50"])
    def test_the_48_node_tail_decides_the_64_node_rung(self, rungs, f, ladder, roots):
        report = find_roots(f, Interval(-1.0, 1.0))
        assert rungs == ladder
        assert report.proxy_converged and report.degree_used == ladder[-1]
        assert report.roots == pytest.approx(roots, rel=0, abs=1e-12)

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

    def test_each_rung_is_chopped_once_and_returned(self, monkeypatch, rungs):
        chops = []
        chop_ = rootfinder.chop_series
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

    @staticmethod
    def _roots(candidates):
        """The roots of a report holding ``candidates``."""
        return RootReport(candidates, (1.0,) * 16, 0, True, RootConfig()).roots  # the ladder's first rung

    def test_near_duplicates_merge_keeping_smaller_residual(self):
        cands = self._candidates([1.0, 1.0 + 2e-11], [1e-12, 1e-15])
        deduped = rootfinder._dedupe_candidates(tuple(cands), BIG)
        assert [c.rejection_reason for c in deduped] == [RejectionReason.DUPLICATE, RejectionReason.NONE]
        assert self._roots(deduped) == (1.0 + 2e-11,)

    def test_distinct_roots_both_kept_sorted(self):
        cands = tuple(self._candidates([2.0, 1.0], [1e-12, 1e-12]))
        deduped = rootfinder._dedupe_candidates(cands, BIG)
        assert deduped == cands
        assert self._roots(deduped) == (1.0, 2.0)

    def test_empty_input(self):
        assert rootfinder._dedupe_candidates((), BIG) == ()

    def test_roots_whole_periods_apart_are_not_merged(self):
        # two roots of sin(20x) with the roots between them missed: the
        # midpoint and the probes one gap outside both land near roots
        f = lambda x: math.sin(20 * x)
        step = math.pi / 20
        for j in (2, 4, 6):
            for k in range(-63, 64 - j):
                cands = self._candidates([k * step, (k + j) * step], [1e-15, 1e-15])
                deduped = rootfinder._dedupe_candidates(tuple(cands), BIG, f, 1e-8)
                assert sum(c.accepted for c in deduped) == 2, (k, j)


class TestDerivedFields:
    """A report's roots and a candidate's acceptance follow from the fates,
    and a report's node count from its decay profile."""

    def test_roots_and_accepted_are_not_constructor_arguments(self):
        report = find_roots(math.cos, BIG, RootConfig(degree=30))
        cand = report.candidates[0]
        with pytest.raises(TypeError):
            RootCandidate(cand.standard_coord, None, True, RejectionReason.NONE, None, 0)
        with pytest.raises(TypeError):
            RootCandidate(standard_coord=0j, mapped_coord=0.0, accepted=True,
                          rejection_reason=RejectionReason.NONE, residual=0.0, polish_iterations=0)
        fields = dict(candidates=report.candidates, coefficient_decay=report.coefficient_decay,
                      function_evaluations=report.function_evaluations, proxy_converged=True,
                      config=report.config)
        assert RootReport(**fields) == report
        with pytest.raises(TypeError):
            RootReport(roots=report.roots, **fields)
        with pytest.raises(TypeError):
            RootReport(degree_used=30, **fields)

    def test_roots_and_accepted_are_read_only(self):
        report = find_roots(math.cos, BIG, RootConfig(degree=30))
        with pytest.raises(AttributeError):
            report.roots = ()
        with pytest.raises(AttributeError):
            report.degree_used = 20
        with pytest.raises(AttributeError):
            report.candidates[0].accepted = False

    @pytest.mark.parametrize("f, interval, config", [
        (math.cos, BIG, RootConfig(degree=30)),
        (lambda x: math.sin(4.6 * x + 0.1), BIG, RootConfig()),  # split into leaves
        (lambda x: (x - 0.3) ** 4, Interval(-1, 1), RootConfig(residual_tol=1e-12)),
        (math.cos, BIG, RootConfig(degree=30, polish=False)),
    ], ids=["fixed", "leaves", "touching", "unpolished"])
    def test_roots_are_the_sorted_accepted_locations(self, f, interval, config):
        report = find_roots(f, interval, config)
        accepted = [c for c in report.candidates if c.rejection_reason is RejectionReason.NONE]
        assert report.roots == tuple(sorted(c.mapped_coord for c in accepted))
        assert all(c.accepted is (c in accepted) for c in report.candidates)
        assert report.roots and all(a < b for a, b in zip(report.roots, report.roots[1:]))

    @pytest.mark.parametrize("accepted", [True, False])
    def test_a_location_contradicting_its_reason_is_refused(self, accepted):
        # only an accepted candidate has a mapped location, in a report built in code too
        report = find_roots(math.cos, BIG, RootConfig(degree=30))
        cands = list(report.candidates)
        i = next(i for i, c in enumerate(cands) if c.accepted is accepted)
        cands[i] = replace(cands[i], mapped_coord=None if accepted else 0.5)
        with pytest.raises(ValueError, match="contradicts its reason"):
            replace(report, candidates=tuple(cands))

    def test_dedupe_returns_only_candidates(self):
        cands = filter_candidates(synthetic_spectrum(0.1, 0.1 + 1e-12, 0.5))
        cands = tuple(replace(c, mapped_coord=c.standard_coord.real, residual=0.0) for c in cands)
        deduped = rootfinder._dedupe_candidates(cands, Interval(-1, 1))
        assert isinstance(deduped, tuple) and all(isinstance(c, RootCandidate) for c in deduped)
        assert [c.rejection_reason for c in deduped] == [RejectionReason.NONE, RejectionReason.DUPLICATE,
                                                         RejectionReason.NONE]


class TestEndState:
    """A report's node count and convergence must be ones a run of its config
    can end on: the fixed degree, converged, or a ladder rung, unconverged
    only on the last."""

    @staticmethod
    def report(config, nodes, converged):
        return RootReport((), (1.0,) * nodes, 0, converged, config)

    @pytest.mark.parametrize("config, nodes, converged", [
        (RootConfig(), 16, True), (RootConfig(), 48, True), (RootConfig(), 64, True),
        (RootConfig(), 128, True), (RootConfig(), 128, False), (RootConfig(degree=30), 30, True),
        (RootConfig(degree=128), 128, True), (RootConfig(degree=2), 2, True),
    ], ids=["rung-16", "rung-48", "rung-64", "rung-128", "last-rung-unconverged", "fixed-30", "fixed-128",
            "fixed-2"])
    def test_an_end_state_of_a_run_is_accepted(self, config, nodes, converged):
        assert self.report(config, nodes, converged).degree_used == nodes

    @pytest.mark.parametrize("config, nodes, converged", [
        (RootConfig(), 48, False), (RootConfig(), 16, False), (RootConfig(), 20, True),
        (RootConfig(), 0, True), (RootConfig(), 256, True), (RootConfig(degree=30), 30, False),
        (RootConfig(degree=30), 48, True), (RootConfig(degree=128), 128, False),
    ], ids=["rung-48-unconverged", "rung-16-unconverged", "not-a-rung", "no-nodes", "past-the-ladder",
            "fixed-unconverged", "fixed-30-at-48", "fixed-128-unconverged"])
    def test_no_run_ends_there(self, config, nodes, converged):
        with pytest.raises(ValueError, match=f"ends at {nodes} nodes with proxy_converged={converged}"):
            self.report(config, nodes, converged)

    def test_adaptive_report_below_the_last_rung_cannot_be_unconverged(self):
        report = find_roots(math.cos, BIG)
        assert report.degree_used == 48 and report.proxy_converged
        with pytest.raises(ValueError, match="no run of"):
            replace(report, proxy_converged=False)

    def test_unconverged_run_ends_on_the_last_rung(self):
        report = find_roots(lambda x: math.sin(20 * x), BIG)
        assert (report.degree_used, report.proxy_converged) == (rootfinder._RUNGS[-1], False)


class TestNonFiniteResidual:
    """f is NaN where the proxy puts its one root: |f - 0.3| times a 0/0."""

    TEXT = "(x-0.3)*sqrt((x-0.3)^2-0.0001)/sqrt((x-0.3)^2-0.0001)"

    @pytest.mark.parametrize("residual_tol", [None, 1e-12], ids=["automatic", "explicit"])
    def test_unpolished_candidate_at_nan_is_rejected(self, residual_tol):
        tree = parse(self.TEXT)
        config = RootConfig(degree=8, polish=False, residual_tol=residual_tol)
        report = find_roots(lambda x: eval_expr(tree, x), Interval(-1, 1), config)
        assert report.roots == ()
        nan_at = [c for c in report.candidates if c.rejection_reason is RejectionReason.RESIDUAL_TOO_LARGE]
        assert nan_at and all(c.residual is None and c.mapped_coord is None for c in nan_at)
        assert not any(c.accepted for c in report.candidates)

    def test_infinite_residual_fails_the_largest_tolerance(self):
        f = lambda x: math.inf if abs(x - 0.3) < 1e-3 else x - 0.3
        config = RootConfig(degree=8, polish=False, residual_tol=sys.float_info.max)
        report = find_roots(f, Interval(-1, 1), config)
        assert report.roots == ()
        inf_at = [c for c in report.candidates if c.rejection_reason is RejectionReason.RESIDUAL_TOO_LARGE]
        assert len(inf_at) == 1 and inf_at[0].residual is None and inf_at[0].mapped_coord is None


class TestPolishSlack:
    """A Newton step may land up to _BOX_TOL*width/2 outside [a, b]: within
    that slack it is clamped to the endpoint, beyond it the candidate is
    rejected as diverged."""

    SLACK = rootfinder._BOX_TOL * Interval(-1, 1).width / 2.0

    def test_root_within_the_slack_is_clamped(self):
        root = 1.0 + 5e-7
        assert root <= 1.0 + self.SLACK
        report = find_roots(lambda x: x - root, Interval(-1, 1), RootConfig(residual_tol=1e-6))
        assert report.roots == (1.0,)

    def test_root_beyond_the_slack_is_newton_diverged(self):
        # T_20's alias at 16 nodes moves the proxy's root inside the box
        t20 = [0.0] * 20 + [1.0]
        f = lambda x: x - 1.000002 - 2e-6 * float(np.polynomial.chebyshev.chebval(x, t20))
        assert f(1.0 + self.SLACK) < 0.0  # f increases, so its root lies beyond the slack
        report = find_roots(f, Interval(-1, 1), RootConfig(degree=16, residual_tol=1e-3))
        assert report.roots == ()
        (edge,) = [c for c in report.candidates if abs(c.standard_coord.real) <= 1.0 + rootfinder._BOX_TOL
                   and abs(c.standard_coord.imag) <= rootfinder._IMAG_TOL]
        assert edge.rejection_reason is RejectionReason.NEWTON_DIVERGED


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
        # the quadruple root's eigenvalues split; two real ones pass the explicit test
        report = find_roots(lambda x: (x - 0.3) ** 4, Interval(-1, 1), RootConfig(residual_tol=1e-12))
        assert len(report.roots) == 1
        reasons = {c.rejection_reason for c in report.candidates if not c.accepted}
        assert RejectionReason.DUPLICATE in reasons

    def test_accepts_plain_interval_tuple(self):
        report = find_roots(math.cos, (-10, 10), RootConfig(degree=30))
        assert len(report.roots) == 6

    def test_a_pair_whose_endpoints_are_no_floats_is_a_value_error(self):
        with pytest.raises(ValueError, match="finite numbers"):
            find_roots(math.sin, (0, 10**400))

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

    @pytest.mark.parametrize("a, b, root", [(0.0, 1e-323, 5e-324), (5e-324, 1.5e-323, 1e-323)])
    def test_narrowest_intervals_that_halve_find_their_root(self, a, b, root):
        assert find_roots(lambda x: x - root, (a, b)).roots == (root,)

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

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("c", [-0.27, 0.3, 0.36, 0.4, 0.45, 0.7, 0.72, 0.75, 0.78, 0.806])
    def test_explicit_residual_tol_merges_a_double_root_where_f_is_exactly_zero(self, c, tol):
        # cancellation makes 1 - cos(x - c) exactly 0 within about 1e-8 of c,
        # so the probes between the two candidates, and some outside, read 0
        roots = find_roots(lambda x: 1 - math.cos(x - c), Interval(-1, 1),
                           RootConfig(residual_tol=tol)).roots
        assert len(roots) == 1
        assert roots[0] == pytest.approx(c, abs=1e-7)

    @pytest.mark.parametrize("f, roots", [
        (lambda x: (x - 0.3) ** 2 * (x - 0.5) ** 2, (0.3, 0.5)),
        (lambda x: (x - 0.3) * (x - 0.3 - 1e-7), (0.3, 0.3 + 1e-7)),
    ], ids=["two-double-roots", "simple-pair-1e-7-apart"])
    def test_explicit_residual_tol_keeps_distinct_roots(self, f, roots):
        report = find_roots(f, Interval(-1, 1), RootConfig(residual_tol=1e-12))
        assert report.roots == pytest.approx(roots, abs=1e-9)

    @pytest.mark.parametrize("c, gap, a, b", [
        (1e3 + 0.3, 1e-5, 999.0, 1001.0),
        (1e6 + 0.3, 0.01, 1e6 - 1.0, 1e6 + 1.0),
        (0.0, 1.0, -1e6, 1e6),
        (0.0, 1e-6, -100.0, 100.0),
    ], ids=["pair-at-1e3", "pair-at-1e6", "pair-at-0-wide", "pair-at-0-1e-6-apart"])
    def test_sign_check_keeps_close_roots_far_from_zero(self, c, gap, a, b):
        # the sign-check bracket is no wider than either the interval's
        # half-width or max(1, |x|) times sqrt(eps), so it does not step over
        # the neighbouring root on a narrow interval far from 0 or on a wide
        # interval near 0
        report = find_roots(lambda x: (x - c) * (x - c - gap), Interval(a, b))
        assert report.roots == pytest.approx((c, c + gap), rel=0, abs=1e-9 * max(1.0, c))

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
        """The sign check runs only after the residual test passes, and
        costs no evaluations where the samples certify it.

        Candidates the residual test rejects cost no sign-bracket evaluations,
        so the Gaussian's count rises if the two checks run in the other
        order.  The 4 roots of the Hermite-like f each lie alone in a gap of
        the 40 samples across which f changes sign, so none of them costs a
        sign-bracket evaluation either; the count rises by 2 per root if they
        do.
        """
        f = lambda x: math.exp(-0.5 * x * x) * (12 - 48 * x * x + 16 * x ** 4)
        assert find_roots(f, BIG, RootConfig(degree=40)).function_evaluations == 276
        gauss = lambda x: math.exp(-x * x)
        assert find_roots(gauss, BIG, RootConfig(degree=8)).function_evaluations == 46


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
            # a + b overflows here unless the interval maps are scaled
            (lambda x: x - 1.5e308, 1e308, 1.7e308),
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
        for k in (-1000, -500, -10, 0, 10, 500, 1000, 1020, 1021, 1022, 1023):
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

    def test_skipping_the_64_node_rung_changes_only_the_evaluations(self, monkeypatch):
        # on a seeded corpus of sines, Runge bumps, Gaussians and random trig
        # sums, centred and far from 0 (noise level up to 4.4e-5), every
        # skip is one that 64 nodes could not have resolved
        rng = np.random.default_rng(83)
        shapes = []
        for k, phi in rng.uniform((1.0, 0.0), (70.0, 3.0), size=(12, 2)).tolist():
            shapes.append(lambda u, k=k, phi=phi: math.sin(k * u + phi))
        for s, mu, level in rng.uniform((0.02, -0.8, 0.1), (0.5, 0.8, 0.9), size=(8, 3)).tolist():
            shapes.append(lambda u, s=s, mu=mu, level=level: 1.0 / (1.0 + ((u - mu) / s) ** 2) - level)
        for _ in range(8):
            bumps = rng.uniform((-2.0, 0.05, 0.2), (2.0, 1.0, 1.0), size=(int(rng.integers(1, 7)), 3)).tolist()
            shapes.append(lambda u, b=bumps, c=float(rng.uniform(0.05, 0.8)):
                          sum(h * math.exp(-((3 * u - mu) / s) ** 2) for mu, s, h in b) - c)
        for _ in range(12):
            w, count = float(rng.uniform(0.25, 4.0)), int(rng.integers(1, 31))
            terms = [(float(rng.normal()) / (1 + j) ** float(rng.uniform(0, 1.5)), j, float(rng.uniform(0, 2 * math.pi)))
                     for j in range(1, count + 1)]
            shapes.append(lambda u, t=terms, w=w: sum(c * math.cos(j * w * u + p) for c, j, p in t))
        corpus = [(lambda x, g=g, c=c, h=h: g((x - c) / h), Interval(c - h, c + h))
                  for g in shapes for c, h in ((0.0, 1.0), (1e4, 1e-4), (1e8, 5e-4))]
        skipping = [find_roots(f, interval) for f, interval in corpus]
        monkeypatch.setattr(rootfinder, "_SKIP_POWER", 0.0)  # the level is then max|c|, never passed
        skipped = 0
        for report, (f, interval) in zip(skipping, corpus):
            kept = find_roots(f, interval)
            assert replace(report, function_evaluations=0) == replace(kept, function_evaluations=0)
            assert kept.function_evaluations - report.function_evaluations in (0, 64)
            skipped += kept.function_evaluations > report.function_evaluations
        assert skipped >= 40, skipped

    def test_f_is_evaluated_only_on_the_interval(self):
        # Newton steps that leave [a, b] within the box slack are clamped to
        # the endpoint, so no stage probes f where it may be undefined
        rng = random.Random(3)
        draws = [(rng.uniform(1, 30), rng.uniform(0, 6), rng.uniform(-0.45, 0.45)) for _ in range(200)]
        families = [
            (lambda k, phi, c: lambda x: math.cos(k * x + phi) + c, (0.0, 2.0)),
            (lambda k, phi, c: lambda x: math.sin(k * x + phi) * math.sqrt(1 - x * x) + 0.4 * c, (-1.0, 1.0)),
        ]
        configs = (RootConfig(degree=20), RootConfig(), RootConfig(residual_tol=1e-8), RootConfig(polish=False))
        for config in configs:
            for family, (a, b) in families:
                for draw in draws:
                    f = Recorder(family(*draw))
                    find_roots(f, (a, b), config)  # sqrt raises ValueError below -1 and above 1
                    assert all(a <= x <= b for x in f.xs), (config, draw, min(f.xs), max(f.xs))

    def test_determinism_bit_identical_reports(self):
        for config in (RootConfig(degree=27), RootConfig()):
            first = find_roots(math.cos, BIG, config)
            second = find_roots(math.cos, BIG, config)
            assert first == second


def gaussian_sine(k):
    return lambda x: math.sin(k * x + 0.3) * math.exp(-x * x / 4)


def wilkinson20(x):
    return math.prod(x - k for k in range(1, 21))


def sample_sign_corpus():
    """(f, interval, config): the README's cases and cases like the benchmark's."""
    rng = np.random.default_rng(71)
    quartic = lambda x: math.exp(-0.5 * x * x) * (12 - 48 * x * x + 16 * x ** 4)
    waves = rng.uniform((0.1, 0.0), (0.5, 2 * math.pi), size=(20, 2)).tolist()
    costly_like = lambda x: math.sin(2.1 * x + 0.7) * math.exp(0.1 * sum(math.cos(w * x + p) for w, p in waves))
    cases = [(math.cos, BIG, RootConfig(degree=d)) for d in (12, 13, 20, 30)]
    cases += [(math.exp, BIG, RootConfig(degree=d)) for d in (8, 13, 20, 30)]
    cases += [(quartic, BIG, RootConfig(degree=d)) for d in (10, 20, 30, 40, None)]
    cases += [
        (math.cos, BIG, RootConfig()),
        (math.sin, Interval(999.0, 1001.0), RootConfig()),
        (lambda x: (x - 1000) * (x - 1000 - 1e-5), Interval(999.0, 1001.0), RootConfig()),
        (lambda x: x * (x - 1), Interval(-1e6, 1e6), RootConfig()),
        (wilkinson20, Interval(0.0, 21.0), RootConfig()),
        (costly_like, Interval(-20.0, 20.0), RootConfig()),
    ]
    for k, phi in rng.uniform((1.0, 0.0), (12.0, 3.0), size=(6, 2)).tolist():
        cases.append((lambda x, k=k, phi=phi: math.sin(k * x + phi), BIG, RootConfig(degree=256)))
        cases.append((gaussian_sine(k), BIG, RootConfig(degree=64)))
    for _ in range(6):
        roots = np.sort(rng.uniform(-0.9, 0.9, size=int(rng.integers(2, 9))))
        cases.append((lambda x, r=roots: math.prod(x - root for root in r), Interval(-1.0, 1.0), RootConfig()))
    # 50 random factors, where |f| falls below the proxy's noise level between
    # roots: the 4th product of test_metamorphic.PRODUCTS
    draws = random.Random(5)
    for _ in range(4):
        n = draws.randint(20, 50)
        factors = sorted(draws.uniform(-1, 1) for _ in range(n))
    cases.append((lambda x: math.prod(x - r for r in factors), Interval(-1.0, 1.0), RootConfig()))
    return cases


class TestSampleSignCertificate:
    """A root alone in a gap of the final rung's samples across which they
    change sign skips :func:`rootfinder._crosses`; nothing else changes."""

    def test_certified_roots_pass_the_bracket_test(self, monkeypatch):
        # every certified location must pass _crosses on the uncounted f too
        certify = rootfinder._samples_cross
        case, tally = {}, {True: 0, False: 0}

        def checked(signs, x):
            certified = certify(signs, x)
            tally[certified] += 1
            assert not certified or rootfinder._crosses(case["f"], x, case["interval"]), (case, x)
            return certified

        monkeypatch.setattr(rootfinder, "_samples_cross", checked)
        for f, interval, config in sample_sign_corpus():
            case.update(f=f, interval=interval)
            find_roots(f, interval, config)
        assert tally[True] > 150 and tally[False] > 0, tally

    def test_reports_differ_only_in_evaluations(self, monkeypatch):
        corpus = sample_sign_corpus()
        certified = [find_roots(f, interval, config) for f, interval, config in corpus]
        monkeypatch.setattr(rootfinder, "_samples_cross", lambda signs, x: False)
        saved = 0
        for report, (f, interval, config) in zip(certified, corpus):
            bracketed = find_roots(f, interval, config)
            assert replace(report, function_evaluations=0) == replace(bracketed, function_evaluations=0)
            assert bracketed.function_evaluations >= report.function_evaluations
            saved += bracketed.function_evaluations - report.function_evaluations
        assert saved > 300

    def test_fallbacks_keep_their_results(self, monkeypatch):
        crosses = rootfinder._crosses
        calls = []
        monkeypatch.setattr(rootfinder, "_crosses", lambda f, x, interval: calls.append(x) or crosses(f, x, interval))
        unit = Interval(-1.0, 1.0)

        def run(f, config, roots, evaluations, brackets):
            calls.clear()
            report = find_roots(f, unit, config)
            assert report.roots == pytest.approx(roots, abs=1e-12)
            assert (report.function_evaluations, len(calls)) == (evaluations, brackets)

        # two roots in one gap of the samples
        run(lambda x: (x - 0.3) * (x - 0.3 - 1e-7), RootConfig(), (0.3, 0.3 + 1e-7), 26, 2)
        # three roots in one gap, across which the samples do change sign
        run(lambda x: (x - 0.3) * (x - 0.3 - 1e-4) * (x - 0.3 - 2e-4), RootConfig(), (0.3, 0.3001, 0.3002), 31, 3)
        # a root between a and the outermost node, -0.98 at 8 nodes
        run(lambda x: x + 0.9999, RootConfig(degree=8), (-0.9999,), 11, 1)
        # samples of one sign: the bracket rejects the proxy's crossings
        gauss = lambda x: math.exp(-50 * x * x)
        run(gauss, RootConfig(), (), 264, 0)
        run(gauss, RootConfig(degree=8), (), 48, 4)
        run(lambda x: x * x + 1e-10, RootConfig(), (), 16, 0)

    @pytest.mark.parametrize("mode", [{"residual_tol": 1e-10}, {"polish": False}], ids=["residual_tol", "no_polish"])
    def test_modes_without_a_sign_check_never_consult_the_samples(self, monkeypatch, mode):
        corpus = [(f, interval, replace(config, **mode)) for f, interval, config in sample_sign_corpus()]
        reports = [find_roots(f, interval, config) for f, interval, config in corpus]
        monkeypatch.setattr(rootfinder, "_samples_cross", lambda signs, x: pytest.fail("samples consulted"))
        assert [find_roots(f, interval, config) for f, interval, config in corpus] == reports


class TestLeaves:
    """A chopped proxy above _LEAF coefficients is split for the eigen stage."""

    OFF = 10**9

    def test_root_on_the_split_point(self):
        s = rootfinder._SPLIT
        report = find_roots(lambda x: math.sin(60 * (x - s)), Interval(-1, 1), RootConfig(degree=128))
        assert len(report.roots) == 39
        assert min(abs(r - s) for r in report.roots) <= 1e-15
        # both leaves find the root on the split; the second copy is merged
        duplicates = [c for c in report.candidates if c.rejection_reason is RejectionReason.DUPLICATE]
        assert len(duplicates) == 1
        assert abs(from_standard(Interval(-1, 1), duplicates[0].standard_coord.real) - s) <= 1e-12

    @pytest.mark.parametrize("f, interval, degree", [
        *[pytest.param(gaussian_sine(k), (-3.0, 3.0), degree, id=f"gaussian-sin{k:g}x-{degree}")
          for k in (3.0, 7.0, 12.0) for degree in (None, 100, 200)],
        pytest.param(wilkinson20, (0.0, 21.0), None, id="wilkinson20"),
        pytest.param(lambda x: math.sin(20 * x), (-10.0, 10.0), 257, id="sin20x-257"),
    ])
    def test_same_roots_split_on_and_off(self, monkeypatch, f, interval, degree):
        reports = {}
        for leaf in (16, self.OFF):
            monkeypatch.setattr(rootfinder, "_LEAF", leaf)
            reports[leaf] = find_roots(f, interval, RootConfig(degree=degree))
        split, whole = reports[16], reports[self.OFF]
        assert len(split.candidates) > len(whole.candidates)  # it did split
        assert len(split.roots) == len(whole.roots) > 0
        width = interval[1] - interval[0]
        assert max(abs(x - y) for x, y in zip(split.roots, whole.roots)) <= 1e-12 * width

    @pytest.mark.parametrize("f, interval", [
        pytest.param(math.cos, (-10.0, 10.0), id="cos"),
        pytest.param(wilkinson20, (0.0, 21.0), id="wilkinson20"),
        pytest.param(gaussian_sine(7.0), (-3.0, 3.0), id="gaussian-sin7x"),
    ])
    def test_small_proxy_report_is_unchanged(self, monkeypatch, f, interval):
        _, chopped, _ = build_proxy(f, interval)
        assert len(chopped.coeffs) <= rootfinder._LEAF
        report = find_roots(f, interval)
        monkeypatch.setattr(rootfinder, "_LEAF", self.OFF)
        assert repr(find_roots(f, interval)) == repr(report)

    def test_candidates_are_in_the_whole_interval_coordinate(self):
        interval = Interval(-4.0, 4.0)
        f = lambda x: math.sin(30 * x)
        report = find_roots(f, interval, RootConfig(degree=256))
        assert len(report.roots) == 77
        # the candidates are the leaves' eigenvalues, each mapped from its leaf
        _, chopped, _ = build_proxy(f, interval, RootConfig(degree=256))
        leaves = rootfinder._leaves(chopped, 1e-13, max(abs(c) for c in chopped.coeffs))
        assert len(leaves) > 1
        expected = []
        for lo, hi, leaf in leaves:
            assert leaf.interval.a == pytest.approx(from_standard(interval, lo), abs=1e-15)
            assert leaf.interval.b == pytest.approx(from_standard(interval, hi), abs=1e-15)
            expected += [complex((lo + hi) / 2 + (hi - lo) / 2 * z.real, (hi - lo) / 2 * z.imag)
                         for z in series_spectrum(leaf).values]
        assert [c.standard_coord for c in report.candidates] == expected
        for cand in report.candidates:
            if cand.accepted:
                assert interval.a <= cand.mapped_coord <= interval.b
                assert abs(from_standard(interval, cand.standard_coord.real) - cand.mapped_coord) <= 1e-9

    def test_each_leaf_vets_with_its_own_derivative(self, monkeypatch):
        lengths = {"differentiate": [], "evaluate": []}
        for name in lengths:
            original = getattr(rootfinder, name)
            monkeypatch.setattr(rootfinder, name, lambda series, *args, n=name, fn=original:
                                lengths[n].append(len(series.coeffs)) or fn(series, *args))
        f = lambda x: math.sin(30 * x)
        report = find_roots(f, Interval(-4.0, 4.0), RootConfig(degree=256))
        assert len(report.roots) == 77
        _, chopped, _ = build_proxy(f, Interval(-4.0, 4.0), RootConfig(degree=256))
        leaves = rootfinder._leaves(chopped, 1e-13, max(abs(c) for c in chopped.coeffs))
        assert lengths["differentiate"] == [len(leaf.coeffs) for _, _, leaf in leaves]
        assert lengths["evaluate"] and max(lengths["evaluate"]) < rootfinder._LEAF

    def test_leaf_below_the_noise_level_has_no_candidates(self):
        # right of about -0.1, f is below the proxy's noise level
        f = lambda x: (x + 0.5) * math.exp(-300 * (x + 0.5) ** 2)
        _, chopped, _ = build_proxy(f, Interval(-1, 1), RootConfig(degree=256))
        leaves = rootfinder._leaves(chopped, 1e-13, max(abs(c) for c in chopped.coeffs))
        lo, hi, last = leaves[-1]
        assert lo < 0.0 and hi == 1.0 and last.coeffs.tolist() == [last.coeffs[0]]
        report = find_roots(f, Interval(-1, 1), RootConfig(degree=256))
        assert report.roots == pytest.approx((-0.5,), abs=1e-15)
        assert all(c.standard_coord.real < 0.0 for c in report.candidates if c.residual is not None)

    def test_restricted_piece_matches_its_parent(self):
        _, parent, _ = build_proxy(lambda x: math.sin(30 * x), Interval(-4.0, 4.0), RootConfig(degree=256))
        assert len(parent.coeffs) > 128
        scale = sum(abs(c) for c in parent.coeffs)
        s = rootfinder._SPLIT
        # each level restricts in its own standard coordinate
        for piece in (restrict(parent, -1.0, s), restrict(parent, s, 1.0),
                      restrict(restrict(parent, s, 1.0), -1.0, s)):
            assert len(piece.coeffs) == len(parent.coeffs)
            for x in np.linspace(piece.interval.a, piece.interval.b, 50):
                assert abs(evaluate(piece, x) - evaluate(parent, x)) <= 1e-14 * scale, x

    def test_restriction_of_a_chebyshev_polynomial(self):
        # T_2(t) on [0, 1], with t = (1 + u)/2: 2t^2 - 1 = (T_0(u) + 4 T_1(u) + T_2(u)) / 4 - 1/2
        piece = restrict(chebyshev.ChebyshevSeries(Interval(-1, 1), (0.0, 0.0, 1.0)), 0.0, 1.0)
        assert piece.interval == Interval(0.0, 1.0)
        assert piece.coeffs.tolist() == pytest.approx([-0.25, 1.0, 0.25], abs=1e-16)

    @pytest.mark.parametrize("lo, hi", [(-2.0, 0.0), (0.0, 1.5), (0.5, 0.5), (0.5, -0.5), (math.nan, 0.0)],
                             ids=["below", "above", "empty", "reversed", "nan"])
    def test_restriction_outside_the_standard_interval_is_refused(self, lo, hi):
        # [-2, 0] of a series on [0, 1] would extrapolate it to [-0.5, 0.5]
        series = chebyshev.ChebyshevSeries(Interval(0.0, 1.0), (0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match=f"^restrict requires -1 <= lo < hi <= 1, got lo={lo!r}, hi={hi!r}$"):
            restrict(series, lo, hi)

    def test_threads_share_fresh_caches(self):
        # four threads race to fill the restriction and transform caches
        f = lambda x: math.sin(30 * x)
        config = RootConfig(degree=256)
        expected = repr(find_roots(f, (-4.0, 4.0), config))
        chebyshev._restriction.cache_clear()
        chebyshev._cosine_basis.cache_clear()
        start = threading.Barrier(4, timeout=30)
        results = [None] * 4

        def worker(k):
            start.wait()
            results[k] = repr(find_roots(f, (-4.0, 4.0), config))

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4

    def test_one_transform_per_ladder_rung(self, monkeypatch):
        calls = []
        for module in (rootfinder, chebyshev):
            original = module.transform
            monkeypatch.setattr(module, "transform",
                                lambda samples, iv, t=original: calls.append(len(samples)) or t(samples, iv))
        f = lambda x: math.sin(4.6 * x + 0.1)
        split = find_roots(f, BIG)
        assert calls == [16, 48, 128]
        calls.clear()
        monkeypatch.setattr(rootfinder, "_LEAF", self.OFF)
        whole = find_roots(f, BIG)
        assert calls == [16, 48, 128]
        assert len(split.candidates) > len(whole.candidates)  # the first proxy was split


class TestRootConfigValidation:
    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError, match="degree"):
            RootConfig(degree=1)

    @pytest.mark.parametrize("value", [-1e-9, 0.0, math.nan, math.inf, pytest.param(10**400, id="10**400"),
                                       pytest.param(Fraction(1, 10**400), id="10**-400")])
    def test_rejects_a_residual_tol_that_is_not_positive_and_finite(self, value):
        # an infinite tolerance would accept any finite residual; the test is
        # on the float the config holds, so 10**400 overflows and 10**-400 is 0
        with pytest.raises(ValueError, match="^residual_tol must be positive and finite"):
            RootConfig(residual_tol=value)

    @pytest.mark.parametrize("name, value", [
        ("degree", 30.5),
        ("degree", 30.0),
        ("degree", True),
    ])
    def test_rejects_non_integral_counts(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            RootConfig(**{name: value})

    def test_node_count_is_bounded(self):
        assert RootConfig(degree=4096).degree == 4096
        with pytest.raises(ValueError, match="^degree must be at most 4096, got 4097$"):
            RootConfig(degree=4097)
        with pytest.raises(ValueError, match="^degree must be at most 4096"):
            RootConfig(degree=np.int64(10**8))

    def test_accepts_numpy_integer_counts(self):
        config = RootConfig(degree=np.int64(30))
        plain = RootConfig(degree=30)
        assert config == plain
        assert type(config.degree) is int
        assert find_roots(math.cos, BIG, config) == find_roots(math.cos, BIG, plain)

    def test_has_no_adaptive_cap(self):
        # the adaptive ladder's rungs are fixed; a larger proxy takes a fixed degree
        with pytest.raises(TypeError, match="max_adaptive_degree"):
            RootConfig(max_adaptive_degree=256)
