"""End-to-end global rootfinder.

Pipeline: sample the function at mapped Chebyshev nodes, build the series
proxy (fixed or adaptive degree), chop it, take companion-matrix
eigenvalues, filter them to the near-real near-interval box, then vet each
survivor in one pass (map back to the interval, Newton-polish, reject it
by residual and, in automatic mode, by a sign check of f across it),
deduplicate and sort.  The result is a :class:`RootReport` carrying the
roots plus every eigenvalue candidate with its fate, so dropped candidates
stay auditable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .chebyshev import (
    ChebyshevSeries,
    DecayProfile,
    Interval,
    chop_series,
    coefficient_decay,
    differentiate,
    evaluate,
    from_standard,
    standard_nodes,
    transform,
)
from .companion import Spectrum, series_spectrum

__all__ = [
    "RejectionReason",
    "RootCandidate",
    "RootConfig",
    "RootReport",
    "PolishResult",
    "build_proxy",
    "find_roots",
    "filter_candidates",
    "newton_polish",
    "dedupe_and_sort",
]

_EPS = float(np.finfo(np.float64).eps)

# Automatic residual acceptance: |f(x)| <= factor*eps*max(1,|x|)*|p'(x)|,
# i.e. the remaining Newton step from x sits below the rounding floor.  No
# absolute floor: a flat stretch of f below any fixed floor would otherwise
# turn proxy noise crossings into accepted roots.
_AUTO_RESIDUAL_FACTOR = 1000.0

# Half-width (relative to max(1, |x|)) of the bracket used to certify that f
# actually changes sign across an accepted root in automatic mode.  Far above
# the polished root error, far below any resolvable root separation.
_SIGN_STEP_FACTOR = math.sqrt(float(np.finfo(np.float64).eps))

# Newton iterates may wander this fraction of the interval width outside
# [a, b] before the run counts as diverged.
_NEWTON_ESCAPE_FRACTION = 0.1

# Fraction of the gap between two roots at which the touching-root test
# probes f: irrational, so the probe is never a whole number of periods of
# f away from a root at either end.
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


class RejectionReason(str, Enum):
    NONE = "none"
    IMAG_TOO_LARGE = "imag_too_large"
    OUTSIDE_BOX = "outside_box"
    RESIDUAL_TOO_LARGE = "residual_too_large"
    NEWTON_DIVERGED = "newton_diverged"
    DUPLICATE = "duplicate"


@dataclass(frozen=True)
class RootCandidate:
    """One companion-matrix eigenvalue and what the pipeline did with it.

    ``standard_coord`` is the eigenvalue in the standard coordinate.
    ``mapped_coord`` is the (possibly polished, clamped) location on the
    interval, present only for accepted candidates.  ``residual`` is |f| at
    the final location, or None if the candidate was rejected before f was
    ever evaluated there.
    """

    standard_coord: complex
    mapped_coord: float | None
    accepted: bool
    rejection_reason: RejectionReason
    residual: float | None
    polish_iterations: int


@dataclass(frozen=True)
class RootConfig:
    """Tunable knobs for :func:`find_roots`.

    ``degree=None`` selects the adaptive proxy degree; a fixed degree means
    that many sample nodes (so the proxy polynomial has degree - 1 before
    chopping).  ``residual_tol=None`` selects the automatic per-candidate
    threshold |f(x)| <= 1000*eps*max(1,|x|)*|p'(x)| followed by a check that
    f changes sign across x; an explicit value is an absolute threshold.
    """

    degree: int | None = None
    imag_tol: float = 1e-8
    box_tol: float = 1e-6
    max_adaptive_degree: int = 128
    polish: bool = True
    polish_max_iter: int = 12
    residual_tol: float | None = None
    dedupe_tol: float = 1e-9

    def __post_init__(self):
        for name in ("degree", "max_adaptive_degree", "polish_max_iter"):
            value = getattr(self, name)
            if value is not None:
                if not isinstance(value, numbers.Integral):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
                object.__setattr__(self, name, int(value))  # numpy ints serialize as ints
        if self.degree is not None and self.degree < 2:
            raise ValueError("fixed degree must be >= 2")
        for name in ("imag_tol", "box_tol", "dedupe_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.residual_tol is not None and not self.residual_tol > 0:
            raise ValueError("residual_tol must be positive (or None for automatic)")
        if self.max_adaptive_degree < 2:
            raise ValueError("max_adaptive_degree must be >= 2")
        if self.polish_max_iter < 1:
            raise ValueError("polish_max_iter must be >= 1")


@dataclass(frozen=True)
class RootReport:
    """Outcome of one :func:`find_roots` run.

    ``roots`` are the accepted locations, strictly increasing.  ``candidates``
    lists every eigenvalue of the proxy's companion matrix with its
    acceptance status.  ``degree_used`` is the number of sample nodes of the
    final proxy; ``proxy_converged`` is False only when the adaptive degree
    loop hit its cap without the coefficient tail decaying.
    """

    roots: tuple[float, ...]
    candidates: tuple[RootCandidate, ...]
    degree_used: int
    coefficient_decay: DecayProfile
    function_evaluations: int
    proxy_converged: bool


@dataclass(frozen=True)
class PolishResult:
    """Outcome of a Newton polish run.

    ``x`` is the best iterate seen, judged by |f|; ``residual`` is |f(x)|.
    ``converged`` means the stopping rule fired before the iteration cap
    (correction below the rounding floor, or no further reduction in the
    correction).  ``diverged`` means the run was abandoned: a derivative of
    exactly zero, a non-finite value, or an iterate escaping the widened
    interval.  ``final_correction`` is the last Newton correction computed,
    NaN if the run never got that far.
    """

    x: float
    iterations: int
    converged: bool
    diverged: bool
    residual: float
    final_correction: float


class _CountingFunction:
    """Wrap a callable, counting evaluations and coercing results to float."""

    __slots__ = ("func", "count")

    def __init__(self, func):
        self.func = func
        self.count = 0

    def __call__(self, x):
        self.count += 1
        return float(self.func(x))


def _as_interval(interval) -> Interval:
    if isinstance(interval, Interval):
        return interval
    a, b = interval
    return Interval(float(a), float(b))


def _sample_at_nodes(f, interval: Interval, n: int, coarse=()) -> list[float]:
    """f at the n Chebyshev nodes mapped onto the interval, in node order.

    ``coarse`` may hold f on the n/3-node grid, whose nodes are nodes 3k+1
    of this one; those samples are reused instead of calling f again.
    """
    return [
        coarse[j // 3] if coarse and j % 3 == 1 else f(from_standard(interval, float(t)))
        for j, t in enumerate(standard_nodes(n))
    ]


def _adaptive_raw(f, interval: Interval, cap: int,
                  tol: float) -> tuple[ChebyshevSeries, ChebyshevSeries, bool]:
    n = min(16, cap)
    samples = _sample_at_nodes(f, interval, n)
    while True:
        raw = transform(samples, interval)
        chopped = chop_series(raw, tol)
        # resolved when the chop drops the last 8 coefficients
        if n - len(chopped.coeffs) >= min(8, n - 1):
            return raw, chopped, True
        if n >= cap:
            return raw, chopped, False
        if n & (n - 1) == 0 and 3 * n <= cap:
            n *= 3
            samples = _sample_at_nodes(f, interval, n, samples)
        else:  # fresh samples at the next 16*2^k above n
            n = min(16 << (n // 16).bit_length(), cap)
            samples = _sample_at_nodes(f, interval, n)


def newton_polish(f, df, x0: float, interval, max_iter: int) -> PolishResult:
    """Refine a candidate root of f with Newton's iteration.

    Stops as soon as further iterations produce no reduction in the
    correction, or the correction falls below 4*eps*max(1, |x|), or
    ``max_iter`` is reached.  The returned location is the iterate with the
    smallest |f| seen (including the starting point), so polishing never
    increases the residual.  Runs are abandoned as diverged -- never raised
    -- when the derivative is exactly zero, a value goes non-finite, or an
    iterate leaves the interval widened by 10% of its width on each side.
    There is no absolute floor on the derivative, so the result does not
    change when f is scaled by a power of two; a tiny nonzero derivative
    far from a root ends in the escape check instead.
    """
    interval = _as_interval(interval)
    escape = _NEWTON_ESCAPE_FRACTION * interval.width
    lo = interval.a - escape
    hi = interval.b + escape
    x = float(x0)
    fx = float(f(x))
    corr = math.nan
    if not math.isfinite(fx):
        return PolishResult(x, 0, False, True, abs(fx), corr)
    best_x, best_f = x, abs(fx)
    prev_corr = None
    converged = False
    diverged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        dfx = float(df(x))
        if not math.isfinite(dfx) or dfx == 0.0:
            diverged = True
            break
        corr = -fx / dfx
        if not math.isfinite(corr):
            diverged = True
            break
        if abs(corr) <= 4.0 * _EPS * max(1.0, abs(x)):
            x_next = x + corr
            f_next = float(f(x_next))
            if math.isfinite(f_next) and abs(f_next) < best_f:
                best_x, best_f = x_next, abs(f_next)
            converged = True
            break
        if prev_corr is not None and abs(corr) >= abs(prev_corr):
            converged = True
            break
        x_next = x + corr
        if x_next < lo or x_next > hi:
            diverged = True
            break
        f_next = float(f(x_next))
        if not math.isfinite(f_next):
            diverged = True
            break
        x, fx = x_next, f_next
        if abs(fx) < best_f:
            best_x, best_f = x, abs(fx)
        prev_corr = corr
    return PolishResult(best_x, iterations, converged, diverged, best_f, corr)


def filter_candidates(spectrum: Spectrum, config: RootConfig | None = None) -> tuple[RootCandidate, ...]:
    """Turn every eigenvalue into a candidate, accepted iff it sits in the box.

    Accepted means |imag| <= imag_tol and |real| <= 1 + box_tol.  The
    imaginary-part test runs first, so a candidate failing both reports
    ``imag_too_large``.  Mapped coordinates are filled in later by the
    pipeline (the spectrum does not know the interval).
    """
    if config is None:
        config = RootConfig()
    out = []
    for z in spectrum.values:
        if abs(z.imag) > config.imag_tol:
            reason = RejectionReason.IMAG_TOO_LARGE
        elif abs(z.real) > 1.0 + config.box_tol:
            reason = RejectionReason.OUTSIDE_BOX
        else:
            reason = RejectionReason.NONE
        out.append(
            RootCandidate(
                standard_coord=complex(z),
                mapped_coord=None,
                accepted=reason is RejectionReason.NONE,
                rejection_reason=reason,
                residual=None,
                polish_iterations=0,
            )
        )
    return tuple(out)


def _reject(cand: RootCandidate, reason: RejectionReason, **changes) -> RootCandidate:
    return replace(cand, accepted=False, rejection_reason=reason, mapped_coord=None, **changes)


def _crosses(f, x: float, interval: Interval) -> bool:
    """Whether f changes sign across x, or x is too near an endpoint to tell.

    Evaluates f a sign-bracket step either side of x; both values strictly
    on the same side of zero means x is a crossing of the proxy's truncation
    error, not of f (f may dip far below any residual threshold without
    ever crossing, e.g. a Gaussian tail).  Within a bracket step of an
    interval endpoint there is no room to straddle x, so it passes.
    Tangential (even-order) roots fail this test by nature.
    """
    h = _SIGN_STEP_FACTOR * max(1.0, abs(x))
    if x - h < interval.a or x + h > interval.b:
        return True
    f_lo = f(x - h)
    f_hi = f(x + h)
    return (f_lo < 0.0 < f_hi) or (f_hi < 0.0 < f_lo) or f_lo == 0.0 or f_hi == 0.0


def _vet(cand: RootCandidate, f, df, dseries: ChebyshevSeries, interval: Interval,
         config: RootConfig) -> RootCandidate:
    """Polish one in-box candidate and decide whether it is a root of f.

    Rejects it as ``newton_diverged`` if the polish diverged or ended more
    than half the box tolerance outside the interval.  Otherwise the clamped
    location is held to the explicit ``residual_tol`` or, when polishing
    with the automatic threshold, to 1000*eps*max(1,|x|)*|p'(x)| and then
    to a sign change of f across it (:func:`_crosses`); failing either is
    ``residual_too_large``.  Unpolished candidates in automatic mode are the
    proxy's roots as-is and are only given their residual.
    """
    # eigenvalues admitted by the box tolerance can map a hair outside
    # [a, b]; start the polish inside so f is only probed where defined
    x = min(max(from_standard(interval, cand.standard_coord.real), interval.a), interval.b)
    residual = None
    iters = 0
    if config.polish:
        pol = newton_polish(f, df, x, interval, config.polish_max_iter)
        iters = pol.iterations
        slack = config.box_tol * interval.width / 2.0
        if pol.diverged or pol.x < interval.a - slack or pol.x > interval.b + slack:
            residual = pol.residual if math.isfinite(pol.residual) else None
            return _reject(cand, RejectionReason.NEWTON_DIVERGED, residual=residual, polish_iterations=iters)
        x = pol.x
        residual = pol.residual
    clamped = min(max(x, interval.a), interval.b)
    if residual is None or clamped != x:
        residual = abs(f(clamped))
    cand = replace(cand, mapped_coord=clamped, residual=residual, polish_iterations=iters)
    if config.residual_tol is not None:
        if residual > config.residual_tol:
            return _reject(cand, RejectionReason.RESIDUAL_TOO_LARGE)
    elif config.polish:
        # backward-error test: is |f| at the rounding floor a Newton step sees?
        tol = _AUTO_RESIDUAL_FACTOR * _EPS * max(1.0, abs(clamped)) * abs(evaluate(dseries, clamped))
        if residual > tol or not _crosses(f, clamped, interval):
            return _reject(cand, RejectionReason.RESIDUAL_TOO_LARGE)
    return cand


def _one_touching_root(f, r1: float, r2: float, lo: float, hi: float, tol: float) -> bool:
    """Whether the accepted roots r1 < r2 are one root that f touches.

    With d = r2 - r1, f is probed inside at the midpoint and at r1 + g*d
    and r2 - g*d (g the golden-section fraction), where |f| must be within
    ``tol``, and outside from r1 and r2 in steps of d, 2d, 4d, ... until
    |f| exceeds its largest inside value, but no further out than ``lo``
    and ``hi``.  True when every probe has one strict sign and both sides
    get there: f dips to zero between r1 and r2 without crossing it, as at
    an even-order root whose proxy eigenvalues split into two real
    candidates that each pass an explicit ``residual_tol``.  A side that
    reaches ``lo`` or ``hi`` first keeps the roots apart, as in a tail of f
    below ``tol`` (a Gaussian's); the golden-section probes keep apart
    roots a whole number of root spacings apart (sin(20x) with the roots
    between them missed), where the midpoint and the outside probes land
    near roots.
    """
    d = r2 - r1
    fm = f(r1 + d / 2.0)
    if not 0.0 < abs(fm) <= tol:
        return False
    def same_sign(v):
        return v > 0.0 if fm > 0.0 else v < 0.0

    inner = (f(r1 + _GOLDEN * d), f(r2 - _GOLDEN * d), fm)
    top = max(abs(v) for v in inner)
    if not (top <= tol and all(same_sign(v) for v in inner)):
        return False
    for x, step in ((r1, -d), (r2, d)):
        while True:
            x = min(max(x + step, lo), hi)
            fx = f(x)
            if not same_sign(fx):
                return False
            if abs(fx) > top:
                break
            if x in (lo, hi):
                return False
            step *= 2.0
    return True


def _dedupe_candidates(candidates, interval: Interval, config: RootConfig, f=None):
    """Merge accepted candidates closer than dedupe_tol * width.

    Keeps the smaller-residual member of a cluster (ties keep the leftmost);
    the losers flip to rejected with reason ``duplicate``.  Given f and an
    explicit ``residual_tol``, adjacent roots that f only touches between
    (:func:`_one_touching_root`) merge the same way.  Returns the sorted
    root list and the updated candidate tuple.
    """
    radius = config.dedupe_tol * interval.width
    order = sorted(
        (i for i, c in enumerate(candidates) if c.accepted),
        key=lambda i: (candidates[i].mapped_coord, i),
    )
    out = list(candidates)

    def residual_of(cand):
        return cand.residual if cand.residual is not None else math.inf

    touch_tol = config.residual_tol if f is not None else None
    kept: list[int] = []

    def same_root(pos):
        """Whether accepted candidate order[pos] is one root with kept[-1]."""
        r1, r2 = out[kept[-1]].mapped_coord, out[order[pos]].mapped_coord
        if r2 - r1 < radius:
            return True
        if touch_tol is None:
            return False
        # outside probes stop halfway to the neighbouring roots
        lo = (out[kept[-2]].mapped_coord + r1) / 2.0 if len(kept) > 1 else interval.a
        hi = (r2 + out[order[pos + 1]].mapped_coord) / 2.0 if pos + 1 < len(order) else interval.b
        return _one_touching_root(f, r1, r2, lo, hi, touch_tol)

    for pos, i in enumerate(order):
        cand = out[i]
        if kept:
            j = kept[-1]
            prev = out[j]
            if same_root(pos):
                loser, winner = (j, i) if residual_of(cand) < residual_of(prev) else (i, j)
                out[loser] = _reject(out[loser], RejectionReason.DUPLICATE)
                kept[-1] = winner
                continue
        kept.append(i)
    roots = sorted(out[i].mapped_coord for i in kept)
    return roots, tuple(out)


def dedupe_and_sort(candidates, interval, config: RootConfig | None = None) -> list[float]:
    """Sorted accepted root locations with near-duplicates merged."""
    if config is None:
        config = RootConfig()
    roots, _ = _dedupe_candidates(tuple(candidates), _as_interval(interval), config)
    return roots


def build_proxy(f, interval,
                config: RootConfig | None = None) -> tuple[ChebyshevSeries, ChebyshevSeries, bool]:
    """Sample f and build its Chebyshev proxy: (raw, chopped, converged).

    ``raw`` is the transform of the samples, one coefficient per sample
    node; ``chopped`` is ``raw`` with its tail below the noise level trimmed.
    A fixed ``config.degree`` samples that many nodes.  With ``degree=None``
    the node count climbs 16, 48, 64, 192, 256, 768, ... (16, 48, 64, 128
    at the default ``max_adaptive_degree``) and stops at the first rung
    whose chop drops its trailing 8 coefficients.
    Tripling a power-of-two rung reuses its samples, so each step costs as
    many new samples as doubling would.  ``converged`` is False only when
    the cap was reached without the tail decaying (the series is still
    usable).
    """
    interval = _as_interval(interval)
    if config is None:
        config = RootConfig()
    # noise level: 1e-13, or a node's rounding error in the standard coordinate (Aurentz, Trefethen)
    tol = max(1e-13, _EPS * max(abs(interval.a), abs(interval.b)) / (interval.width / 2.0))
    if config.degree is None:
        return _adaptive_raw(f, interval, config.max_adaptive_degree, tol)
    raw = transform(_sample_at_nodes(f, interval, config.degree), interval)
    return raw, chop_series(raw, tol), True


def _decay_profile(series: ChebyshevSeries) -> DecayProfile:
    if len(series.coeffs) >= 4:
        return coefficient_decay(series)
    return DecayProfile(tuple(abs(c) for c in series.coeffs), None)


def find_roots(f, interval, config: RootConfig | None = None, df=None) -> RootReport:
    """All real roots of f on the interval by Chebyshev proxy rootfinding.

    Parameters
    ----------
    f : callable
        Real-valued function of one real variable; must be finite at the
        sample nodes.
    interval : Interval or (a, b) pair
        Search interval.
    config : RootConfig, optional
        Pipeline settings; defaults select the adaptive proxy degree with
        polishing on.
    df : callable, optional
        Derivative of f for Newton polishing.  When omitted, the
        differentiated proxy series is used instead.

    Returns
    -------
    report : RootReport
        Accepted roots (strictly increasing, clamped to the interval),
        every candidate with its fate, and run diagnostics.

    Raises
    ------
    NonFiniteSampleError
        If f is NaN or infinite at a sample node (the error names it).
    """
    interval = _as_interval(interval)
    if config is None:
        config = RootConfig()
    counter = _CountingFunction(f)
    raw, chopped, proxy_converged = build_proxy(counter, interval, config)
    candidates = filter_candidates(series_spectrum(chopped), config)
    dseries = differentiate(chopped)
    newton_df = df if df is not None else (lambda x: evaluate(dseries, x))
    vetted = tuple(
        _vet(cand, counter, newton_df, dseries, interval, config) if cand.accepted else cand
        for cand in candidates
    )
    roots, final = _dedupe_candidates(vetted, interval, config, counter)
    return RootReport(
        roots=tuple(roots),
        candidates=final,
        degree_used=len(raw.coeffs),
        coefficient_decay=_decay_profile(raw),
        function_evaluations=counter.count,
        proxy_converged=proxy_converged,
    )
