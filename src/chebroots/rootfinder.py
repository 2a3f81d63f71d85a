"""End-to-end global rootfinder.

Pipeline: sample the function at mapped Chebyshev nodes, build the series
proxy (fixed or adaptive degree), chop it, split a proxy longer than 64
coefficients into leaves on sub-intervals (no new samples of f), take each
leaf's companion-matrix eigenvalues, filter them to the near-real
near-interval box, then vet each survivor in one pass (map back to the
interval, Newton-polish, reject it by residual and, in automatic mode, by a
sign check of f across it, read from the final rung's samples where they
settle it and from two more evaluations of f where they do not),
deduplicate and sort.  The result is a
:class:`RootReport` carrying the roots plus every eigenvalue candidate with
its fate, so dropped candidates stay auditable.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chebyshev import (
    ChebyshevSeries,
    Interval,
    chop_series,
    coefficient_decay,
    differentiate,
    evaluate,
    from_standard,
    restrict,
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
]

_EPS = float(np.finfo(np.float64).eps)

# Automatic residual acceptance: |f(x)| <= factor*eps*max(1,|x|)*|p'(x)|,
# i.e. the remaining Newton step from x sits below the rounding floor.  No
# absolute floor: a flat stretch of f below any fixed floor would otherwise
# turn proxy noise crossings into accepted roots.
_AUTO_RESIDUAL_FACTOR = 1000.0

# Relative half-width of the bracket used to certify that f actually changes
# sign across an accepted root in automatic mode.  _crosses scales it by the
# smaller of the interval's half-width and max(1, |x|), so the bracket is
# never wider than either: a narrow interval far from 0 keeps close roots
# (1e-5 apart on [999, 1001]), and a wide interval keeps close roots near 0
# (0 and 1 on [-1e6, 1e6]).  It is floored at the automatic residual test's
# scale, 1000*eps*max(1, |x|), to stay above the polished root error.
_SIGN_STEP_FACTOR = math.sqrt(_EPS)

# Newton polish gives up after this many iterations.
_POLISH_MAX_ITER = 12

# Accepted roots closer than this fraction of the interval width are one root.
_DEDUPE_FRACTION = 1e-9

# A chopped proxy with more coefficients than this is split for the eigen
# stage, and so is each piece, until every leaf has at most this many: the
# eigen stage costs O(n^3), and two leaves of about 35 coefficients cost
# about as much as one of 64 (Boyd, Appl. Numer. Math. 56, 2006).
_LEAF = 64

# Where a piece is split, in its own standard coordinate: Chebfun's point,
# off centre so that a root at the centre of a symmetric problem is not on it.
_SPLIT = -0.004849834917525

# Most sample nodes a fixed ``RootConfig.degree`` may ask for.  The transform's
# n x n cosine matrix grows as n^2 and sampling f costs one Python call per
# node: an in-process `roots --function "sin(x)" --interval -1000 1000
# --degree N` peaks at 67 MB RSS for N = 1024, 148 MB at 2048 and 499 MB at
# 4096 (2.0 s) on a 2-core Xeon VM, about 3.4x per doubling.
_MAX_NODES = 4096

# The adaptive ladder's node counts, tried in turn until one resolves f.  The
# 48 nodes hold the 16 as nodes 3k+1, so that rung reuses their samples; the
# last rung's proxy is used whether or not it resolves f.
_RUNGS = (16, 48, 64, 128)


def _node_counts(config: RootConfig) -> tuple[int, ...]:
    return _RUNGS if config.degree is None else (config.degree,)


# No rung reuses the 64-node samples, so the adaptive ladder goes from 48
# nodes straight to 128 when the 48-node series' last 8 coefficients exceed
# tol**_SKIP_POWER times its largest, tol being the noise level
# (:func:`_noise_tol`): 64 nodes cannot resolve f then.  Geometric decay
# |c_k| ~ rho^-k would carry a tail T at 48 to about T^(4/3) at 64, above
# tol while T > tol^(3/4); an entire f decays faster (sin(kx)'s coefficients
# are Bessel J_j(k)), and the largest 48-node tail found among inputs that
# 64 nodes resolve is 3.1e-5 at tol = 1e-13 (sin(26.19x + 0.8) on [-1, 1]),
# about tol^0.35.  The level must grow with tol: on
# [1e8 - 5e-4, 1e8 + 5e-4], where tol = 4.4e-5, a sine that 64 nodes
# resolve has a 48-node tail of 2.0e-4, above a fixed 1e-4.  A polynomial of
# degree 40-55, which 64 nodes represent exactly, can still have a 48-node
# tail that high; it is then resolved at 128 nodes, for 64 more samples.
_SKIP_POWER = 1.0 / 3.0

# The box filter's tolerances (:func:`filter_candidates`); the box's also
# bounds how far outside [a, b] a Newton step may land (:func:`newton_polish`).
_IMAG_TOL = 1e-8
_BOX_TOL = 1e-6

# An eigenvalue with |Im t| at most this, in the whole interval's standard
# coordinate, counts as a root the proxy sees when the samples certify a
# sign change (:func:`_samples_cross`).  Far above ``_IMAG_TOL``, so that a
# second root the eigen stage pushed off the real line still counts.
_NEAR_REAL = 1e-3

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
    ever evaluated there or f was not finite there.  ``accepted`` is
    derived: the candidate is accepted iff its ``rejection_reason`` is
    ``NONE``.
    """

    standard_coord: complex
    mapped_coord: float | None
    rejection_reason: RejectionReason
    residual: float | None
    polish_iterations: int

    @property
    def accepted(self) -> bool:
        return self.rejection_reason is RejectionReason.NONE


@dataclass(frozen=True)
class RootConfig:
    """Tunable knobs for :func:`find_roots`.

    ``degree=None`` selects the adaptive proxy degree; a fixed degree means
    that many sample nodes (so the proxy polynomial has degree - 1 before
    chopping).  ``residual_tol=None`` selects the automatic per-candidate
    threshold |f(x)| <= 1000*eps*max(1,|x|)*|p'(x)| followed by a check that
    f changes sign across x, which the samples settle without evaluating f
    when x lies alone in a gap where they change sign; an explicit value,
    positive and finite, is an absolute threshold with no sign check.
    ``degree`` is at most 4096 nodes.
    """

    degree: int | None = None
    polish: bool = True
    residual_tol: float | None = None

    def __post_init__(self):
        degree = self.degree
        if degree is not None:
            if isinstance(degree, bool) or not isinstance(degree, numbers.Integral):
                raise ValueError(f"degree must be an integer, got {degree!r}")
            if degree > _MAX_NODES:
                raise ValueError(f"degree must be at most {_MAX_NODES}, got {degree}")
            if degree < 2:
                raise ValueError("fixed degree must be >= 2")
            object.__setattr__(self, "degree", int(degree))  # numpy ints serialize as ints
        if not isinstance(self.polish, bool):
            raise ValueError(f"polish must be a bool, got {self.polish!r}")
        tol = self.residual_tol
        if tol is not None:
            try:  # held as a float, so numpy floats and Fractions serialize as JSON numbers
                value = math.nan if isinstance(tol, bool) or not isinstance(tol, numbers.Real) else float(tol)
            except OverflowError:
                value = math.inf
            # an infinite tolerance accepts any finite residual, and is no JSON number
            if not 0.0 < value < math.inf:
                raise ValueError(f"residual_tol must be positive and finite, or None, got {tol!r}")
            object.__setattr__(self, "residual_tol", value)


@dataclass(frozen=True)
class RootReport:
    """Outcome of one :func:`find_roots` run.

    ``candidates`` lists every eigenvalue of each leaf's companion matrix
    with its fate, leaf by leaf from left to right: one leaf, the whole
    chopped proxy, when it has at most 64 coefficients; otherwise the leaves
    of the split proxy, whose eigenvalues outside their own leaf are
    candidates too, so there can be more than ``degree_used - 1`` of them.
    ``config`` is the one the run used, and a run of it must end so (else
    ``ValueError``): ``degree_used`` is its fixed ``degree``, else a ladder
    rung, and ``proxy_converged`` is False only on the last rung, where the
    ladder gives up on the tail decaying.  A candidate has a
    ``mapped_coord`` exactly when it is accepted (else ``ValueError``).
    Derived: ``roots``, the accepted locations, strictly increasing; and
    ``degree_used``, the final proxy's number of sample nodes, one per
    ``coefficient_decay`` entry: the magnitudes |c_j| of that proxy's
    coefficients before the chop.
    """

    candidates: tuple[RootCandidate, ...]
    coefficient_decay: tuple[float, ...]
    function_evaluations: int
    proxy_converged: bool
    config: RootConfig

    def __post_init__(self):
        counts, nodes, converged = _node_counts(self.config), self.degree_used, self.proxy_converged
        if nodes not in counts or not (converged or counts == _RUNGS and nodes == _RUNGS[-1]):
            raise ValueError(f"no run of {self.config} ends at {nodes} nodes with proxy_converged={converged}")
        for cand in self.candidates:
            if (cand.mapped_coord is None) is cand.accepted:
                raise ValueError(f"candidate at {cand.standard_coord} with mapped_coord {cand.mapped_coord!r}"
                                 f" contradicts its reason {cand.rejection_reason.value!r}")

    @property
    def roots(self) -> tuple[float, ...]:
        return tuple(sorted(c.mapped_coord for c in self.candidates if c.accepted))

    @property
    def degree_used(self) -> int:
        return len(self.coefficient_decay)


@dataclass(frozen=True)
class PolishResult:
    """Outcome of a Newton polish run.

    ``x`` is the best iterate seen, judged by |f|; ``residual`` is |f(x)|.
    ``converged`` means the stopping rule fired before the iteration cap
    (correction below the rounding floor, or no further reduction in the
    correction).  ``diverged`` means the run was abandoned: a derivative of
    exactly zero, a non-finite value, or a step landing beyond the box
    slack outside the interval.  ``final_correction`` is the last Newton
    correction computed, NaN if the run never got that far.
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
    a, b = interval  # not a pair: ValueError, as Interval raises for bad endpoints
    return Interval(a, b)


def _sample_at_nodes(f, interval: Interval, n: int, coarse=None) -> tuple[list[float], list[float]]:
    """(points, values): the n Chebyshev nodes mapped onto the interval and
    f at them, in node order.

    ``coarse`` may hold (points, values) of the n/3-node grid, whose nodes
    are nodes 3k+1 of this one; those samples, and the points f was called
    at for them, are reused instead of calling f again.
    """
    points = from_standard(interval, standard_nodes(n)).tolist()
    if coarse is None:
        return points, [f(x) for x in points]
    points[1::3] = coarse[0]
    return points, [coarse[1][j // 3] if j % 3 == 1 else f(x) for j, x in enumerate(points)]


def newton_polish(f, df, x0: float, interval) -> PolishResult:
    """Refine a candidate root of f with Newton's iteration.

    Stops as soon as further iterations produce no reduction in the
    correction, or the correction falls below 4*eps*max(1, |x|), or after
    12 iterations (``_POLISH_MAX_ITER``); that last small correction is
    tried, at one more evaluation of f, only if it moves x.  The returned
    location is the iterate with the smallest |f| seen (including the
    starting point), so polishing never increases the residual.  Runs are abandoned as diverged
    -- never raised -- when the derivative is exactly zero, a value goes
    non-finite, or a step lands beyond the box slack ``_BOX_TOL``*width/2
    outside [a, b]; any other step, and ``x0`` itself, is clamped into
    [a, b] before f is evaluated there, so f is evaluated only on [a, b].
    An iterate where f is exactly zero is a root whatever the derivative
    there: a zero or non-finite derivative (a kink, as in x+0.5*abs(x) at
    0) ends such a run converged.
    There is no absolute floor on the derivative, so the result does not
    change when f is scaled by a power of two; a tiny nonzero derivative
    far from a root ends in the slack check instead.
    """
    interval = _as_interval(interval)
    a, b = interval.a, interval.b
    slack = _BOX_TOL * interval.width / 2.0
    lo, hi = a - slack, b + slack
    x = min(max(float(x0), a), b)
    fx = float(f(x))
    corr = math.nan
    if not math.isfinite(fx):
        return PolishResult(x, 0, False, True, abs(fx), corr)
    best_x, best_f = x, abs(fx)
    prev_corr = None
    converged = False
    diverged = False
    iterations = 0
    for it in range(1, _POLISH_MAX_ITER + 1):
        iterations = it
        dfx = float(df(x))
        if not math.isfinite(dfx) or dfx == 0.0:  # at an exact root there is nothing to correct
            converged = fx == 0.0
            diverged = not converged
            break
        corr = -fx / dfx
        if not math.isfinite(corr):
            diverged = True
            break
        landing = x + corr
        x_next = a if landing < a else b if landing > b else landing
        if abs(corr) <= 4.0 * _EPS * max(1.0, abs(x)):
            if x_next != x:  # f(x) is fx already
                f_next = float(f(x_next))
                if math.isfinite(f_next) and abs(f_next) < best_f:
                    best_x, best_f = x_next, abs(f_next)
            converged = True
            break
        if prev_corr is not None and abs(corr) >= abs(prev_corr):
            converged = True
            break
        if landing < lo or landing > hi:
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


def filter_candidates(spectrum: Spectrum,
                      piece: tuple[float, float] = (-1.0, 1.0)) -> tuple[RootCandidate, ...]:
    """Turn every eigenvalue into a candidate, accepted iff it sits in the box.

    ``piece`` = (lo, hi) is the part of the standard interval whose own
    standard coordinate the eigenvalues z are in (a leaf of a split proxy);
    t is z mapped to the whole interval's standard coordinate.  Accepted
    means |t.imag| <= ``_IMAG_TOL`` and |z.real| <= 1 + ``_BOX_TOL``: the
    box is the leaf's own, ``_IMAG_TOL`` keeps its meaning on every leaf,
    and t is the candidate's ``standard_coord``.  The imaginary-part test
    runs first, so a candidate failing both reports ``imag_too_large``.
    Mapped coordinates are filled in later by the pipeline (the spectrum
    does not know the interval).
    """
    whole = piece == (-1.0, 1.0)
    mid, half = (piece[0] + piece[1]) / 2.0, (piece[1] - piece[0]) / 2.0
    out = []
    for z in spectrum.values:
        t = z if whole else complex(mid + half * z.real, half * z.imag)
        if abs(t.imag) > _IMAG_TOL:
            reason = RejectionReason.IMAG_TOO_LARGE
        elif abs(z.real) > 1.0 + _BOX_TOL:
            reason = RejectionReason.OUTSIDE_BOX
        else:
            reason = RejectionReason.NONE
        out.append(RootCandidate(complex(t), None, reason, None, 0))
    return tuple(out)


def _crosses(f, x: float, interval: Interval) -> bool:
    """Whether f changes sign across x, or x is too near an endpoint to tell.

    Evaluates f a sign-bracket step either side of x; both values strictly
    on the same side of zero means x is a crossing of the proxy's truncation
    error, not of f (f may dip far below any residual threshold without
    ever crossing, e.g. a Gaussian tail).  Within a bracket step of an
    interval endpoint there is no room to straddle x, so it passes.
    Tangential (even-order) roots fail this test by nature.  :func:`_vet`
    calls it only where the samples do not show the sign change
    (:func:`_samples_cross`).
    """
    scale = max(1.0, abs(x))
    h = max(_SIGN_STEP_FACTOR * min(interval.width / 2.0, scale),
            _AUTO_RESIDUAL_FACTOR * _EPS * scale)
    if x - h < interval.a or x + h > interval.b:
        return True
    f_lo = f(x - h)
    f_hi = f(x + h)
    return (f_lo < 0.0 < f_hi) or (f_hi < 0.0 < f_lo) or f_lo == 0.0 or f_hi == 0.0


def _samples_cross(table, x: float) -> bool:
    """Whether the samples show that f changes sign across x.

    True when x lies strictly inside a gap between adjacent sample points
    whose values have opposite signs and both exceed the proxy's noise
    level in magnitude, and exactly one near-real eigenvalue lies in that
    gap, ends included: f crosses zero in the gap, and the proxy, which
    follows f there, sees one root in it, so x is that crossing.  Where
    |f| is below the noise level the proxy does not follow f, and its
    roots there need not be f's.  ``table`` holds the final rung's sample
    points ascending, f's values there, the ascending locations on the
    interval of the near-real eigenvalues (|Im t| <= 1e-3 in the whole
    interval's standard coordinate, of any leaf and any fate), and the
    noise level ``_noise_tol(interval) * max|c|``; each query is three
    binary searches.  A numpy search costs about as much per scalar as the
    two evaluations of a cheap f it saves, and ``bisect`` a tenth of that.
    """
    points, values, near, noise = table
    k = bisect_left(points, x)  # points[k-1] < x <= points[k]
    if not (0 < k < len(points) and x != points[k]):
        return False
    lo, hi = values[k - 1], values[k]
    return (((lo < -noise and noise < hi) or (hi < -noise and noise < lo))
            and bisect_right(near, points[k]) - bisect_left(near, points[k - 1]) == 1)


def _vet(cand: RootCandidate, f, df, dseries: ChebyshevSeries, interval: Interval,
         config: RootConfig, signs) -> RootCandidate:
    """Polish one in-box candidate and decide whether it is a root of f.

    The candidate starts clamped to the interval, and the polish keeps it
    there (:func:`newton_polish`).  It is rejected as ``newton_diverged``
    exactly when the polish diverged.  Otherwise the polished location is
    held to the explicit ``residual_tol`` or, when polishing with the
    automatic threshold, to 1000*eps*max(1,|x|)*|p'(x)| and then to a sign
    change of f across it; failing either is
    ``residual_too_large``.  The sign change is read from the samples where
    they show it (:func:`_samples_cross` on the table ``signs``), and from
    :func:`_crosses`, at two more evaluations of f, where they do not.
    Unpolished candidates in automatic mode are the proxy's roots as-is and
    are only given their residual.  In every mode a location where f is not
    finite is ``residual_too_large`` with residual None: a NaN would pass
    each residual test.
    """
    # eigenvalues admitted by the box tolerance can map a hair outside
    # [a, b]; start inside so f is only probed where defined
    x = min(max(from_standard(interval, cand.standard_coord.real), interval.a), interval.b)
    reason, residual, iters = RejectionReason.NONE, None, 0
    if config.polish:
        pol = newton_polish(f, df, x, interval)
        if pol.diverged:
            reason = RejectionReason.NEWTON_DIVERGED
        x, residual, iters = pol.x, pol.residual, pol.iterations
    if reason is RejectionReason.NONE:
        if residual is None:
            residual = abs(f(x))
        if not math.isfinite(residual):
            failed = True
        elif config.residual_tol is not None:
            failed = residual > config.residual_tol
        elif config.polish:
            # backward-error test: is |f| at the rounding floor a Newton step sees?
            tol = _AUTO_RESIDUAL_FACTOR * _EPS * max(1.0, abs(x)) * abs(evaluate(dseries, x))
            failed = residual > tol or not (_samples_cross(signs, x) or _crosses(f, x, interval))
        else:
            failed = False
        if failed:
            reason = RejectionReason.RESIDUAL_TOO_LARGE
    return RootCandidate(cand.standard_coord, x if reason is RejectionReason.NONE else None, reason,
                         residual if math.isfinite(residual) else None, iters)


def _one_touching_root(f, r1: float, r2: float, lo: float, hi: float, tol: float) -> bool:
    """Whether the accepted roots r1 < r2 are one root that f touches.

    With d = r2 - r1, f is probed inside at the midpoint and at r1 + g*d
    and r2 - g*d (g the golden-section fraction), where |f| must be within
    ``tol``, and outside from r1 and r2 in steps of d, 2d, 4d, ... until
    |f| exceeds its largest inside value, but no further out than ``lo``
    and ``hi``.  True when every nonzero probe has one sign and both sides
    get there (a probe may read exactly 0, as 1 - cos(x - c) does within
    about 1e-8 of c by cancellation): f dips to zero between r1 and r2
    without crossing it, as at an even-order root whose proxy eigenvalues
    split into two real candidates that each pass an explicit
    ``residual_tol``.  A side that reaches ``lo`` or ``hi`` first keeps the
    roots apart, as in a tail of f below ``tol`` (a Gaussian's); the
    golden-section probes keep apart roots a whole number of root spacings
    apart (sin(20x) with the roots between them missed), where the
    midpoint and the outside probes land near roots.
    """
    d = r2 - r1
    fm = f(r1 + d / 2.0)
    if not abs(fm) <= tol:
        return False
    inner = (f(r1 + _GOLDEN * d), f(r2 - _GOLDEN * d), fm)
    signs = {v > 0.0 for v in inner if v != 0.0}
    if not (all(abs(v) <= tol for v in inner) and len(signs) <= 1):
        return False
    top = max(abs(v) for v in inner)
    for x, step in ((r1, -d), (r2, d)):
        while True:
            x = min(max(x + step, lo), hi)
            fx = f(x)
            if fx != 0.0:
                signs.add(fx > 0.0)
            if math.isnan(fx) or len(signs) > 1:
                return False
            if abs(fx) > top:
                break
            if x in (lo, hi):
                return False
            step *= 2.0
    return True


def _dedupe_candidates(candidates, interval: Interval, f=None, touch_tol: float | None = None):
    """Merge accepted candidates closer than 1e-9 * width.

    Keeps the smaller-residual member of a cluster (ties keep the leftmost);
    the losers flip to rejected with reason ``duplicate``.  Given f and a
    ``touch_tol`` (the explicit ``residual_tol``), adjacent roots that f
    only touches between (:func:`_one_touching_root`) merge the same way.
    Every accepted candidate carries a finite residual, as :func:`_vet`
    leaves it.  Returns the updated candidate tuple.
    """
    radius = _DEDUPE_FRACTION * interval.width
    order = sorted(
        (i for i, c in enumerate(candidates) if c.accepted),
        key=lambda i: (candidates[i].mapped_coord, i),
    )
    out = list(candidates)
    kept: list[int] = []
    for pos, i in enumerate(order):
        if kept:
            j = kept[-1]
            r1, r2 = out[j].mapped_coord, out[i].mapped_coord
            same = r2 - r1 < radius
            if not same and touch_tol is not None:
                # outside probes stop halfway to the neighbouring roots
                lo = (out[kept[-2]].mapped_coord + r1) / 2.0 if len(kept) > 1 else interval.a
                hi = (r2 + out[order[pos + 1]].mapped_coord) / 2.0 if pos + 1 < len(order) else interval.b
                same = _one_touching_root(f, r1, r2, lo, hi, touch_tol)
            if same:
                loser, winner = (j, i) if out[i].residual < out[j].residual else (i, j)
                c = out[loser]
                out[loser] = RootCandidate(c.standard_coord, None, RejectionReason.DUPLICATE,
                                           c.residual, c.polish_iterations)
                kept[-1] = winner
                continue
        kept.append(i)
    return tuple(out)


def _noise_tol(interval: Interval) -> float:
    """A proxy's noise level relative to its largest coefficient: 1e-13, or
    a node's rounding error in the standard coordinate (Aurentz, Trefethen)."""
    return max(1e-13, _EPS * max(abs(interval.a), abs(interval.b)) / (interval.width / 2.0))


def _leaves(series: ChebyshevSeries, tol: float, scale: float,
            lo: float = -1.0, hi: float = 1.0) -> list[tuple[float, float, ChebyshevSeries]]:
    """The pieces of a chopped proxy whose eigenvalues are taken, left to right.

    Each is (lo, hi, leaf), with [lo, hi] the leaf's part of the whole
    interval in the whole interval's standard coordinate.  A series of at
    most ``_LEAF`` coefficients is its own one leaf.  A longer one is split
    at ``_SPLIT`` of its own standard coordinate; each side is re-expanded
    exactly (:func:`~chebroots.chebyshev.restrict`), chopped at the whole
    proxy's absolute noise level ``tol * scale`` so that a side where f is
    small does not turn rounding noise into candidates, and split in turn.
    A side re-expands an n-term polynomial with a leading coefficient about
    2^-n of the parent's, far below the noise level, so every split
    shortens both sides.
    """
    if len(series.coeffs) <= _LEAF:
        return [(lo, hi, series)]
    cut = lo + (hi - lo) * (1.0 + _SPLIT) / 2.0
    left = chop_series(restrict(series, -1.0, _SPLIT), tol, scale)
    right = chop_series(restrict(series, _SPLIT, 1.0), tol, scale)
    return _leaves(left, tol, scale, lo, cut) + _leaves(right, tol, scale, cut, hi)


def build_proxy(f, interval,
                config: RootConfig = RootConfig()) -> tuple[ChebyshevSeries, ChebyshevSeries, bool]:
    """Sample f and build its Chebyshev proxy: (raw, chopped, converged).

    ``raw`` is the transform of the samples, one coefficient per sample
    node; ``chopped`` is ``raw`` with its tail below the noise level trimmed.
    A fixed ``config.degree`` samples that many nodes.  With ``degree=None``
    the node count climbs the rungs 16, 48, 64, 128 and stops at the first
    rung whose chop drops its trailing 8 coefficients.  The 48-node rung
    reuses the 16 samples.  No rung reuses the 64 samples, so the 64-node
    rung is skipped when the 48-node tail rules it out (see
    ``_SKIP_POWER``): that saves 64 evaluations and leaves the final rung as
    it was, except for a polynomial of degree 40-55, which is then resolved
    at 128 nodes for 64 more evaluations.  ``converged`` is False only when
    the 128-node rung does not resolve f (the series is still usable).
    """
    return _ladder(f, _as_interval(interval), config)[:3]


def _ladder(f, interval: Interval, config: RootConfig):
    """:func:`build_proxy`'s (raw, chopped, converged), then the final
    rung's sample points and f's values there, in node order."""
    tol = _noise_tol(interval)
    rungs = _node_counts(config)
    samples = None
    for n in rungs:
        if n == 64 and len(rungs) > 1:
            mags = np.abs(raw.coeffs)
            if mags[-8:].max() > tol ** _SKIP_POWER * mags.max():
                continue  # 64 nodes cannot resolve f
        samples = _sample_at_nodes(f, interval, n, samples if n == 48 else None)
        raw = transform(samples[1], interval)
        chopped = chop_series(raw, tol)
        # resolved when the chop drops the last 8 coefficients
        resolved = n - len(chopped.coeffs) >= min(8, n - 1)
        if resolved or n == rungs[-1]:
            return raw, chopped, resolved or config.degree is not None, *samples


def find_roots(f, interval, config: RootConfig = RootConfig(), df=None) -> RootReport:
    """All real roots of f on the interval by Chebyshev proxy rootfinding.

    f is sampled at interior nodes of the whole interval only, and no stage
    evaluates it outside [a, b].  A chopped proxy of more than 64
    coefficients is split into leaves of at most 64 on sub-intervals
    (:func:`_leaves`), and the roots are the eigenvalues of each leaf's
    companion matrix, so the report can list more candidates than
    ``degree_used - 1``; a root found from both sides of a split is merged
    as a ``duplicate``.

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
        differentiated series of the candidate's leaf is used instead.

    Returns
    -------
    report : RootReport
        Accepted roots (strictly increasing, clamped to the interval),
        every candidate with its fate, run diagnostics, and ``config``.

    Raises
    ------
    NonFiniteSampleError
        If f is NaN or infinite at a sample node (the error names it).
    """
    interval = _as_interval(interval)
    counter = _CountingFunction(f)
    raw, chopped, proxy_converged, points, values = _ladder(counter, interval, config)
    tol, scale = _noise_tol(interval), np.abs(chopped.coeffs).max()
    leaves = [(leaf, filter_candidates(series_spectrum(leaf), (lo, hi)))
              for lo, hi, leaf in _leaves(chopped, tol, scale)]
    near = sorted(from_standard(interval, c.standard_coord.real) for _, cands in leaves for c in cands
                  if abs(c.standard_coord.imag) <= _NEAR_REAL)
    signs = points[::-1], values[::-1], near, tol * scale  # ascending: the nodes descend
    vetted = []
    for leaf, cands in leaves:
        dseries = differentiate(leaf)
        newton_df = df if df is not None else (lambda x, d=dseries: evaluate(d, x))
        vetted += [_vet(cand, counter, newton_df, dseries, interval, config, signs) if cand.accepted else cand
                   for cand in cands]
    return RootReport(
        candidates=_dedupe_candidates(tuple(vetted), interval, counter, config.residual_tol),
        coefficient_decay=coefficient_decay(raw),
        function_evaluations=counter.count,
        proxy_converged=proxy_converged,
        config=config,
    )
