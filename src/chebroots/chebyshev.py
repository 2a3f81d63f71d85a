"""Chebyshev interpolation core: nodes, the discrete transform, evaluation,
differentiation, restriction to a sub-interval, and the affine maps between
an interval [a, b] and the standard interval [-1, 1].

A :class:`ChebyshevSeries` is the polynomial proxy used throughout the
package: a write-locked float64 array of first-kind Chebyshev coefficients
attached to an :class:`Interval`, used as it is by every other module.
Everything here is a pure function over immutable values, so series and
intervals can be shared freely across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Interval",
    "ChebyshevSeries",
    "NonFiniteSampleError",
    "standard_nodes",
    "to_standard",
    "from_standard",
    "transform",
    "evaluate",
    "differentiate",
    "restrict",
    "chop_series",
    "coefficient_decay",
]


class NonFiniteSampleError(ValueError):
    """A function sample was NaN or infinite at an interpolation node."""

    def __init__(self, index: int, node: float, value: float):
        self.index = index
        self.node = node
        self.value = value
        super().__init__(
            f"sample {index} at node x={node!r} is non-finite ({value!r})"
        )


@dataclass(frozen=True)
class Interval:
    """A finite real interval [a, b] with a strictly below b and finite width.

    The maps to and from [-1, 1] halve the endpoints and the width, so a
    must stay below b and the width nonzero when halved: [0, 5e-324] and
    [1.5e-323, 2.5e-323] are refused, [0, 1e-323] is accepted.

    Owns the affine change of variables between [a, b] and the standard
    interval [-1, 1]; see :func:`to_standard` and :func:`from_standard`.
    """

    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")
        if not math.isfinite(self.b - self.a):
            raise ValueError(f"interval width overflows, got [{self.a}, {self.b}]")
        if not (0.5 * self.a < 0.5 * self.b and (self.b - self.a) / 2.0 > 0.0):
            raise ValueError(f"interval is too narrow to halve, got [{self.a!r}, {self.b!r}]")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True, eq=False)
class ChebyshevSeries:
    """A finite series sum_j coeffs[j] * T_j on an interval.

    ``coeffs[j]`` multiplies the degree-j first-kind Chebyshev polynomial of
    the standard coordinate; ``coeffs`` is a write-locked 1-D float64 copy of
    the input.  The series is immutable and compares by value (it is not
    hashable); all operations return new series.  A nonzero leading
    coefficient is *not* enforced here -- callers that need one (the
    companion matrix does) chop first with :func:`chop_series`.
    """

    interval: Interval
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("series needs a non-empty 1-D coefficient vector")
        if not np.isfinite(c).all():
            j = int(np.flatnonzero(~np.isfinite(c))[0])
            raise ValueError(f"series coefficient {j} is non-finite ({float(c[j])!r})")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __eq__(self, other):
        if not isinstance(other, ChebyshevSeries):
            return NotImplemented
        return self.interval == other.interval and bool(np.array_equal(self.coeffs, other.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def to_standard(interval: Interval, x: float) -> float:
    """Map x from [a, b] to the standard coordinate, a -> -1 and b -> +1.

    The map is affine everywhere, so points outside the interval are mapped
    outside [-1, 1] rather than rejected.  It works on halved endpoints,
    which is exact above the subnormal range and keeps the midpoint finite
    for any interval whose width is finite.
    """
    a, b = 0.5 * interval.a, 0.5 * interval.b
    return (x - (a + b)) / (b - a)


def from_standard(interval: Interval, t: float) -> float:
    """Map a standard coordinate t back to the interval, -1 -> a and +1 -> b."""
    a, b = 0.5 * interval.a, 0.5 * interval.b
    return a + b + (b - a) * t


def standard_nodes(n: int) -> np.ndarray:
    """Roots of the degree-n first-kind Chebyshev polynomial, descending.

    These are cos(pi*(2k-1)/(2n)) for k = 1..n, all strictly inside (-1, 1).
    Computed in the equivalent sine form so the grid is exactly symmetric
    about 0 (odd n gets an exact middle zero).

    Parameters
    ----------
    n : int
        Number of nodes, at least 1.

    Returns
    -------
    nodes : ndarray of shape (n,)
        Strictly decreasing node coordinates in (-1, 1).
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    k = np.arange(1, n + 1)
    return np.sin(np.pi * (n - 2 * k + 1) / (2.0 * n))


@functools.lru_cache(maxsize=8)
def _cosine_basis(n: int) -> np.ndarray:
    """n x n matrix cos(j*pi*(2k-1)/(2n)), j = 0..n-1 by k = 1..n."""
    k = np.arange(1, n + 1)
    j = np.arange(n)
    basis = np.cos(np.outer(j, np.pi * (2 * k - 1) / (2.0 * n)))
    basis.setflags(write=False)
    return basis


def transform(samples, interval: Interval) -> ChebyshevSeries:
    """Discrete Chebyshev transform of function samples taken at the nodes.

    ``samples[k]`` must be the function value at
    ``from_standard(interval, standard_nodes(n)[k])`` where ``n`` is the
    sample count.  The returned n-coefficient series interpolates the
    samples exactly at those nodes (up to roundoff):

        coeffs[0] = (1/n) * sum_k samples[k]
        coeffs[j] = (2/n) * sum_k samples[k] * cos(j*pi*(2k-1)/(2n))

    The basis values use the closed cosine form rather than the three-term
    recurrence so the discrete orthogonality of the grid holds to machine
    precision.  The samples are scaled by a power of two to at most 1 in
    magnitude for the product and the coefficients scaled back, which is
    exact and keeps the sums finite.  A coefficient can still exceed the
    largest sample by a factor up to about 4/pi, so samples within that
    factor of the largest float can give a non-finite coefficient, which
    :class:`ChebyshevSeries` refuses with ``ValueError``.

    Parameters
    ----------
    samples : array_like of shape (n,)
        Function values at the mapped nodes, in node order.
    interval : Interval
        Interval the samples were taken on.

    Returns
    -------
    series : ChebyshevSeries
        Interpolating series with n coefficients (degree n - 1).

    Raises
    ------
    ValueError
        If the sample vector is empty.
    NonFiniteSampleError
        If any sample is NaN or infinite; the error names the node.
    """
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("transform needs a non-empty 1-D sample vector")
    n = y.size
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        idx = int(bad[0])
        node = from_standard(interval, float(standard_nodes(n)[idx]))
        raise NonFiniteSampleError(idx, node, float(y[idx]))
    e = math.frexp(float(np.abs(y).max()))[1]
    coeffs = (2.0 / n) * (_cosine_basis(n) @ np.ldexp(y, -e))
    coeffs[0] *= 0.5
    return ChebyshevSeries(interval, np.ldexp(coeffs, e))


def evaluate(series: ChebyshevSeries, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the series at x using the Clenshaw recurrence.

    x is a point, giving a float, or an array of points, giving an array
    whose entries are bit-identical to the calls on each point.  x is mapped
    to the standard coordinate first.  Points outside the interval are
    evaluated by polynomial extrapolation; that is permitted (the recurrence
    does not need arccos) but accuracy decays quickly away from the interval.
    """
    t = to_standard(series.interval, x if isinstance(x, np.ndarray) else float(x))
    c = series.coeffs.tolist()
    b1 = 0.0
    b2 = 0.0
    two_t = 2.0 * t
    for cj in c[:0:-1]:
        b1, b2 = cj + two_t * b1 - b2, b1
    return c[0] + t * b1 - b2


def differentiate(series: ChebyshevSeries) -> ChebyshevSeries:
    """Series of the derivative df/dx on the same interval.

    Uses the backward recurrence d[j-1] = d[j+1] + 2*j*coeffs[j] (with the
    final d[0] halved) and then scales by the chain-rule factor 2/(b - a).
    The degree drops by one; differentiating a constant yields the zero
    series.  Every d[j] is at most n*(n+1)*max|coeffs| in magnitude; where
    that bound could overflow, the coefficients are scaled by a power of two
    2^-e for the recurrence and the result by 2^e after the chain-rule
    factor, as in :func:`transform`; that factor is 2/m times 2^-k, with
    width = m*2^k, so it cannot overflow however narrow the interval.  Both
    are exact, so f near the largest float and an interval narrower than
    2/max float keep a finite derivative, and every other series is untouched.
    """
    c = series.coeffs
    n = len(c) - 1
    if n == 0:
        return ChebyshevSeries(series.interval, (0.0,))
    e = max(0, math.frexp(float(np.abs(c).max()))[1] + (n * (n + 1)).bit_length() - 1023)
    # w starts at the recurrence's d[n+1] = d[n] = 0 and adds the terms 2*j*c[j]
    # for j = n, n-1, n-2, ... paired by row, so each column's running sum is
    # one parity chain of d, added in the recurrence's order.
    w = np.zeros(n + n % 2)
    w[:n] += 2.0 * np.arange(n, 0, -1) * np.ldexp(c[:0:-1], -e)
    d = w.reshape(-1, 2).cumsum(axis=0).ravel()[n - 1::-1]
    d[0] *= 0.5
    m, k = math.frexp(series.interval.width)
    return ChebyshevSeries(series.interval, np.ldexp(d * (2.0 / m), e - k))


@functools.lru_cache(maxsize=8)
def _restriction(lo: float, hi: float, m: int) -> np.ndarray:
    """m x m matrix whose row j holds the coefficients of T_j(mid + half*u).

    mid and half are the centre and half-width of [lo, hi], and the
    coefficients are in T_0(u)..T_{m-1}(u).  Built row by row from
    T_{j+1} = 2t*T_j - T_{j-1} in coefficient space, with u*T_0 = T_1 and
    u*T_k = (T_{k+1} + T_{k-1})/2, so no temporary is larger than a row and
    the leading n x n block does not depend on m.
    """
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    r = np.zeros((m, m))
    r[0, 0] = 1.0
    if m > 1:
        r[1, :2] = mid, half
    for j in range(1, m - 1):
        p = r[j, :j + 1]
        row = r[j + 1, :j + 2]
        row[:j + 1] = 2.0 * mid * p
        row[1:] += half * p
        row[1] += half * p[0]
        row[:j] += half * p[1:]
        row[:j] -= r[j - 1, :j]
    r.setflags(write=False)
    return r


def restrict(series: ChebyshevSeries, lo: float, hi: float) -> ChebyshevSeries:
    """The series on the part [lo, hi] of its standard interval, re-expanded.

    Requires -1 <= lo < hi <= 1 (else ``ValueError``): outside [-1, 1] the
    result would extrapolate the series.  The result is the same polynomial
    (up to roundoff) on the interval that [lo, hi] maps to, with as many
    coefficients as the series.  The coefficient map is a matrix cached per
    (lo, hi) and power-of-two size, so each restriction to a part seen
    before costs one vector-matrix product.
    """
    if not -1.0 <= lo < hi <= 1.0:
        raise ValueError(f"restrict requires -1 <= lo < hi <= 1, got lo={lo!r}, hi={hi!r}")
    n = len(series.coeffs)
    m = 1 << (n - 1).bit_length()
    coeffs = series.coeffs @ _restriction(lo, hi, m)[:n, :n]
    part = Interval(from_standard(series.interval, lo), from_standard(series.interval, hi))
    return ChebyshevSeries(part, coeffs)


def chop_series(series: ChebyshevSeries, rel_tol: float = 1e-13,
                scale: float | None = None) -> ChebyshevSeries:
    """Drop trailing coefficients with |coeff| <= rel_tol * scale.

    ``scale`` defaults to the series' own max|coeff|; a piece restricted
    from a longer series passes that series' instead, so the piece is cut
    at the same absolute noise level.  Restores a nonzero leading
    coefficient whenever any coefficient clears the threshold, which the
    companion matrix requires.  Always keeps at least one coefficient, so
    an all-zero series chops to the single coefficient 0.  Raises
    ValueError for a negative or NaN ``rel_tol`` or ``scale``, whose cut
    would keep everything or a single coefficient.
    """
    if not rel_tol >= 0:
        raise ValueError("chop tolerance must be >= 0")
    if scale is not None and not scale >= 0:
        raise ValueError("chop scale must be >= 0")
    c = series.coeffs
    mags = np.abs(c)
    cut = rel_tol * (mags.max() if scale is None else scale)
    above = (mags > cut).nonzero()[0]
    keep = int(above[-1]) + 1 if above.size else 1
    if keep == len(c):
        return series
    return ChebyshevSeries(series.interval, c[:keep])


def coefficient_decay(series: ChebyshevSeries) -> tuple[float, ...]:
    """The coefficient magnitudes |coeffs[j]|, j = 0, 1, ..., as Python floats.

    A diagnostic only: nothing in the pipeline gates on it, and the chop
    (:func:`chop_series`) alone decides whether f is resolved.
    """
    return tuple(np.abs(series.coeffs).tolist())
