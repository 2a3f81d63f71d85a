"""Companion (Chebyshev-Frobenius) matrices and their spectra.

The roots of a Chebyshev series in the standard coordinate are the
eigenvalues of a small dense matrix built directly from the coefficients.
This module builds that matrix and computes its full complex spectrum with
numpy's LAPACK ``eigvals`` (``dgeev``: balancing, Hessenberg reduction and
shifted QR).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import ChebyshevSeries

__all__ = [
    "FrobeniusMatrix",
    "Spectrum",
    "DegenerateLeadingCoefficientError",
    "build_frobenius",
    "eigenvalues",
    "series_spectrum",
]


class DegenerateLeadingCoefficientError(ValueError):
    """The series' leading coefficient is zero; chop the series first."""


@dataclass(frozen=True, eq=False)
class FrobeniusMatrix:
    """Dense companion matrix of a Chebyshev series.

    For a series of degree n the matrix is n x n; its eigenvalues are the
    roots of the series in the standard coordinate.  ``entries`` is
    write-locked after construction.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def order(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a companion matrix, with per-eigenvalue convergence flags.

    Sorted by real part then imaginary part, so the order is deterministic.
    Complex eigenvalues of these real matrices always appear in conjugate
    pairs.
    """

    values: tuple[complex, ...]
    converged: tuple[bool, ...]

    def __post_init__(self):
        if len(self.values) != len(self.converged):
            raise ValueError("one convergence flag per eigenvalue required")


def build_frobenius(series: ChebyshevSeries) -> FrobeniusMatrix:
    """Companion matrix of a degree-n Chebyshev series (n >= 1).

    With 1-based row/column labels j, k and coefficients a_0..a_n:

        row 1:           1 at column 2
        rows 2..n-1:     1/2 at columns j-1 and j+1
        row n:           -a_{k-1} / (2 a_n) at every column k,
                         plus an extra 1/2 at column n-1

    The degenerate 1x1 case reduces to the single entry -a_0 / (2 a_1),
    which is *not* the root of the linear series; use
    :func:`series_spectrum` for root extraction, which special-cases the
    linear series analytically.

    Raises
    ------
    ValueError
        If the series is constant (degree 0).
    DegenerateLeadingCoefficientError
        If the leading coefficient is zero (chop first).
    """
    c = series.coeffs
    n = len(c) - 1
    if n < 1:
        raise ValueError("companion matrix needs a series of degree >= 1")
    if c[n] == 0.0:
        raise DegenerateLeadingCoefficientError(
            "leading coefficient is zero; chop the series before building the matrix"
        )
    m = np.zeros((n, n))
    if n == 1:
        m[0, 0] = -c[0] / (2.0 * c[1])
        return FrobeniusMatrix(m)
    m[0, 1] = 1.0
    for j in range(1, n - 1):
        m[j, j - 1] = 0.5
        m[j, j + 1] = 0.5
    m[n - 1, :] = [-c[k] / (2.0 * c[n]) for k in range(n)]
    m[n - 1, n - 2] += 0.5
    return FrobeniusMatrix(m)


def eigenvalues(matrix: FrobeniusMatrix) -> Spectrum:
    """Full complex spectrum of the matrix, from ``np.linalg.eigvals``.

    LAPACK either converges on every eigenvalue or fails, so every
    ``converged`` flag is True.

    Raises
    ------
    ValueError
        If the matrix is empty or has non-finite entries.
    numpy.linalg.LinAlgError
        If LAPACK's QR iteration does not converge.  It subclasses
        ValueError, so :func:`~chebroots.rootfinder.find_roots` raises it
        as is and the CLI reports it with exit code 2.
    """
    if matrix.order < 1:
        raise ValueError("matrix order must be >= 1")
    if not np.all(np.isfinite(matrix.entries)):
        raise ValueError("matrix has non-finite entries")
    values = np.linalg.eigvals(matrix.entries)
    order = np.lexsort((values.imag, values.real))
    return Spectrum(
        tuple(complex(v) for v in values[order]),
        (True,) * len(values),
    )


def series_spectrum(series: ChebyshevSeries) -> Spectrum:
    """Roots of a chopped Chebyshev series in the standard coordinate.

    Degree 0 has no roots to report; degree 1 is solved analytically as
    -a_0/a_1 (the companion formula degenerates at order 1); everything else
    goes through :func:`build_frobenius` and :func:`eigenvalues`.
    """
    if series.degree == 0:
        return Spectrum((), ())
    if series.degree == 1:
        return Spectrum((complex(-series.coeffs[0] / series.coeffs[1]),), (True,))
    return eigenvalues(build_frobenius(series))
