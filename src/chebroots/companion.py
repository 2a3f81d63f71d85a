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
    "Spectrum",
    "DegenerateLeadingCoefficientError",
    "build_frobenius",
    "eigenvalues",
    "series_spectrum",
]


class DegenerateLeadingCoefficientError(ValueError):
    """The series' leading coefficient is zero; chop the series first."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a companion matrix.

    Sorted by real part then imaginary part, so the order is deterministic.
    Complex eigenvalues of these real matrices always appear in conjugate
    pairs.
    """

    values: tuple[complex, ...]

    @property
    def converged(self) -> tuple[bool, ...]:
        """One True per eigenvalue: LAPACK converges on every one or raises."""
        return (True,) * len(self.values)


def build_frobenius(series: ChebyshevSeries) -> np.ndarray:
    """Companion matrix of a degree-n Chebyshev series (n >= 1).

    With 1-based row/column labels j, k and coefficients a_0..a_n:

        row 1:           1 at column 2
        rows 2..n-1:     1/2 at columns j-1 and j+1
        row n:           -a_{k-1} / (2 a_n) at every column k,
                         plus an extra 1/2 at column n-1

    Row j is x*T_{j-1} in the basis T_0..T_{n-1}, with T_n eliminated by the
    series; x*T_0 = T_1 carries no 1/2, so the 1x1 matrix is -a_0 / a_1,
    the root of the linear series.  The result is an n x n float64 array,
    write-locked.

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
    m.flat[1::n + 1] = 0.5  # superdiagonal
    m.flat[n::n + 1] = 0.5  # subdiagonal
    m[0, 1:2] = 1.0
    m[n - 1] = -(c[:n] / c[n]) / (1.0 if n == 1 else 2.0)  # 2*c[n] could overflow
    m[n - 1, n - 2:n - 1] += 0.5  # empty slice at n == 1
    m.setflags(write=False)
    return m


def eigenvalues(matrix: np.ndarray) -> Spectrum:
    """Full complex spectrum of the matrix, from ``np.linalg.eigvals``.

    Raises
    ------
    ValueError
        If the matrix is empty or has non-finite entries.
    numpy.linalg.LinAlgError
        If LAPACK's QR iteration does not converge.  It subclasses
        ValueError, so :func:`~chebroots.rootfinder.find_roots` raises it
        as is and the CLI reports it with exit code 2.
    """
    if matrix.shape[0] < 1:
        raise ValueError("matrix order must be >= 1")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix has non-finite entries")
    values = np.linalg.eigvals(matrix)
    order = np.lexsort((values.imag, values.real))
    return Spectrum(tuple(complex(v) for v in values[order]))


def series_spectrum(series: ChebyshevSeries) -> Spectrum:
    """Roots of a chopped Chebyshev series in the standard coordinate.

    Degree 0 has no roots to report; every other degree goes through
    :func:`build_frobenius` and :func:`eigenvalues`.
    """
    if series.degree == 0:
        return Spectrum(())
    return eigenvalues(build_frobenius(series))
