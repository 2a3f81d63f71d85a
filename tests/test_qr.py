"""The eigenvalue stage on general matrices.

LAPACK's ``dgeev`` (balancing, Hessenberg reduction, Francis double-shift
QR) does the work; these tests reach it through
:func:`chebroots.companion.eigenvalues` and check its order, flags,
rejections and accuracy against closed-form spectra.
"""

import numpy as np
import pytest

from chebroots.companion import Spectrum, eigenvalues


def spectrum(entries):
    return eigenvalues(np.array(entries, dtype=float))


class TestBasics:
    def test_one_by_one(self):
        assert spectrum([[2.0]]) == Spectrum((2 + 0j,))

    def test_permutation_two_by_two(self):
        assert spectrum([[0.0, 1.0], [1.0, 0.0]]).values == (-1 + 0j, 1 + 0j)

    def test_rotation_gives_conjugate_pair(self):
        values = spectrum([[0.0, 1.0], [-1.0, 0.0]]).values
        assert np.allclose(values, [-1j, 1j], atol=1e-15, rtol=0)
        assert values[0] == values[1].conjugate()

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            spectrum(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                spectrum([[1.0, bad], [0.0, 1.0]])

    def test_zero_matrix(self):
        result = spectrum(np.zeros((5, 5)))
        assert result.values == (0j,) * 5
        assert all(result.converged)


class TestAgainstReferenceSolver:
    def test_random_dense_matrices(self):
        # the solver is LAPACK itself, so the reference is the trace,
        # conjugate pairing and (real, imag) order every spectrum must have
        rng = np.random.default_rng(42)
        for _ in range(120):
            n = int(rng.integers(2, 25))
            scale = 10.0 ** float(rng.integers(-2, 3))
            a = rng.normal(size=(n, n)) * scale
            result = spectrum(a)
            assert len(result.values) == n and all(result.converged)
            keyed = [(z.real, z.imag) for z in result.values]
            assert keyed == sorted(keyed)
            total = sum(result.values)
            assert abs(total - np.trace(a)) <= 1e-10 * n * scale
            for z in result.values:
                assert min(abs(w - z.conjugate()) for w in result.values) <= 1e-10 * n * scale

    def test_defective_jordan_block(self):
        a = np.eye(4)
        a[0, 1] = a[1, 2] = a[2, 3] = 1.0
        # defective eigenvalues are only accurate to ~eps**(1/4) by nature
        assert np.max(np.abs(np.array(spectrum(a).values) - 1.0)) <= 1e-3

    def test_repeated_complex_pairs(self):
        values = spectrum(np.kron(np.eye(3), np.array([[0.0, 2.0], [-2.0, 0.0]]))).values
        assert np.allclose(values, [-2j] * 3 + [2j] * 3, atol=1e-10, rtol=0)

    def test_upper_triangular_reads_off_diagonal(self):
        a = np.triu(np.random.default_rng(9).normal(size=(8, 8)))
        assert np.allclose(spectrum(a).values, np.sort(np.diag(a)), atol=1e-12, rtol=0)
