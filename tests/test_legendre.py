from fractions import Fraction

import numpy as np
import pytest

from gknextend.legendre import (
    LegendreError,
    LTBasis,
    boundary_identity_check,
    eigen_check,
    extended_eigen_check,
    extended_inner,
    extended_orthogonality_check,
    gram_schmidt,
    lt_eigenvalue,
    mu_inner,
)
from gknextend.polynomials import Poly

A_VALUES = (Fraction(1), Fraction(5, 2), Fraction(10))
I2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


class TestMuInner:
    def test_constants(self):
        assert mu_inner(Poly([1]), Poly([1]), Fraction(1)) == 4

    def test_odd_pairing_vanishes(self):
        assert mu_inner(Poly([1]), Poly([0, 1]), Fraction(3)) == 0

    def test_linear_norm(self):
        assert mu_inner(Poly([0, 1]), Poly([0, 1]), Fraction(1)) == Fraction(8, 3)

    def test_rejects_floats(self):
        with pytest.raises(LegendreError):
            mu_inner(Poly([0.5]), Poly([1]), Fraction(1))


class TestGramSchmidt:
    def test_first_three_polynomials(self):
        basis = gram_schmidt(Fraction(1), 2)
        assert basis[0] == Poly([1])
        assert basis[1] == Poly([0, 1])
        assert basis[2] == Poly([Fraction(-2, 3), 0, 1])

    def test_degree_and_monic(self):
        basis = gram_schmidt(Fraction(5, 2), 8)
        for n, p in enumerate(basis.polys):
            assert p.degree == n
            assert p.coeffs[-1] == 1

    @pytest.mark.parametrize("A", A_VALUES)
    def test_exact_orthogonality(self, A):
        basis = gram_schmidt(A, 12)
        for m in range(13):
            for n in range(m + 1, 13):
                assert mu_inner(basis[m], basis[n], A) == 0

    def test_cap(self):
        with pytest.raises(LegendreError):
            gram_schmidt(Fraction(1), 30)


class TestEigenCheck:
    def test_constant(self):
        basis = gram_schmidt(Fraction(1), 2)
        assert eigen_check(basis, 0) == 0

    def test_linear(self):
        for A in A_VALUES:
            basis = gram_schmidt(A, 2)
            assert eigen_check(basis, 1) == 8 * A

    def test_quadratic(self):
        for A in A_VALUES:
            basis = gram_schmidt(A, 2)
            assert eigen_check(basis, 2) == 24 * A + 24

    @pytest.mark.parametrize("A", A_VALUES)
    def test_formula_through_degree_twelve(self, A):
        basis = gram_schmidt(A, 12)
        for n in range(13):
            lam = eigen_check(basis, n)
            assert lam == Fraction(n) * (n + 1) * (n * n + n + 4 * A - 2)

    def test_tampered_basis_reports_coefficient(self):
        basis = gram_schmidt(Fraction(1), 3)
        wrong = LTBasis(basis.A, (basis[0], basis[1] + Poly([Fraction(1, 7)]), basis[2]))
        with pytest.raises(LegendreError, match="coefficient 0"):
            eigen_check(wrong, 1)


class TestBoundaryIdentity:
    def test_trivial_constant(self):
        basis = gram_schmidt(Fraction(1), 0)
        assert boundary_identity_check(basis, 0)

    @pytest.mark.parametrize("A", A_VALUES)
    def test_exact_through_degree_twelve(self, A):
        basis = gram_schmidt(A, 12)
        for n in range(13):
            assert boundary_identity_check(basis, n)

    def test_opposite_pairing_fails(self):
        # the empirical sign resolution: swapping the endpoint signs breaks P_1
        A = Fraction(1)
        basis = gram_schmidt(A, 1)
        p = basis[1]
        dp = p.deriv()
        lam = lt_eigenvalue(1, A)
        assert -8 * A * dp(Fraction(1)) != lam * p(Fraction(1))
        assert 8 * A * dp(Fraction(-1)) != lam * p(Fraction(-1))


class TestExtendedChecks:
    def test_constant_eigenvector(self):
        basis = gram_schmidt(Fraction(1), 0)
        assert extended_eigen_check(basis, 0)

    @pytest.mark.parametrize("A", A_VALUES)
    def test_exact_eigenvectors(self, A):
        basis = gram_schmidt(A, 10)
        for n in range(11):
            assert extended_eigen_check(basis, n)

    def test_identity_b_breaks_everything_above_zero(self):
        basis = gram_schmidt(Fraction(1), 10)
        for n in range(1, 11):
            assert not extended_eigen_check(basis, n, I2)

    def test_orthogonality_values(self):
        basis = gram_schmidt(Fraction(1), 3)
        assert extended_orthogonality_check(basis, 0, 1) == 0
        assert extended_orthogonality_check(basis, 1, 2) == 0
        assert extended_inner(basis, 2, 2) > 0

    def test_extended_inner_equals_measure_inner(self):
        for A in A_VALUES:
            basis = gram_schmidt(A, 6)
            for m in range(7):
                for n in range(7):
                    assert extended_inner(basis, m, n) == mu_inner(basis[m], basis[n], A)

    def test_m_equals_n_rejected(self):
        basis = gram_schmidt(Fraction(1), 2)
        with pytest.raises(LegendreError):
            extended_orthogonality_check(basis, 1, 1)


class TestConsistencyWithFloatModel:
    def test_gkn_pipeline_admits_eigenvectors(self):
        # derived constraint rows annihilate every (P_n, (P_n(-1), P_n(1)))
        from gknextend.catalog import build_example

        entry = build_example("legendre_type", {"A": 1.0})
        bc = entry.boundary_conditions()
        basis = gram_schmidt(Fraction(1), 8)
        from gknextend.expressions import LegendreType, trace_of_poly

        for n in range(9):
            p = basis[n]
            tr = trace_of_poly(LegendreType(Fraction(1)), p).as_array()
            vec = np.concatenate([tr, [complex(p(Fraction(-1))), complex(p(Fraction(1)))]])
            assert np.abs(bc.canonical @ vec).max() < 1e-9

    def test_exact_omega_matches_float_omega(self):
        from gknextend.catalog import build_example
        from gknextend.expressions import LegendreType, trace_of_poly

        entry = build_example("legendre_type", {"A": 2.0})
        basis = gram_schmidt(Fraction(2), 6)
        for n in range(7):
            p = basis[n]
            dp = p.deriv()
            exact = np.array(
                [float(16 * dp(Fraction(-1))), float(-16 * dp(Fraction(1)))]
            )
            tr = trace_of_poly(LegendreType(Fraction(2)), p)
            assert np.abs(entry.model.omega_of(tr) - exact).max() < 1e-9
