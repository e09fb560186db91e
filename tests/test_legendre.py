from fractions import Fraction

import numpy as np
import pytest

from gknextend.expressions import GeneralEvenOrder, LegendreType, apply_expr
from gknextend.legendre import (
    LegendreError,
    LTBasis,
    boundary_identity_check,
    eigen_residual,
    expression_matrix,
    extended_eigen_check,
    extended_gram,
    lt_eigenvalue,
    operator_basis,
)
from gknextend.polynomials import Poly

from conftest import gram_schmidt, mu_inner, random_rational_poly

A_VALUES = (Fraction(1), Fraction(5, 2), Fraction(10))
I2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

# the A of every `exact_legendre` op of benchmark seeds 1-3, as the CLI reads them
# from JSON (binary floats), and three exact values far apart
BENCHMARK_A = (1.91, 2.67, 1.49, 3.01, 3.19, 3.13, 1.03, 3.37, 1.57)
BASIS_A = tuple(Fraction(a) for a in BENCHMARK_A) + (Fraction(1, 7), Fraction(1), Fraction(10**5))


def image(basis, n):
    return apply_expr(LegendreType(basis.A), basis[n])


class TestMuInner:
    """The reference inner product the operator basis is checked against."""

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
    """The reference basis: monic Gram-Schmidt under the point-mass measure."""

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


class TestOperatorBasis:
    @pytest.mark.parametrize("A", BASIS_A, ids=str)
    def test_equals_reference_basis(self, A):
        assert operator_basis(A, 24).polys == gram_schmidt(A, 24).polys

    def test_cap(self):
        with pytest.raises(LegendreError):
            operator_basis(Fraction(1), 30)

    @pytest.mark.parametrize("A", A_VALUES)
    def test_matrix_is_triangular_with_the_eigenvalues_on_its_diagonal(self, A):
        L = expression_matrix(LegendreType(A), 24)
        for j in range(25):
            assert L[j][j] == lt_eigenvalue(j, A)
            assert all(L[i][j] == 0 for i in range(j + 1, 25))

    def test_matrix_columns_are_images_of_monomials(self):
        expr = LegendreType(Fraction(7, 3))
        L = expression_matrix(expr, 10)
        for j in range(11):
            col = apply_expr(expr, Poly([0] * j + [1]))
            assert Poly([L[i][j] for i in range(11)]) == col

    @pytest.mark.parametrize(
        "qs",
        [
            (Poly([0, 0, 1]), Poly([1])),  # u^2 x - x'': a degree-2 multiplier
            (Poly([0]), Poly([0, 0, 0, 1])),  # -(u^3 x')' = -u^3 x'' - 3u^2 x'
        ],
    )
    def test_degree_raising_expression_is_refused(self, qs):
        with pytest.raises(LegendreError, match="degree"):
            expression_matrix(GeneralEvenOrder(qs), 4)


class TestEigenCheck:
    def test_constant(self):
        basis = gram_schmidt(Fraction(1), 2)
        img = image(basis, 0)
        assert img.is_zero()
        assert eigen_residual(basis, 0, img).is_zero()

    def test_linear(self):
        for A in A_VALUES:
            basis = gram_schmidt(A, 2)
            img = image(basis, 1)
            assert img == basis[1].scale(8 * A)
            assert eigen_residual(basis, 1, img).is_zero()

    def test_quadratic(self):
        for A in A_VALUES:
            basis = gram_schmidt(A, 2)
            img = image(basis, 2)
            assert img == basis[2].scale(24 * A + 24)
            assert eigen_residual(basis, 2, img).is_zero()

    @pytest.mark.parametrize("A", A_VALUES)
    def test_formula_through_degree_twelve(self, A):
        basis = gram_schmidt(A, 12)
        for n in range(13):
            lam = Fraction(n) * (n + 1) * (n * n + n + 4 * A - 2)
            img = image(basis, n)
            assert img == basis[n].scale(lam)
            assert eigen_residual(basis, n, img).is_zero()

    def test_tampered_basis_reports_coefficient(self):
        basis = gram_schmidt(Fraction(1), 3)
        wrong = LTBasis(basis.A, (basis[0], basis[1] + Poly([Fraction(1, 7)]), basis[2]))
        # l(u + 1/7) = 8u against lambda_1 (u + 1/7) = 8u + 8/7: only coefficient 0 differs
        assert eigen_residual(wrong, 1, image(wrong, 1)).coeffs == (Fraction(-8, 7),)


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
        assert extended_eigen_check(basis, 0, image(basis, 0))

    @pytest.mark.parametrize("A", A_VALUES)
    def test_exact_eigenvectors(self, A):
        basis = gram_schmidt(A, 10)
        for n in range(11):
            assert extended_eigen_check(basis, n, image(basis, n))

    def test_identity_b_breaks_everything_above_zero(self):
        basis = gram_schmidt(Fraction(1), 10)
        for n in range(1, 11):
            assert not extended_eigen_check(basis, n, image(basis, n), I2)

    def test_orthogonality_values(self):
        gram = extended_gram(operator_basis(Fraction(1), 3))
        assert gram[0][1] == 0
        assert gram[1][2] == 0
        assert gram[2][2] > 0

    def test_extended_inner_equals_measure_inner(self):
        for A in A_VALUES:
            basis = gram_schmidt(A, 6)
            gram = extended_gram(basis)
            for m in range(7):
                for n in range(7):
                    assert gram[m][n] == mu_inner(basis[m], basis[n], A)

    @pytest.mark.parametrize("A", A_VALUES + (Fraction(1, 7),))
    def test_moment_form_equals_measure_inner_on_random_polynomials(self, A, rng):
        polys = tuple(random_rational_poly(rng, int(d)) for d in rng.integers(0, 9, size=6))
        gram = extended_gram(LTBasis(A, polys))
        for m, p in enumerate(polys):
            for n, q in enumerate(polys):
                assert gram[m][n] == mu_inner(p, q, A)

    @pytest.mark.parametrize("coeff", [0, 1, 2])
    def test_perturbed_coefficient_breaks_orthogonality(self, coeff):
        basis = operator_basis(Fraction(5, 2), 10)
        p6 = list(basis[6].coeffs)
        p6[coeff] += Fraction(1, 1000)
        gram = extended_gram(LTBasis(basis.A, basis.polys[:6] + (Poly(p6),) + basis.polys[7:]))
        pairs = [(m, n) for m in range(11) for n in range(11) if m != n]
        # only the pairs holding the perturbed P_6 lose orthogonality
        assert any(gram[m][n] for m, n in pairs if 6 in (m, n))
        assert not any(gram[m][n] for m, n in pairs if 6 not in (m, n))


class TestConsistencyWithFloatModel:
    def test_gkn_pipeline_admits_eigenvectors(self):
        # derived constraint rows annihilate every (P_n, (P_n(-1), P_n(1)))
        from gknextend.catalog import build_example

        entry = build_example("legendre_type", {"A": 1.0})
        bc = entry.boundary_conditions()
        basis = operator_basis(Fraction(1), 8)
        from conftest import trace_of_poly

        for n in range(9):
            p = basis[n]
            tr = trace_of_poly(LegendreType(Fraction(1)), p).as_array()
            vec = np.concatenate([tr, [complex(p(Fraction(-1))), complex(p(Fraction(1)))]])
            assert np.abs(bc.canonical @ vec).max() < 1e-9

    def test_exact_omega_matches_float_omega(self):
        from gknextend.catalog import build_example
        from conftest import trace_of_poly

        entry = build_example("legendre_type", {"A": 2.0})
        basis = operator_basis(Fraction(2), 6)
        for n in range(7):
            p = basis[n]
            dp = p.deriv()
            exact = np.array(
                [float(16 * dp(Fraction(-1))), float(-16 * dp(Fraction(1)))]
            )
            tr = trace_of_poly(LegendreType(Fraction(2)), p)
            assert np.abs(entry.model.omega_of(tr) - exact).max() < 1e-9
