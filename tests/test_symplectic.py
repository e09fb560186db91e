import numpy as np
import pytest

from gknextend.symplectic import (
    TOL_RADICAL,
    SkewForm,
    Subspace,
    SymplecticError,
    check_gkn_vectors,
    quotient_by,
    radical_residual,
)

from conftest import (
    form_eval,
    is_complete_lagrangian,
    is_lagrangian,
    radical,
    random_complete_lagrangian,
    random_skew_hermitian,
    subspace_contains,
    subspaces_equal,
    symplectic_complement,
)


def first_order_form():
    return SkewForm(np.diag([-1j, 1j]), nondegenerate=True)


def fourier_form():
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    S = np.zeros((4, 4))
    S[:2, :2] = J
    S[2:, 2:] = -J
    return SkewForm(S, nondegenerate=True)


def legendre_extended_form(A=1.0):
    from gknextend.catalog import build_example

    return build_example("legendre_type", {"A": A}).model


class TestSkewForm:
    def test_rejects_non_skew(self):
        with pytest.raises(SymplecticError):
            SkewForm(np.eye(2))

    def test_rejects_degenerate_flagged_nondegenerate(self):
        with pytest.raises(SymplecticError):
            SkewForm(np.zeros((2, 2)), nondegenerate=True)

    def test_subspace_needs_full_rank(self):
        with pytest.raises(SymplecticError):
            Subspace(3, np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]]))


class TestFormEval:
    def test_zero_first_slot(self):
        F = fourier_form()
        assert form_eval(F, np.zeros(4), np.ones(4)) == 0

    def test_first_order_equal_endpoint_values(self):
        # i x(1) conj(y(1)) - i x(0) conj(y(0)) at x = y = (1, 1)
        F = first_order_form()
        assert abs(form_eval(F, [1, 1], [1, 1])) < 1e-15

    def test_diagonal_disjoint_support(self):
        F = first_order_form()
        assert form_eval(F, [1, 0], [0, 1]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(SymplecticError):
            form_eval(first_order_form(), [1, 0, 0], [1, 0])

    def test_antisymmetry_random(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 9))
            F = SkewForm(random_skew_hermitian(rng, m))
            x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            lhs = form_eval(F, x, y)
            rhs = -np.conj(form_eval(F, y, x))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


class TestRadical:
    def test_nondegenerate_trivial_radical(self):
        assert radical(fourier_form()).dim == 0

    def test_zero_form_full_radical(self):
        assert radical(SkewForm(np.zeros((3, 3)))).dim == 3

    def test_extended_legendre_radical_contains_minimal_pairs(self):
        model = legendre_extended_form()
        rad = radical(model.F_ext)
        assert rad.dim == 2
        assert subspace_contains(rad, model.M_min)
        assert radical_residual(model.F_ext, model.M_min) <= TOL_RADICAL

    def test_residual_outside_radical(self):
        # S e_1 = -e_2 for the Fourier form, whose entries have size 1
        F = fourier_form()
        assert radical_residual(F, Subspace(4, np.eye(4)[:, :1])) == 0.5
        assert radical_residual(F, Subspace.zero(4)) == 0.0

    def test_rank_nullity(self, rng):
        for _ in range(40):
            m = int(rng.integers(1, 9))
            S = random_skew_hermitian(rng, m)
            if rng.random() < 0.4:  # force degeneracy
                v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                S = S - (S @ np.outer(v, v.conj())) / (v.conj() @ v)
                S = 0.5 * (S - S.conj().T)
            F = SkewForm(S)
            r = np.linalg.matrix_rank(S, tol=1e-8 * max(np.abs(S).max(), 1e-30))
            assert radical(F).dim + r == m


class TestQuotient:
    def test_trivial_quotient_is_same_matrix(self):
        F = fourier_form()
        Fq, Q = quotient_by(F, Subspace.zero(4))
        assert np.allclose(Q, np.eye(4))
        assert np.allclose(Fq.matrix, F.matrix)

    def test_extended_legendre_quotient(self):
        model = legendre_extended_form()
        Fq, _ = quotient_by(model.F_ext, model.M_min)
        assert Fq.dim == 4
        assert Fq.nondegenerate

    def test_full_quotient_of_zero_form(self):
        F = SkewForm(np.zeros((2, 2)))
        Fq, _ = quotient_by(F, Subspace.full(2))
        assert Fq.dim == 0

    def test_rejects_subspace_outside_radical(self):
        F = fourier_form()
        with pytest.raises(SymplecticError, match="radical"):
            quotient_by(F, Subspace(4, np.eye(4)[:, :1]))

    def test_quotient_by_radical_always_nondegenerate(self, rng):
        for _ in range(30):
            m = int(rng.integers(2, 9))
            S = random_skew_hermitian(rng, m)
            v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            S = S - (S @ np.outer(v, v.conj())) / (v.conj() @ v)
            S = 0.5 * (S - S.conj().T)
            F = SkewForm(S)
            rad = radical(F)
            Fq, _ = quotient_by(F, rad)
            if Fq.dim:
                assert Fq.nondegenerate


class TestLagrangian:
    def test_zero_subspace_lagrangian(self):
        assert is_lagrangian(fourier_form(), Subspace.zero(4))

    def test_diagonal_span(self):
        F = first_order_form()
        assert is_lagrangian(F, Subspace(2, np.array([[1.0], [1.0]])))

    def test_single_vector_fourier(self):
        F = fourier_form()
        assert is_lagrangian(F, Subspace(4, np.eye(4)[:, :1]))

    def test_complete_diagonal_span(self):
        F = first_order_form()
        assert is_complete_lagrangian(F, Subspace(2, np.array([[1.0], [1.0]])))

    def test_zero_subspace_not_complete(self):
        assert not is_complete_lagrangian(first_order_form(), Subspace.zero(2))

    def test_needs_nondegenerate(self):
        F = SkewForm(np.zeros((2, 2)))
        with pytest.raises(SymplecticError, match="nondegenerate"):
            is_complete_lagrangian(F, Subspace.zero(2))

    def test_derived_legendre_domain_is_complete_lagrangian(self):
        model = legendre_extended_form()
        from gknextend.catalog import build_example
        from gknextend.extension import verify_self_adjoint_domain

        entry = build_example("legendre_type")
        assert verify_self_adjoint_domain(model, entry.boundary_conditions())

    def test_complete_implies_lagrangian_and_dim(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 4))
            # balanced nondegenerate form of dim 2d
            H = np.diag(np.concatenate([rng.uniform(0.5, 2, d), -rng.uniform(0.5, 2, d)]))
            U = np.linalg.qr(rng.standard_normal((2 * d, 2 * d)) + 1j * rng.standard_normal((2 * d, 2 * d)))[0]
            F = SkewForm(-1j * U @ H @ U.conj().T, nondegenerate=True)
            L = random_complete_lagrangian(F, rng)
            assert L.dim == d
            assert is_lagrangian(F, L)
            assert is_complete_lagrangian(F, L)


class TestComplement:
    def test_zero_subspace_full_complement(self):
        F = fourier_form()
        assert symplectic_complement(F, Subspace.zero(4)).dim == 4

    def test_rank_nullity_complement(self):
        F = fourier_form()
        L = Subspace(4, np.eye(4)[:, :1])
        assert symplectic_complement(F, L).dim == 3

    def test_complete_lagrangian_self_complement(self, rng):
        F = fourier_form()
        L = random_complete_lagrangian(F, rng)
        assert subspaces_equal(symplectic_complement(F, L), L)


class TestGknVectors:
    def test_legendre_partial_set(self):
        from gknextend.expressions import LegendreType, boundary_form

        bf = boundary_form(LegendreType(1))
        t1 = np.array([1.0, 0, 0, 0])
        t2 = np.array([0, 0, 1.0, 0])
        res = check_gkn_vectors(bf.form, Subspace.zero(4), [t1, t2])
        assert res.independent_mod_M and res.symmetric

    def test_dependent_vectors(self):
        from gknextend.expressions import LegendreType, boundary_form

        bf = boundary_form(LegendreType(1))
        t1 = np.array([1.0, 0, 0, 0])
        res = check_gkn_vectors(bf.form, Subspace.zero(4), [t1, 2 * t1])
        assert not res.independent_mod_M

    def test_symmetry_violation(self):
        from gknextend.expressions import LegendreType, boundary_form

        bf = boundary_form(LegendreType(1))
        t1 = np.array([1.0, 0, 0, 0])       # constant germ at the left endpoint
        x2 = np.array([0.0, 1.0, 0, 0])     # linear germ there: bracket is 8 != 0
        res = check_gkn_vectors(bf.form, Subspace.zero(4), [t1, x2])
        assert res.independent_mod_M and not res.symmetric
