import numpy as np
import pytest

from gknextend.symplectic import (
    TOL_RADICAL,
    SymplecticError,
    check_gkn_vectors,
    nondegenerate,
    quotient_by,
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
    return np.diag([-1j, 1j])


def fourier_form():
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    S = np.zeros((4, 4))
    S[:2, :2] = J
    S[2:, 2:] = -J
    return S + 0j


def zero_subspace(m):
    return np.zeros((m, 0), dtype=complex)


def legendre_extended_form(A=1.0):
    from gknextend.catalog import build_example

    return build_example("legendre_type", {"A": A}).model


class TestNondegenerate:
    def test_catalog_forms(self):
        assert nondegenerate(first_order_form())
        assert nondegenerate(fourier_form())

    def test_zero_form_is_degenerate(self):
        assert not nondegenerate(np.zeros((2, 2)))

    def test_zero_space_counts_as_degenerate(self):
        assert not nondegenerate(np.zeros((0, 0)))

    def test_rank_threshold_is_relative(self):
        # smallest singular value at 1e-9 of the largest: under TOL_RANK
        assert not nondegenerate(np.diag([1j, 1e-9j]))
        assert nondegenerate(np.diag([1j, 1e-7j]))


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
            F = random_skew_hermitian(rng, m)
            x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            lhs = form_eval(F, x, y)
            rhs = -np.conj(form_eval(F, y, x))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


class TestRadical:
    def test_nondegenerate_trivial_radical(self):
        assert radical(fourier_form()).shape[1] == 0

    def test_zero_form_full_radical(self):
        assert radical(np.zeros((3, 3))).shape[1] == 3

    def test_extended_legendre_radical_contains_minimal_pairs(self):
        model = legendre_extended_form()
        rad = radical(model.F_ext)
        assert rad.shape[1] == 2
        assert subspace_contains(rad, model.M_min)
        assert quotient_by(model.F_ext, model.M_min)[1] <= TOL_RADICAL
        assert model.radical_residual == quotient_by(model.F_ext, model.M_min)[1]

    def test_residual_outside_radical(self):
        # S e_1 = -e_2 for the Fourier form, whose entries have size 1
        F = fourier_form()
        assert quotient_by(F, np.eye(4)[:, :1])[1] == 0.5
        assert quotient_by(F, zero_subspace(4))[1] == 0.0

    def test_rank_nullity(self, rng):
        for _ in range(40):
            m = int(rng.integers(1, 9))
            S = random_skew_hermitian(rng, m)
            if rng.random() < 0.4:  # force degeneracy
                v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                S = S - (S @ np.outer(v, v.conj())) / (v.conj() @ v)
                S = 0.5 * (S - S.conj().T)
            r = np.linalg.matrix_rank(S, tol=1e-8 * max(np.abs(S).max(), 1e-30))
            assert radical(S).shape[1] + r == m


class TestQuotient:
    def test_trivial_quotient_is_same_matrix(self):
        F = fourier_form()
        S_red, _ = quotient_by(F, zero_subspace(4))
        assert np.allclose(S_red, F)

    def test_extended_legendre_quotient(self):
        model = legendre_extended_form()
        S_red, _ = quotient_by(model.F_ext, model.M_min)
        assert S_red.shape == (4, 4)
        assert nondegenerate(S_red)

    def test_full_quotient_of_zero_form(self):
        S_red, _ = quotient_by(np.zeros((2, 2)), np.eye(2))
        assert S_red.shape == (0, 0)

    def test_quotient_by_radical_always_nondegenerate(self, rng):
        for _ in range(30):
            m = int(rng.integers(2, 9))
            S = random_skew_hermitian(rng, m)
            v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            S = S - (S @ np.outer(v, v.conj())) / (v.conj() @ v)
            S = 0.5 * (S - S.conj().T)
            S_red, _ = quotient_by(S, radical(S))
            if len(S_red):
                assert nondegenerate(S_red)
                assert np.array_equal(S_red, -S_red.conj().T)


class TestLagrangian:
    def test_zero_subspace_lagrangian(self):
        assert is_lagrangian(fourier_form(), zero_subspace(4))

    def test_diagonal_span(self):
        F = first_order_form()
        assert is_lagrangian(F, np.array([[1.0], [1.0]]))

    def test_single_vector_fourier(self):
        F = fourier_form()
        assert is_lagrangian(F, np.eye(4)[:, :1])

    def test_complete_diagonal_span(self):
        F = first_order_form()
        assert is_complete_lagrangian(F, np.array([[1.0], [1.0]]))

    def test_zero_subspace_not_complete(self):
        assert not is_complete_lagrangian(first_order_form(), zero_subspace(2))

    def test_needs_nondegenerate(self):
        with pytest.raises(SymplecticError, match="nondegenerate"):
            is_complete_lagrangian(np.zeros((2, 2)), zero_subspace(2))

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
            F = -1j * U @ H @ U.conj().T
            assert nondegenerate(F)
            L = random_complete_lagrangian(F, rng)
            assert L.shape[1] == d
            assert is_lagrangian(F, L)
            assert is_complete_lagrangian(F, L)


class TestComplement:
    def test_zero_subspace_full_complement(self):
        F = fourier_form()
        assert symplectic_complement(F, zero_subspace(4)).shape[1] == 4

    def test_rank_nullity_complement(self):
        F = fourier_form()
        L = np.eye(4)[:, :1]
        assert symplectic_complement(F, L).shape[1] == 3

    def test_complete_lagrangian_self_complement(self, rng):
        F = fourier_form()
        L = random_complete_lagrangian(F, rng)
        assert subspaces_equal(symplectic_complement(F, L), L)


class TestGknVectors:
    def test_legendre_partial_set(self):
        from gknextend.expressions import LegendreType, boundary_form

        S = boundary_form(LegendreType(1))
        t1 = np.array([1.0, 0, 0, 0])
        t2 = np.array([0, 0, 1.0, 0])
        res = check_gkn_vectors(S, zero_subspace(4), [t1, t2])
        assert res.independent_mod_M and res.symmetric

    def test_dependent_vectors(self):
        from gknextend.expressions import LegendreType, boundary_form

        S = boundary_form(LegendreType(1))
        t1 = np.array([1.0, 0, 0, 0])
        res = check_gkn_vectors(S, zero_subspace(4), [t1, 2 * t1])
        assert not res.independent_mod_M

    def test_symmetry_violation(self):
        from gknextend.expressions import LegendreType, boundary_form

        S = boundary_form(LegendreType(1))
        t1 = np.array([1.0, 0, 0, 0])       # constant germ at the left endpoint
        x2 = np.array([0.0, 1.0, 0, 0])     # linear germ there: bracket is 8 != 0
        res = check_gkn_vectors(S, zero_subspace(4), [t1, x2])
        assert res.independent_mod_M and not res.symmetric
