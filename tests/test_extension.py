from fractions import Fraction

import numpy as np
import pytest

from gknextend.catalog import DEFAULT_PARAMS, EXAMPLE_NAMES, build_example, sabotage_rows
from gknextend.expressions import (
    Fourier,
    apply_expr,
    boundary_form,
)
from gknextend.extension import (
    ExtensionSpace,
    ModelError,
    boundary_conditions_from_rows,
    build_model,
    check_gkn_extended,
    constraint_rows,
    derive_boundary_conditions,
    extended_deficiency_vectors,
    model_from_json,
    model_to_json,
    rref,
    verify_self_adjoint_domain,
)
from gknextend.symplectic import matrix_rank, quotient_by

from conftest import (
    form_eval,
    quotient_certificate,
    radical,
    random_complete_lagrangian,
    subspace_contains,
    trace_of_poly,
    w_inner,
)

ALL_ENTRIES = [build_example(n) for n in EXAMPLE_NAMES]
GKN_ENTRIES = [e for e in ALL_ENTRIES if e.candidates.size]
# the defaults and a point off them for every parameter an example reads
PARAM_SETS = (
    {},
    {"A": 2.5, "M": 0.7, "N_weight": 3.2, "alpha": 0.4, "beta_re": 0.3, "beta_im": -0.6,
     "gamma": -1.1, "a": -0.4, "b": 1.3},
)


def published_omega(name: str, A: float, M: float, N: float) -> list:
    """Omega of each worked example as the sources print it."""
    return {
        "legendre_type": [[0, 8 * A, 0, 0], [0, 0, 0, -8 * A]],
        "first_order": [[-1j, 1j]],
        "fourier_3_1": [[0, 0, 0, -M]],
        "fourier_3_2a": [[-M, 0, 0, 0]],
        "fourier_3_2b": [[-M, 0, 0, 0]],
        "fourier_3_3": [[0, M, 0, 0], [0, 0, 0, -N]],
        "fourier_3_4": [[-M, 0, 0, 0], [0, 0, N, 0]],
        "fourier_3_5": [[0, M, 0, 0], [0, 0, N, 0]],
    }[name]


class TestBuildModel:
    def test_classical_model_takes_the_general_path(self):
        # dim W = 0 is the classical GKN theorem: every W-side array is empty
        bf = boundary_form(Fourier(0, 1))
        W0 = np.zeros((0, 0))
        model = build_model(bf, ExtensionSpace(0, W0), W0, [])
        assert model.T.shape == (0, 4)
        assert model.Omega.shape == (0, 4)
        assert model.M_min.dim == 0
        assert np.array_equal(model.F_ext.matrix, bf.form.matrix)
        for sign in (+1, -1):
            vecs = extended_deficiency_vectors(model, sign)
            assert len(vecs) == model.deficiency
            assert all(v.a.shape == (0,) for v in vecs)

    def test_partial_gkn_traces_need_the_expression_arity(self):
        bf = boundary_form(Fourier(0, 1))
        with pytest.raises(ModelError, match="arity"):
            build_model(bf, ExtensionSpace(1, np.eye(1)), np.zeros((1, 1)), [[1, 1]])

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_omega_matches_published_value(self, name):
        for params in PARAM_SETS:
            p = {**DEFAULT_PARAMS, **params}
            expected = published_omega(name, p["A"], p["M"], p["N_weight"])
            Omega = build_example(name, params).model.Omega
            assert np.abs(Omega - np.array(expected)).max() < 1e-12

    def test_legendre_omega_action(self):
        model = build_example("legendre_type", {"A": 3.0}).model
        x = np.array([0.2, 1.5, -0.4, 2.0])
        om = model.Omega @ x
        # (8A x'(-1), -8A x'(1))
        assert np.abs(om - np.array([24 * 1.5, -24 * 2.0])).max() < 1e-12

    def test_dim_w_exceeding_deficiency_rejected(self):
        bf = boundary_form(Fourier(0, 1))
        W = ExtensionSpace(3, np.eye(3))
        B = np.zeros((3, 3))
        T = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]]
        with pytest.raises(ModelError, match="dim W"):
            build_model(bf, W, B, T)

    def test_asymmetric_partial_set_rejected_with_pair(self):
        bf = boundary_form(Fourier(0, 1))
        W = ExtensionSpace(2, np.eye(2))
        B = np.zeros((2, 2))
        T = [[1, 0, 0, 0], [0, 1, 0, 0]]
        with pytest.raises(ModelError, match=r"t_\d, t_\d"):
            build_model(bf, W, B, T)

    def test_dependent_partial_set_rejected(self):
        bf = boundary_form(Fourier(0, 1))
        W = ExtensionSpace(2, np.eye(2))
        B = np.zeros((2, 2))
        T = [[1, 0, 0, 0], [2, 0, 0, 0]]
        with pytest.raises(ModelError, match="dependent"):
            build_model(bf, W, B, T)

    def test_non_self_adjoint_B_rejected(self):
        bf = boundary_form(Fourier(0, 1))
        W = ExtensionSpace(2, np.diag([1.0, 0.5]))
        B = [[0.0, 1.0], [0.0, 0.0]]
        T = [[1, 0, 0, 0], [0, 0, 1, 0]]
        with pytest.raises(ModelError, match="self-adjoint"):
            build_model(bf, W, B, T)

    def test_general_b_with_weighted_gram(self):
        # the published self-adjointness pattern for diag(1/M, 1/N)
        entry = build_example(
            "fourier_3_3",
            {"M": 2.0, "N_weight": 5.0, "alpha": 1.0, "beta_re": 0.7, "beta_im": -0.3, "gamma": 2.0},
        )
        GB = entry.model.W.G @ entry.model.B
        assert np.abs(GB - GB.conj().T).max() < 1e-12


class TestStructuralInvariants:
    @pytest.mark.parametrize("entry", ALL_ENTRIES, ids=lambda e: e.name)
    def test_randomized_invariants(self, entry, rng):
        model = entry.model
        T = model.T
        if model.k:
            assert np.abs(model.Omega @ T.T).max() <= 1e-12 * (1 + np.abs(model.Omega).max())
        for _ in range(25):
            x = rng.standard_normal(model.trace_dim) + 1j * rng.standard_normal(model.trace_dim)
            om = model.Omega @ x
            for j in range(model.k):
                lhs = w_inner(model.W, om, model.W.Xi[:, j])
                rhs = form_eval(model.boundary.form, x, T[j])
                assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))
        assert subspace_contains(radical(model.F_ext), model.M_min, tol=1e-12)
        Fq, _ = quotient_by(model.F_ext, model.M_min)
        assert Fq.dim == 2 * model.deficiency
        assert Fq.nondegenerate


class TestMaximalAction:
    def test_polynomial_path_matches_exact_module(self):
        from gknextend.expressions import LegendreType

        from conftest import gram_schmidt, jump_action

        A = Fraction(1)
        model = build_example("legendre_type", {"A": 1.0}).model
        basis = gram_schmidt(A, 4)
        p = basis[3]
        a = (p(Fraction(-1)), p(Fraction(1)))
        h_exact, w_exact = apply_expr(LegendreType(A), p), jump_action(A, p, a)
        # the float model's action (l p, B a - Omega tr p)
        h_float = apply_expr(model.expr, p)
        w_float = model.B @ np.array([float(a[0]), float(a[1])]) - model.Omega @ np.array(
            trace_of_poly(model.expr, p), dtype=complex
        )
        assert h_float == h_exact
        assert np.abs(w_float - np.array([float(w_exact[0]), float(w_exact[1])])).max() < 1e-10


class TestGknExtended:
    @pytest.mark.parametrize("entry", GKN_ENTRIES, ids=lambda e: e.name)
    def test_published_sets_pass(self, entry):
        rep = check_gkn_extended(entry.model, entry.candidates)
        assert rep.independent_mod_M and rep.symmetric and rep.count_ok

    @pytest.mark.parametrize("entry", GKN_ENTRIES, ids=lambda e: e.name)
    def test_controls_fail_where_expected(self, entry):
        # each control breaks the GKN condition it names and keeps the other two
        for params in PARAM_SETS:
            built = build_example(entry.name, params)
            assert set(built.controls) == {"symmetry", "independence", "cardinality"}
            for ctrl, cands in built.controls.items():
                rep = check_gkn_extended(built.model, cands)
                holds = {
                    "symmetry": rep.symmetric,
                    "independence": rep.independent_mod_M,
                    "cardinality": rep.count_ok,
                }
                assert holds == {c: c != ctrl for c in holds}, (entry.name, params, ctrl, rep)

    def test_minimal_pair_breaks_independence(self):
        entry = build_example("legendre_type")
        model = entry.model
        mutated = np.vstack([np.concatenate([model.T[0], model.W.Xi[:, 0]]), entry.candidates[1]])
        rep = check_gkn_extended(model, mutated)
        assert not rep.independent_mod_M


class TestDeriveBoundaryConditions:
    @pytest.mark.parametrize("entry", ALL_ENTRIES, ids=lambda e: e.name)
    def test_canonical_and_strings(self, entry):
        bc = entry.boundary_conditions()
        assert np.abs(bc.canonical - entry.expected_canonical).max() < 1e-12
        assert tuple(bc.human_readable) == entry.expected_strings

    def test_rejects_invalid_candidates(self):
        entry = build_example("legendre_type")
        with pytest.raises(ModelError, match="GKN"):
            derive_boundary_conditions(entry.model, entry.controls["symmetry"])

    def test_rref_pivot_normalization(self):
        R, piv = rref(np.array([[0, 2.0, 4.0], [1.0, 1.0, 1.0]]))
        assert piv == [0, 1]
        assert np.allclose(R, [[1, 0, -1], [0, 1, 2]])

    def test_degenerate_row_rendered_guarded(self):
        from gknextend.extension import render_rows

        out = render_rows(np.zeros((1, 5), dtype=complex), ("a", "b", "c", "d", "e"), 4)
        assert "degenerate" in out[0]


# parameters at the edges of the schema; each example reads only some of them
EDGE_PARAMS = (
    {},
    {"M": 1e-6},
    {"M": 1e6},
    {"A": 1e-3},
    {"A": 1e5},
    {"A": 1e12},
    {"b": 1e-3},
    {"b": 0.1},
    {"b": 20.0},
    {"a": 100.0, "b": 101.0},
    {"beta_re": 0.4, "beta_im": 0.7},
)


def _certificate_cases(entry, rng):
    """Constraint rows of every kind the certificate meets on one model."""
    model = entry.model
    d = model.deficiency
    published = entry.boundary_conditions().C
    yield published
    for cands in entry.controls.values():
        yield constraint_rows(model, cands)
    Fq, Q = quotient_by(model.F_ext, model.M_min)
    for _ in range(20):
        lifted = Q @ random_complete_lagrangian(Fq, rng).basis
        rows = lifted.conj().T @ model.F_ext.matrix
        yield rows
        for eps in (1e-3, 1e-6):
            noise = rng.standard_normal(rows.shape) + 1j * rng.standard_normal(rows.shape)
            yield rows + eps * np.abs(rows).max() * noise
    mix = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    yield np.vstack([published, mix @ published])  # a dependent extra row: rank d
    yield np.vstack([published[:-1], mix[:-1] @ published[:-1]])  # rank d - 1
    for _ in range(3):
        shape = (d, model.ambient_dim)
        yield rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestVerifySelfAdjointDomain:
    @pytest.mark.parametrize("entry", ALL_ENTRIES, ids=lambda e: e.name)
    def test_published_verdicts(self, entry):
        bc = entry.boundary_conditions()
        expected = entry.name != "fourier_3_2b"
        assert verify_self_adjoint_domain(entry.model, bc) is expected

    def test_wrong_shape_conditions_for_3_1(self):
        # x(a) = 0, x(b) = 0, W coordinate unconstrained
        entry = build_example("fourier_3_1")
        rows = np.array([[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]], dtype=complex)
        bc = boundary_conditions_from_rows(entry.model, rows)
        assert not verify_self_adjoint_domain(entry.model, bc)

    @pytest.mark.parametrize("entry", GKN_ENTRIES, ids=lambda e: e.name)
    def test_mutated_controls_not_self_adjoint(self, entry):
        for ctrl, cands in entry.controls.items():
            bc = boundary_conditions_from_rows(entry.model, constraint_rows(entry.model, cands))
            assert not verify_self_adjoint_domain(entry.model, bc), (entry.name, ctrl)

    @pytest.mark.parametrize("entry", GKN_ENTRIES, ids=lambda e: e.name)
    def test_random_lagrangian_completions_verify(self, entry, rng):
        model = entry.model
        Fq, Q = quotient_by(model.F_ext, model.M_min)
        for _ in range(10):
            L = random_complete_lagrangian(Fq, rng)
            lifted = Q @ L.basis
            cands = lifted.T
            rep = check_gkn_extended(model, cands)
            assert rep.independent_mod_M and rep.symmetric and rep.count_ok
            bc = derive_boundary_conditions(model, cands)
            assert verify_self_adjoint_domain(model, bc)

    @pytest.mark.parametrize("entry", ALL_ENTRIES, ids=lambda e: e.name)
    def test_over_determined_rows_rejected(self, entry):
        # the published rows plus a_W[k] = 0: the nullspace loses a minimal pair
        model = entry.model
        extra = np.zeros((1, model.ambient_dim))
        extra[0, -1] = 1.0
        rows = np.vstack([entry.boundary_conditions().C, extra])
        assert not verify_self_adjoint_domain(model, boundary_conditions_from_rows(model, rows))

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_certificate_agrees_with_quotient_reference(self, name):
        rng = np.random.default_rng(15)
        seen = set()
        for params in EDGE_PARAMS:
            entry = build_example(name, params)
            key = repr(model_to_json(entry.model))
            if key in seen:
                continue
            seen.add(key)
            model = entry.model
            for rows in _certificate_cases(entry, rng):
                bc = boundary_conditions_from_rows(model, rows)
                verdict = verify_self_adjoint_domain(model, bc)
                if matrix_rank(rows) == model.deficiency:
                    assert verdict is quotient_certificate(model, bc), (params, rows)
                else:
                    assert not verdict, (params, rows)


class TestDeficiencyVectors:
    def test_first_order_closed_form(self):
        alpha = 1.5
        model = build_example("first_order", {"alpha": alpha}).model
        vecs = extended_deficiency_vectors(model, +1)
        assert len(vecs) == 1
        # Omega x = i(x(1) - x(0)) with x = e^(u - 1/2); a = (B - iI)^{-1} Omega x
        omega = 1j * (np.exp(0.5) - np.exp(-0.5))
        expected = omega / (alpha - 1j)
        assert abs(vecs[0].a[0] - expected) < 1e-12

    def test_zero_b_scalar_inversion(self):
        model = build_example("first_order", {"alpha": 0.0}).model
        for sign in (+1, -1):
            v = extended_deficiency_vectors(model, sign)[0]
            omega = model.Omega @ v.solution.trace()
            assert abs(v.a[0] - omega[0] / (-sign * 1j)) < 1e-14

    @pytest.mark.parametrize(
        "name", ["first_order", "fourier_3_1", "fourier_3_3", "fourier_3_5"]
    )
    def test_count_matches_deficiency(self, name):
        model = build_example(name).model
        for sign in (+1, -1):
            vecs = extended_deficiency_vectors(model, sign)
            assert len(vecs) == model.deficiency


class TestSerialization:
    @pytest.mark.parametrize("entry", ALL_ENTRIES, ids=lambda e: e.name)
    def test_model_round_trip(self, entry):
        data = model_to_json(entry.model)
        rebuilt = model_from_json(data)
        assert np.abs(rebuilt.Omega - entry.model.Omega).max() < 1e-12
        assert np.abs(rebuilt.F_ext.matrix - entry.model.F_ext.matrix).max() < 1e-12

    def test_round_trip_without_extension(self):
        # dim W = 0: the classical GKN setting, every matrix of W is 0 x 0
        W0 = np.zeros((0, 0))
        model = build_model(boundary_form(Fourier(0, 1)), ExtensionSpace(0, W0), W0, [])
        data = model_to_json(model)
        rebuilt = model_from_json(data)
        assert rebuilt.W.k == 0 and rebuilt.B.shape == (0, 0)
        assert np.array_equal(rebuilt.F_ext.matrix, model.F_ext.matrix)
        assert model_to_json(rebuilt) == data

    def test_sabotage_changes_constraints(self):
        entry = build_example("fourier_3_1")
        bc = entry.boundary_conditions()
        rows = sabotage_rows(bc, entry.model.trace_dim)
        assert np.abs(rows - bc.canonical).max() > 0.5
