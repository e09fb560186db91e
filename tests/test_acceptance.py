"""Acceptance suite: one test per release criterion, one printed line each.

Run as `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Every tolerance is pinned here; nothing defers to later calibration.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from gknextend.catalog import build_example
from gknextend.collocation import make_grid
from gknextend.extension import (
    check_gkn_extended,
    constraint_rows,
    extended_deficiency_vectors,
    verify_self_adjoint_domain,
)
from gknextend.expressions import LegendreType
from gknextend.legendre import exact_suite, lt_eigenvalue, operator_basis
from gknextend.spectral import (
    assemble,
    discretize,
    eigenrelation_residual,
    shooting_oracle,
    spectrum,
    symmetry_defect,
)
from gknextend.symplectic import nondegenerate

from conftest import (
    apply_expr,
    boundary_identity_check,
    canonical_rows,
    extended_eigen_check,
    form_eval,
    gram_schmidt,
    is_complete_lagrangian,
    is_lagrangian,
    radical,
    random_complete_lagrangian,
    reference_eigenvalue,
    random_skew_hermitian,
    rendered_conditions,
    sabotaged_rows,
    subspace_contains,
    w_inner,
)

A_VALUES = (Fraction(1), Fraction(5, 2), Fraction(10))
N_RANGE = range(13)
I2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
EIGENVALUES = {A: [lt_eigenvalue(n, A) for n in N_RANGE] for A in A_VALUES}

GKN_EXAMPLES = (
    "legendre_type",
    "first_order",
    "fourier_3_1",
    "fourier_3_2a",
    "fourier_3_3",
    "fourier_3_4",
    "fourier_3_5",
)

SPECTRAL_CASES = (
    ("fourier_3_1", {"a": 0.0, "b": 1.0, "M": 1.0, "alpha": 0.0}),
    ("fourier_3_1", {"a": 0.0, "b": 1.0, "M": 1.0, "alpha": 1.0}),
    ("fourier_3_3", {}),
    ("fourier_3_4", {}),
    ("fourier_3_5", {}),
    ("first_order", {"alpha": 0.0}),
)

BC_EXPECTATIONS = {
    "legendre_type": (
        np.array([[1, 0, 0, 0, -1, 0], [0, 0, 1, 0, 0, -1]], dtype=complex),
        ("a_W[1] = x(-1)", "a_W[2] = x(1)"),
    ),
    "first_order": (
        np.array([[1, 1, -2]], dtype=complex),
        ("a_W[1] = 0.5*x(0) + 0.5*x(1)",),
    ),
    "fourier_3_1": (
        np.array([[1, 0, 0, 0, 0], [0, 0, 1, 0, -1]], dtype=complex),
        ("x(a) = 0", "a_W[1] = x(b)"),
    ),
    "fourier_3_3": (
        np.array([[1, 0, 0, 0, -1, 0], [0, 0, 1, 0, 0, -1]], dtype=complex),
        ("a_W[1] = x(a)", "a_W[2] = x(b)"),
    ),
    "fourier_3_4": (
        np.array([[0, 1, 0, 0, -1, 0], [0, 0, 0, 1, 0, -1]], dtype=complex),
        ("a_W[1] = x'(a)", "a_W[2] = x'(b)"),
    ),
    "fourier_3_5": (
        np.array([[1, 0, 0, 0, -1, 0], [0, 0, 0, 1, 0, -1]], dtype=complex),
        ("a_W[1] = x(a)", "a_W[2] = x'(b)"),
    ),
}


def report(num: int, label: str, ok: bool, t0: float):
    line = f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({time.perf_counter() - t0:.2f}s)"
    print(line)
    assert ok, line


def test_01_eigenvalue_formula_exact():
    t0 = time.perf_counter()
    ok = True
    for A in A_VALUES:
        basis = gram_schmidt(A, 12)
        q = operator_basis(A, 12)
        # the operator's eigenvectors are multiples of the measure's orthogonal polynomials
        ok &= all(
            tuple(Fraction(c, qn[-1]) for c in qn) == basis[n].coeffs
            for n, qn in enumerate(q.vectors)
        )
        ok &= exact_suite(q, EIGENVALUES[A])["eigenvalue_formula_exact"]
        for n in N_RANGE:
            lam = reference_eigenvalue(n, A)
            ok &= apply_expr(LegendreType(A), basis[n]) == basis[n].scale(lam)
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 30.0
    report(1, "eigenvalue-formula-exact (3 weights, n<=12)", ok, t0)


def test_02_boundary_identity_exact():
    t0 = time.perf_counter()
    ok = True
    for A in A_VALUES:
        basis = gram_schmidt(A, 12)
        for n in N_RANGE:
            ok &= boundary_identity_check(basis, n)
        ok &= exact_suite(operator_basis(A, 12), EIGENVALUES[A])["boundary_identity_exact"]
    report(2, "endpoint-identity-exact (fixed sign pairing)", ok, t0)


def test_03_extended_eigenrelation_both_directions():
    t0 = time.perf_counter()
    ok = True
    for A in A_VALUES:
        basis = gram_schmidt(A, 12)
        images = [apply_expr(LegendreType(A), p) for p in basis.polys]
        for n in N_RANGE:
            ok &= extended_eigen_check(basis, n, images[n])            # B = 0: exact eigenvector
            ok &= not extended_eigen_check(basis, n, images[n], I2)    # B = I: must fail
        verdicts = exact_suite(operator_basis(A, 12), EIGENVALUES[A])
        ok &= verdicts["extended_eigen_relation_exact"]
        ok &= verdicts["nonzero_B_breaks_eigenvectors"]
    report(3, "extended-eigenvectors-iff-B-zero", ok, t0)


def test_04_derived_boundary_conditions_match():
    t0 = time.perf_counter()
    ok = True
    for name, (expected, strings) in BC_EXPECTATIONS.items():
        entry = build_example(name)
        ok &= float(np.abs(canonical_rows(entry) - expected).max()) <= 1e-12
        ok &= rendered_conditions(entry) == strings
    report(4, "derived-conditions-match-published", ok, t0)


def test_05_gkn_verification_with_controls():
    t0 = time.perf_counter()
    ok = True
    for name in GKN_EXAMPLES:
        entry = build_example(name)
        rep = check_gkn_extended(entry.model, entry.candidates)
        ok &= rep.independent_mod_M and rep.symmetric and rep.count_ok
        ok &= verify_self_adjoint_domain(entry.model, entry.boundary_conditions())
        for ctrl, cands in entry.controls.items():
            bad_rep = check_gkn_extended(entry.model, cands)
            flag = {
                "symmetry": not bad_rep.symmetric,
                "independence": not bad_rep.independent_mod_M,
                "cardinality": not bad_rep.count_ok,
            }[ctrl]
            ok &= flag
            rows = constraint_rows(entry.model, cands)
            ok &= not verify_self_adjoint_domain(entry.model, rows)
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 5.0
    report(5, "gkn-sets-pass-and-3-controls-fail-per-example", ok, t0)


def test_06_structural_invariants_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    ok = True
    for name in GKN_EXAMPLES + ("fourier_3_2b",):
        model = build_example(name).model
        T = model.T
        scale = 1.0 + np.abs(model.Omega).max(initial=0.0)
        ok &= float(np.abs(model.Omega @ T.T).max(initial=0.0)) <= 1e-12 * scale
        ok &= subspace_contains(radical(model.F_ext), model.M_min, tol=1e-12)
        S_red = model.quotient_form
        ok &= len(S_red) == 2 * model.deficiency and nondegenerate(S_red)
        for _ in range(100):
            x = rng.standard_normal(model.trace_dim) + 1j * rng.standard_normal(model.trace_dim)
            om = model.Omega @ x
            for j in range(model.k):
                lhs = w_inner(model.W, om, model.W.Xi[:, j])
                rhs = form_eval(model.S, x, T[j])
                ok &= abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))
    report(6, "structural-invariants-100-trials-per-model", ok, t0)


def test_07_deficiency_isomorphism():
    t0 = time.perf_counter()
    ok = True
    grid = make_grid(64, 0.0, 1.0)
    for name in ("first_order", "fourier_3_1", "fourier_3_2a", "fourier_3_3",
                 "fourier_3_4", "fourier_3_5"):
        model = build_example(name).model
        for sign in (+1, -1):
            vecs = extended_deficiency_vectors(model, sign)
            ok &= len(vecs) == model.deficiency
            for x, a in vecs:
                r = eigenrelation_residual(model, grid, x, a, sign * 1j)
                ok &= r <= 1e-8
    report(7, "deficiency-vectors-count-and-residual", ok, t0)


@pytest.fixture(scope="module")
def spectral_discretizations():
    out = {}
    grid = make_grid(64, 0.0, 1.0)
    for name, params in SPECTRAL_CASES:
        entry = build_example(name, params)
        rows = canonical_rows(entry)
        out[(name, tuple(sorted(params.items())))] = (entry, rows, discretize(entry.model, grid))
    return out


def test_08_spectral_oracle_agreement(spectral_discretizations):
    t0 = time.perf_counter()
    ok = True
    for (name, _), (entry, rows, disc) in spectral_discretizations.items():
        defect = symmetry_defect(disc, rows)
        ok &= defect <= 1e-9
        rep = spectrum(assemble(disc, rows), 8)
        ok &= rep.max_imag <= 1e-8
        roots = shooting_oracle(entry.model, rows, entry.spectral_window)
        oracle5 = sorted(roots, key=abs)[:5]
        ok &= len(oracle5) == 5
        disc = sorted(rep.eigenvalues.real, key=abs)
        for r in oracle5:
            err = min(abs(d - r) for d in disc) / max(1.0, abs(r))
            ok &= err <= 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 60.0
    report(8, "first-5-eigenvalues-match-shooting-oracle", ok, t0)


def test_09_negative_spectral_controls(spectral_discretizations):
    t0 = time.perf_counter()
    ok = True
    for (name, _), (entry, rows, disc) in spectral_discretizations.items():
        honest = symmetry_defect(disc, rows)
        bad = sabotaged_rows(rows, entry.model.trace_dim)
        # the sabotaged rows share the discretization, as in `spectrum`
        sab = symmetry_defect(disc, bad)
        ok &= sab >= 1e-4
        ok &= sab >= 1e4 * max(honest, 1e-300)
    report(9, "sabotaged-conditions-raise-defect-4-orders", ok, t0)


def test_10_symplectic_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    ok = True
    for i in range(1000):
        m = int(rng.integers(1, 9))
        S = random_skew_hermitian(rng, m)
        F = S
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v = form_eval(F, x, y)
        ok &= abs(v + np.conj(form_eval(F, y, x))) <= 1e-12 * (1 + abs(v))
        r = np.linalg.matrix_rank(S, tol=1e-8 * max(np.abs(S).max(), 1e-30))
        ok &= radical(F).shape[1] + r == m
        if i % 4 == 0:
            d = int(rng.integers(1, 4))
            H = np.diag(np.concatenate([rng.uniform(0.5, 2, d), -rng.uniform(0.5, 2, d)]))
            U = np.linalg.qr(
                rng.standard_normal((2 * d, 2 * d)) + 1j * rng.standard_normal((2 * d, 2 * d))
            )[0]
            Fb = -1j * U @ H @ U.conj().T
            ok &= nondegenerate(Fb)
            L = random_complete_lagrangian(Fb, rng)
            ok &= is_complete_lagrangian(Fb, L) and L.shape[1] == d
            ok &= is_lagrangian(Fb, L)
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 10.0
    report(10, "1000-random-forms-property-suite", ok, t0)
