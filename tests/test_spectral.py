import copy
import dataclasses
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from conftest import (
    batch_symmetry_defect,
    benchmark_module,
    benchmark_ops,
    canonical_rows,
    domain_basis,
    loop_symmetry_defect,
    nodal_discretize,
    one_product_h_block,
    qr_symmetry_defect,
    qz_eigenvalues,
    reduced_basis,
    reference_assemble,
    rk_fundamental_traces,
    sabotaged_rows,
    tied_pairs,
)
from gknextend import catalog
from gknextend import spectral as spectral_module
from gknextend.catalog import build_example
from gknextend.cli import main
from gknextend.collocation import make_grid
from gknextend.expressions import (
    DiffExpr,
    ExpressionError,
    FirstOrderI,
    Fourier,
    GeneralEvenOrder,
)
from gknextend.legendre import lt_eigenvalue
from gknextend.extension import (
    ExtensionSpace,
    build_model,
    extended_deficiency_vectors,
    rref,
)
from gknextend.polynomials import Poly
from gknextend.spectral import (
    THETA_13,
    Companion,
    SpectralError,
    _expm,
    _fundamental_traces,
    _horner,
    assemble,
    characteristic_value,
    discretize,
    eigenrelation_residual,
    shooting_oracle,
    spectrum,
    symmetry_defect,
)

# first eigenvalue of the one-atom endpoint-coupled model at alpha = 0 on [0, 1]:
# root of sqrt(l) cos sqrt(l) = l sin sqrt(l), frozen from an independent
# high-precision bisection
LAMBDA_31_ALPHA0 = 0.740173884394967


# Published data of the second-order examples at default parameters
# (M = N = 1, B = 0, [a, b] = [0, 1]): condition rows on
# (x(a), x'(a), x(b), x'(b), a_W) and coupling rows Omega on the traces.
FOURIER_PUBLISHED = {
    "fourier_3_1": ([[1, 0, 0, 0, 0], [0, 0, 1, 0, -1]], [[0, 0, 0, -1]]),
    "fourier_3_2a": ([[0, 1, 0, 0, -1], [0, 0, 1, 0, 0]], [[-1, 0, 0, 0]]),
    "fourier_3_3": ([[1, 0, 0, 0, -1, 0], [0, 0, 1, 0, 0, -1]], [[0, 1, 0, 0], [0, 0, 0, -1]]),
    "fourier_3_4": ([[0, 1, 0, 0, -1, 0], [0, 0, 0, 1, 0, -1]], [[-1, 0, 0, 0], [0, 0, 1, 0]]),
    "fourier_3_5": ([[1, 0, 0, 0, -1, 0], [0, 0, 0, 1, 0, -1]], [[0, 1, 0, 0], [0, 0, 1, 0]]),
}


def cos_sinc(lam, L=1.0):
    """cos(sqrt(lam) L) and sin(sqrt(lam) L)/sqrt(lam), entire in lam."""
    s = np.sqrt(np.asarray(lam, dtype=complex)) * L
    return np.cos(s).real, L * np.sinc(s / np.pi).real


def closed_form_characteristic(name, lam, alpha=0.0, L=1.0):
    """Characteristic function from the closed-form fundamental system on an interval of length L."""
    lam = np.asarray(lam, dtype=float)
    if name == "first_order":
        return (alpha - lam) * np.cos(lam / 2) - 2 * np.sin(lam / 2)
    rows, omega = (np.array(m, dtype=float) for m in FOURIER_PUBLISHED[name])
    k = rows.shape[1] - 4
    C, S = cos_sinc(lam, L)
    one, zero = np.ones_like(lam), np.zeros_like(lam)
    # traces of cos(sqrt(lam) u) and sin(sqrt(lam) u)/sqrt(lam)
    traces = np.stack(
        [np.stack([one, zero, C, -lam * S], -1), np.stack([zero, one, S, C], -1)], -1
    )
    sysm = np.zeros(lam.shape + (2 + k, 2 + k))
    sysm[..., :2, :2] = rows[:, :4] @ traces
    sysm[..., :2, 2:] = rows[:, 4:]
    sysm[..., 2:, :2] = -omega @ traces
    sysm[..., 2:, 2:] = -lam[..., None, None] * np.eye(k)
    return np.linalg.det(sysm)


def closed_form_roots(name, window, L=1.0, num=20000):
    grid = np.linspace(*window, num)
    vals = closed_form_characteristic(name, grid, L=L)
    return [
        brentq(
            lambda x: float(closed_form_characteristic(name, x, L=L)), grid[i], grid[i + 1], xtol=1e-14
        )
        for i in np.flatnonzero(vals[:-1] * vals[1:] < 0)
    ]


@pytest.fixture(scope="module")
def grid01():
    return make_grid(64, 0.0, 1.0)


def classical_model(expr):
    """Classical path: empty extension space, plain boundary conditions."""
    return build_model(expr, ExtensionSpace(0, np.zeros((0, 0))), [], [])


def fourier_k0_model(a=0.0, b=1.0):
    return classical_model(
        Fourier(Fraction(a).limit_denominator(10**6), Fraction(b).limit_denominator(10**6))
    )


DIRICHLET_ROWS = np.array([[1, 0, 0, 0], [0, 0, 1, 0]], dtype=complex)


def mixed_coefficient_model():
    """-((1 + u/2) x')' + 3 x on [-1/2, 1]: x'' has a variable coefficient, x' and x constant ones."""
    expr = GeneralEvenOrder((Poly([3]), Poly([1, Fraction(1, 2)])), Fraction(-1, 2), Fraction(1))
    assert {j: c.degree for j, c in expr.coefficient_polys()} == {0: 0, 1: 0, 2: 1}
    return classical_model(expr)


# a short and an off-centre interval are the hardest cases for the
# sabotage control
DEFECT_PARAMS = {
    "defaults": {},
    "short": {"a": 0.05, "b": 0.6, "M": 0.85},
    "off_centre": {"a": 0.4, "b": 2.35, "M": 0.55, "N_weight": 1.15, "alpha": -0.9, "gamma": -0.7},
}
ORACLE_EXAMPLES = [
    "first_order", "fourier_3_1", "fourier_3_2a", "fourier_3_3", "fourier_3_4", "fourier_3_5",
]
SPECTRUM_EXAMPLES = ["legendre_type", *ORACLE_EXAMPLES]
# the W weights each oracle example reads: first_order has its own fixed
# weight, and the one-coordinate examples read M alone
WEIGHT_PARAMS = {"first_order": (), "fourier_3_1": ("M",), "fourier_3_2a": ("M",)}
EXTREME_WEIGHTS = [
    (name, params)
    for name in ORACLE_EXAMPLES
    for params in [{}] + [
        {key: v}
        for key in WEIGHT_PARAMS.get(name, ("M", "N_weight"))
        for v in (1e-12, 1e-6, 1e6, 1e12)
    ]
]


def reference_roots(reference, name, params):
    """Zeros of the benchmark's closed-form characteristic function.

    The uniform scan of its window is joined by +-10^(-15..0): a pair +-eps
    near 0 (fourier_3_5 at a small N_weight) shares one cell of the uniform
    scan and shows no sign change there.
    """
    p = reference.params_of({"params": params})
    f = reference.characteristic(name, p)
    near_0 = np.logspace(-15, 0, 301)
    scan = np.linspace(*reference.window(name, p), 20000)
    grid = np.unique(np.concatenate([scan, near_0, -near_0]))
    vals = f(grid)
    roots = list(grid[vals == 0.0])
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0):
        roots.append(
            brentq(lambda x: float(f(x)), grid[i], grid[i + 1], xtol=1e-14, rtol=4 * np.finfo(float).eps)
        )
    return np.array(roots)


class TestAssemble:
    def test_dimension_bookkeeping_3_1(self, grid01):
        entry = build_example("fourier_3_1")
        op = assemble(discretize(entry.model, grid01), canonical_rows(entry))
        assert op.reduced_dim == (65 + 1) - 2

    def test_dimension_bookkeeping_legendre(self):
        entry = build_example("legendre_type")
        grid = make_grid(64, -1.0, 1.0)
        op = assemble(discretize(entry.model, grid), canonical_rows(entry))
        assert op.reduced_dim == (65 + 2) - 2

    def test_dimension_bookkeeping_first_order(self, grid01):
        entry = build_example("first_order")
        op = assemble(discretize(entry.model, grid01), canonical_rows(entry))
        assert op.reduced_dim == (65 + 1) - 1

    def test_domain_basis_satisfies_constraints(self, grid01):
        entry = build_example("fourier_3_5")
        bc = canonical_rows(entry)
        disc = discretize(entry.model, grid01)
        P, _ = domain_basis(reduced_basis(disc, bc), nodal_discretize(entry.model, grid01).Gram_full)
        resid = np.abs(bc @ disc.lift @ P).max()
        assert resid < 1e-10

    @pytest.mark.parametrize("N", [16, 64, 256])
    @pytest.mark.parametrize(
        "name, params",
        [(name, {}) for name in SPECTRUM_EXAMPLES]
        + [
            (name, params)
            for name in ORACLE_EXAMPLES[1:]
            for params in ({"M": 1e-12}, {"N_weight": 1e12}, {"b": 1e-3}, {"a": 100, "b": 101})
        ],
        ids=str,
    )
    def test_domain_basis_is_g_orthonormal(self, name, params, N):
        # P = R^-1 Q with R factored from the whole Gram: each row, as a
        # functional of G-norm ||row R^-1||, vanishes on the G-unit columns
        # of P; P* G P = I; and C is the operator in that basis, P* G A P,
        # with G and A the nodal matrices
        entry = build_example(name, params)
        a, b = (float(v) for v in entry.model.expr.interval)
        bc = canonical_rows(entry)
        grid = make_grid(N, a, b)
        disc = discretize(entry.model, grid)
        op = assemble(disc, bc)
        nodal = nodal_discretize(entry.model, grid)
        G, A = nodal.Gram_full, nodal.A_full
        P, R = domain_basis(reduced_basis(disc, bc), G)
        rows = bc @ disc.lift
        dual = np.linalg.norm(scipy.linalg.solve_triangular(R, rows.T, trans="T"), axis=0)
        assert np.all(np.abs(rows @ P).max(axis=1) <= 1e-12 * dual)
        assert np.abs(P.conj().T @ G @ P - np.eye(op.reduced_dim)).max() <= 1e-12
        assert np.abs(P.conj().T @ G @ A @ P - op.C).max() <= 1e-12 * np.abs(op.C).max()

    @pytest.mark.parametrize("N", [16, 64, 256])
    @pytest.mark.parametrize(
        "name, params",
        [(name, {}) for name in SPECTRUM_EXAMPLES]
        + [("fourier_3_3", {"N_weight": 1e-12}), ("fourier_3_3", {"beta_im": 0.7})],
        ids=str,
    )
    def test_reduced_operator_is_q_star_m_q(self, name, params, N):
        # the compact-WY update gives the C of the explicit reflector basis Q
        entry = build_example(name, params)
        a, b = (float(v) for v in entry.model.expr.interval)
        bc = canonical_rows(entry)
        disc = discretize(entry.model, make_grid(N, a, b))
        C = assemble(disc, bc).C
        Q = reduced_basis(disc, bc)
        want = Q.conj().T @ disc.M @ Q
        assert C.dtype == want.dtype
        assert np.abs(C - want).max() <= 1e-13 * np.abs(C).max()

    @pytest.mark.parametrize("name", ["fourier_3_3", "first_order"])
    def test_assemble_memory(self, name):
        # at its peak assemble holds the copy that becomes C and one rank-2r
        # product of C's size, and afterwards C alone; Q is never formed
        entry = build_example(name)
        a, b = (float(v) for v in entry.model.expr.interval)
        disc, bc = discretize(entry.model, make_grid(256, a, b)), canonical_rows(entry)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            op = assemble(disc, bc)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 2.25 * op.C.nbytes
        assert kept - start <= 1.05 * op.C.nbytes

    @pytest.mark.parametrize("N", [16, 64, 256])
    @pytest.mark.parametrize("name", [*SPECTRUM_EXAMPLES, "mixed"])
    def test_h_block_matches_one_product_route(self, name, N):
        # constant terms read R_ref D_j R_ref^-1 from the grid's cache, variable
        # ones go through one product with R_ref: the same block as one
        # product for every term, to rounding
        model = mixed_coefficient_model() if name == "mixed" else build_example(name).model
        a, b = (float(v) for v in model.expr.interval)
        grid = make_grid(N, a, b)
        M = discretize(model, grid).M[: N + 1, : N + 1]
        want = one_product_h_block(model, grid)
        assert M.dtype == want.dtype
        assert np.abs(M - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize(
        "name, params, dtype",
        [
            *((name, {}, np.float64) for name in
              ("fourier_3_1", "fourier_3_2a", "fourier_3_3", "fourier_3_4", "fourier_3_5", "legendre_type")),
            ("first_order", {}, np.complex128),
            ("fourier_3_3", {"beta_im": 0.7}, np.complex128),
        ],
    )
    def test_dtype_is_real_exactly_when_the_model_is(self, name, params, dtype):
        entry = build_example(name, params)
        a, b = (float(v) for v in entry.model.expr.interval)
        grid = make_grid(32, a, b)
        disc = discretize(entry.model, grid)
        op = assemble(disc, canonical_rows(entry))
        nodal = nodal_discretize(entry.model, grid)
        Q = reduced_basis(disc, canonical_rows(entry))
        arrays = (disc.lift, disc.lift_y, disc.R_W, disc.M, Q, op.C, nodal.A_full, nodal.Gram_full)
        assert all(m.dtype == dtype for m in arrays)

    @pytest.mark.parametrize("N", [16, 64, 256])
    def test_complex_typed_real_coefficients_take_the_real_block(self, N):
        # q_j written as complex numbers with zero imaginary part make a real
        # model: M is the float64 one of the same q_j as Fractions, bit for bit
        qs = ((2, 1), (1, 0, Fraction(1, 2)), (3, Fraction(1, 4)))
        W, T = ExtensionSpace(1, np.array([[2.0]])), [[1, 0, 0, 0, 0, 0, 0, 0]]
        Ms = []
        for cast in (Fraction, complex):
            expr = GeneralEvenOrder(tuple(Poly([cast(c) for c in q]) for q in qs), Fraction(-1, 2), 1)
            Ms.append(discretize(build_model(expr, W, [[1.0]], T), make_grid(N, -0.5, 1.0)).M)
        assert Ms[0].dtype == Ms[1].dtype == np.float64
        assert Ms[0].tobytes() == Ms[1].tobytes()

    def test_refuses_tiny_grid(self):
        # fourth-order expression needs N >= 2*4 + 4
        entry = build_example("legendre_type")
        with pytest.raises(SpectralError, match="too small"):
            discretize(entry.model, make_grid(8, -1.0, 1.0))

    def test_refuses_wrong_interval(self):
        entry = build_example("fourier_3_1")
        with pytest.raises(SpectralError, match="interval"):
            discretize(entry.model, make_grid(64, 0.0, 2.0))

    def test_refuses_an_interval_within_isclose_tolerance(self):
        # np.isclose's absolute tolerance 1e-8 would take [0, 1e-9] for [0, 2e-9]
        entry = build_example("fourier_3_3", {"b": 2e-9})
        assert discretize(entry.model, make_grid(32, 0.0, 2e-9)).grid.b == 2e-9
        with pytest.raises(SpectralError, match="interval"):
            discretize(entry.model, make_grid(32, 0.0, 1e-9))

    @pytest.mark.parametrize("name", ["fourier_3_3", "first_order", "legendre_type"])
    def test_assemble_leaves_m_as_it_was(self, name):
        # the sabotaged defect reads M after the honest rows are reduced
        entry = build_example(name)
        a, b = (float(v) for v in entry.model.expr.interval)
        disc = discretize(entry.model, make_grid(32, a, b))
        before = disc.M.tobytes()
        assemble(disc, canonical_rows(entry))
        assert disc.M.tobytes() == before
        with pytest.raises(ValueError, match="read-only"):
            disc.M[0, 0] = 1.0

    @pytest.mark.parametrize(
        "expr",
        [
            build_example("legendre_type", {"A": 2.37}).model.expr,
            build_example("legendre_type", {"A": 1e5}).model.expr,
            GeneralEvenOrder((Poly([0.3, -0.7]), Poly([1.1, 0.25, 0.0375]), Poly([0.6])), -0.5, 1.25),
            build_example("fourier_3_3").model.expr,
        ],
        ids=["legendre_type_2.37", "legendre_type_1e5", "float_order_four", "fourier_3_3"],
    )
    def test_horner_is_bit_identical_to_poly_call(self, expr):
        a, b = (float(v) for v in expr.interval)
        nodes = make_grid(256, a, b).nodes
        for _, c in expr.coefficient_polys():
            want = np.array([complex(c(u)) for u in nodes])
            assert np.asarray(_horner(c, nodes), dtype=complex).tobytes() == want.tobytes()


def nearest_gap(got, ref):
    """Largest distance from a member of either set to the other set, relative to max(1, |lambda|).

    A pair +-lambda of nearly equal modulus can come in either order, so the
    sets are matched by nearest member, not entry by entry.
    """
    d = np.abs(got[:, None] - ref[None, :]) / np.maximum(1.0, np.abs(ref))[None, :]
    return max(d.min(axis=1).max(), d.min(axis=0).max())


class TestAgainstReferenceAssembly:
    """`assemble` against the SVD-nullspace, triangular-solve route it replaced."""

    @pytest.mark.parametrize(
        "name, params, N",
        [(name, params, N) for name, params in EXTREME_WEIGHTS for N in (32, 64, 256)]
        + [("legendre_type", {}, N) for N in (32, 64)],
        ids=str,
    )
    def test_eigenvalues_match(self, name, params, N):
        entry = build_example(name, params)
        a, b = (float(v) for v in entry.model.expr.interval)
        bc, grid = canonical_rows(entry), make_grid(N, a, b)
        got = spectrum(assemble(discretize(entry.model, grid), bc), 8).eigenvalues
        ref = spectrum(reference_assemble(entry.model, bc, grid), 8).eigenvalues
        assert nearest_gap(got, ref) <= 1e-9

    @pytest.mark.parametrize("A", [1, 2.37])
    def test_legendre_type_at_the_finest_grid(self, A):
        # at grid_N 256 the two routes differ by ~1e-7 on legendre_type, and
        # it is the replaced route that is further from the exact eigenvalues
        entry = build_example("legendre_type", {"A": A})
        bc, grid = canonical_rows(entry), make_grid(256, -1.0, 1.0)
        exact = np.array([float(lt_eigenvalue(i, entry.model.expr.A)) for i in range(8)])

        def error(op):
            got = np.sort(spectrum(op, 8).eigenvalues.real)
            return np.max(np.abs(got - exact) / np.maximum(1.0, exact))

        got = assemble(discretize(entry.model, grid), bc)
        assert error(got) < error(reference_assemble(entry.model, bc, grid))

    def test_rank_deficient_rows_are_refused(self, grid01):
        entry = build_example("fourier_3_3")
        bc = canonical_rows(entry)
        repeated = np.vstack([bc, 2 * bc[1]])
        with pytest.raises(SpectralError, match="3 boundary rows have rank 2"):
            assemble(discretize(entry.model, grid01), repeated)
        # the rank is read row by row on each row's own scale
        scaled = bc * np.array([[1e-100], [1e100]])
        assert assemble(discretize(entry.model, grid01), scaled).reduced_dim == (65 + 2) - 2


class TestSymmetryDefect:
    def test_honest_build_is_tiny(self, grid01):
        entry = build_example("fourier_3_1", {"alpha": 1.0})
        disc = discretize(entry.model, grid01)
        assert symmetry_defect(disc, canonical_rows(entry)) <= 1e-9

    def test_sabotaged_build_is_large(self, grid01):
        entry = build_example("fourier_3_1", {"alpha": 1.0})
        bc = canonical_rows(entry)
        bad = sabotaged_rows(bc, 4)
        assert symmetry_defect(discretize(entry.model, grid01), bad) >= 1e-3

    def test_deterministic(self, grid01):
        # one fixed stream of pairs: two calls read the same ones
        entry = build_example("fourier_3_3")
        disc, bc = discretize(entry.model, grid01), canonical_rows(entry)
        assert symmetry_defect(disc, bc) == symmetry_defect(disc, bc)

    def test_legendre_polynomial_subspace(self):
        # the singular fourth-order kind gets the same Chebyshev probe; its
        # only parameter is A, which the interval sets below leave at 1
        grid = make_grid(256, -1.0, 1.0)
        for A in (0.6, 3.45):
            entry = build_example("legendre_type", {"A": A})
            bc = canonical_rows(entry)
            bad = sabotaged_rows(bc, 4)
            disc = discretize(entry.model, grid)
            assert symmetry_defect(disc, bc) <= 1e-9
            assert symmetry_defect(disc, bad) >= 1e-4

    @pytest.mark.parametrize("name", SPECTRUM_EXAMPLES)
    def test_batch_equals_pairwise_loop(self, name):
        # the same stream of pairs against the nodal A_full and Gram_full one
        # pair at a time: in exact arithmetic the same numbers, so only
        # rounding differs; honest defects are rounding noise and agree at
        # this grid size
        entry = build_example(name)
        a, b = (float(v) for v in entry.model.expr.interval)
        disc = discretize(entry.model, make_grid(64, a, b))
        bc = canonical_rows(entry)
        bad = sabotaged_rows(bc, entry.model.trace_dim)
        for rows in (bc, bad):
            assert abs(symmetry_defect(disc, rows) - loop_symmetry_defect(disc, rows)) <= 1e-12

    @pytest.mark.parametrize(
        "name, params",
        [pytest.param(name, {}, id=name) for name in SPECTRUM_EXAMPLES]
        + [pytest.param("fourier_3_3", {"beta_im": 0.7}, id="fourier_3_3-beta_im")],
    )
    def test_probe_basis_equals_sample_space(self, name, params):
        # K = Z* M Z and Z* Z in place of products of the nodal A_full and
        # Gram_full with the 50 sampled pairs: only rounding differs, within
        # the pairwise test's bound
        entry = build_example(name, params)
        a, b = (float(v) for v in entry.model.expr.interval)
        disc = discretize(entry.model, make_grid(64, a, b))
        bc = canonical_rows(entry)
        bad = sabotaged_rows(bc, entry.model.trace_dim)
        for rows in (bc, bad):
            assert abs(symmetry_defect(disc, rows) - batch_symmetry_defect(disc, rows)) <= 1e-12

    @pytest.mark.parametrize("N", [16, 64, 256])
    @pytest.mark.parametrize("name", [*SPECTRUM_EXAMPLES, "mixed"])
    def test_probe_image_matches_qr_route(self, name, N):
        # the probe image's Gram blocks restricted to each rows' nullspace, in
        # place of a QR of the restricted columns and products with R_ref and
        # M on every call; the defects are normalised, and at grid_N 256 the
        # honest ones are themselves rounding noise of 1e-11 to 1e-10
        if name == "mixed":
            # with no W coordinate to sabotage, the initial-value rows x(a) = x'(a) = 0 break symmetry
            model = mixed_coefficient_model()
            bc = rref(DIRICHLET_ROWS)
            bad = rref(np.eye(4, dtype=complex)[:2])
        else:
            entry = build_example(name)
            model, bc = entry.model, canonical_rows(entry)
            bad = sabotaged_rows(bc, model.trace_dim)
        a, b = (float(v) for v in model.expr.interval)
        disc = discretize(model, make_grid(N, a, b))
        tol = 1e-12 if N <= 64 else 2e-11
        for rows in (bc, bad):
            assert abs(symmetry_defect(disc, rows) - qr_symmetry_defect(disc, rows)) <= tol
        assert symmetry_defect(disc, bc) <= 1e-9
        assert symmetry_defect(disc, bad) >= 1e-4
        assert disc.probe is disc.probe

    @pytest.mark.parametrize("N", [16, 64, 256])
    @pytest.mark.parametrize("params", DEFECT_PARAMS, ids=str)
    @pytest.mark.parametrize("name", SPECTRUM_EXAMPLES)
    def test_gates_hold_at_every_grid_size(self, name, params, N):
        entry = build_example(name, DEFECT_PARAMS[params])
        a, b = (float(v) for v in entry.model.expr.interval)
        grid = make_grid(N, a, b)
        bc = canonical_rows(entry)
        bad = sabotaged_rows(bc, entry.model.trace_dim)
        disc = discretize(entry.model, grid)
        assert symmetry_defect(disc, bc) <= 1e-9
        assert symmetry_defect(disc, bad) >= 1e-4


class TestSpectrum:
    def test_periodic_fourier_classical(self):
        # periodic conditions via the k = 0 path on [0, 2 pi]
        model = fourier_k0_model(0.0, 2 * np.pi)
        cands = np.array([[1, 0, 1, 0], [0, 1, 0, 1]])
        from gknextend.extension import derive_boundary_conditions

        bc = rref(derive_boundary_conditions(model, cands))
        # the model's interval is 2 pi to 6 digits of its denominator: the grid takes it exactly
        grid = make_grid(64, *(float(v) for v in model.expr.interval))
        op = assemble(discretize(model, grid), bc)
        rep = spectrum(op, 5)
        expected = np.array([0.0, 1.0, 1.0, 4.0, 4.0])
        assert np.abs(np.sort(rep.eigenvalues.real) - expected).max() < 1e-6
        assert rep.max_imag < 1e-8

    def test_example_3_1_first_eigenvalue_regression(self, grid01):
        entry = build_example("fourier_3_1", {"alpha": 0.0})
        op = assemble(discretize(entry.model, grid01), canonical_rows(entry))
        rep = spectrum(op, 3)
        lam1 = sorted(rep.eigenvalues.real, key=abs)[0]
        assert abs(lam1 - LAMBDA_31_ALPHA0) < 1e-9

    def test_example_2_real_spectrum(self, grid01):
        entry = build_example("first_order", {"alpha": 0.0})
        op = assemble(discretize(entry.model, grid01), canonical_rows(entry))
        rep = spectrum(op, 10)
        assert rep.max_imag <= 1e-6

    def test_grid_convergence_3_1(self):
        entry = build_example("fourier_3_1", {"alpha": 1.0})
        bc = canonical_rows(entry)
        lams = []
        for N in (32, 64):
            op = assemble(discretize(entry.model, make_grid(N, 0.0, 1.0)), bc)
            lams.append(sorted(spectrum(op, 3).eigenvalues.real, key=abs)[0])
        assert abs(lams[0] - lams[1]) <= 1e-8

    def test_count_bound(self, grid01):
        # Arnoldi returns k = count + 2 eigenvalues, and needs k < reduced_dim - 1
        entry = build_example("fourier_3_1")
        op = assemble(discretize(entry.model, grid01), canonical_rows(entry))
        for count in (op.reduced_dim + 1, op.reduced_dim - 3):
            with pytest.raises(SpectralError, match="reduced dim"):
                spectrum(op, count)
        rep = spectrum(op, op.reduced_dim - 4)
        assert len(rep.eigenvalues) == op.reduced_dim - 4
        assert rep.residuals.max() <= 1e-10

    def test_exact_zero_eigenvalue(self):
        # fourier_3_3 has the eigenvalue 0 exactly; at b = 30, grid_N 64, C is
        # singular to the last pivot, so a shift at 0 would fail
        entry = build_example("fourier_3_3", {"b": 30})
        op = assemble(discretize(entry.model, make_grid(64, 0.0, 30.0)), canonical_rows(entry))
        rep = spectrum(op, 8)
        assert abs(rep.eigenvalues[0]) <= 1e-8
        assert rep.residuals[0] <= 1e-12

    @pytest.mark.parametrize("N", [64, 256])
    @pytest.mark.parametrize("name, params", EXTREME_WEIGHTS, ids=str)
    def test_extreme_weights_match_closed_form(self, name, params, N, monkeypatch):
        # W weights from 1e-12 to 1e12 cost no accuracy in the G-orthonormal
        # basis: a Euclidean one lost up to 1.6e-5 (fourier_3_3 at N_weight
        # 1e-12, grid_N 64), with residuals up to 4.4e-4
        entry = build_example(name, params)
        a, b = (float(v) for v in entry.model.expr.interval)
        rep = spectrum(assemble(discretize(entry.model, make_grid(N, a, b)), canonical_rows(entry)), 8)
        roots = reference_roots(benchmark_module(monkeypatch, "reference"), name, params)
        for z in rep.eigenvalues[:5]:
            r = roots[np.argmin(np.abs(roots - z))]
            assert abs(z - r) <= 1e-9 * max(1.0, abs(r))
        assert rep.residuals.max() <= 1e-12

    @pytest.mark.parametrize("params", [{"a": 100, "b": 101}, {"b": 0.001}])
    def test_five_smallest_match_closed_form(self, params):
        entry = build_example("fourier_3_3", params)
        a, b = (float(v) for v in entry.model.expr.interval)
        op = assemble(discretize(entry.model, make_grid(64, a, b)), canonical_rows(entry))
        got = spectrum(op, 8).eigenvalues[:5]
        # the scan resolves the gap 2 / L between the roots 0 and about 2 / L
        L = b - a
        expected = closed_form_roots("fourier_3_3", (-1 / L**2, 100 / L**2), L=L, num=100_000)[:5]
        assert len(expected) == 5 and np.abs(got.imag).max() == 0
        # relative to the eigenvalue, or to the scale 1 / L^2 of the spectrum at 0
        scale = np.maximum(1 / L**2, np.abs(expected))
        assert np.all(np.abs(got.real - expected) <= 1e-9 * scale)

    @staticmethod
    def patch_eigs(monkeypatch, edit):
        import scipy.sparse.linalg

        eigs = scipy.sparse.linalg.eigs
        monkeypatch.setattr(scipy.sparse.linalg, "eigs", lambda C, **kw: edit(eigs, C, **kw))

    @pytest.mark.parametrize(
        "name, params, N",
        [("fourier_3_3", {}, 256), ("first_order", {}, 256), ("fourier_3_3", {"beta_im": 0.7}, 64),
         ("fourier_3_1", {"b": 1e150}, 64)],
        ids=str,
    )
    def test_in_place_factorization_matches_plain_eigs(self, name, params, N, monkeypatch):
        # spectrum factors one copy of C * scale in place and hands eigs C (x * scale);
        # eigs given the dense C * scale alone must find the same eigenpairs.
        # Its solves are LAPACK's getrs, spectrum's are two trsv: with one
        # BLAS thread the complex cases differ in the last bits (at most
        # 1.7e-14 of max(1, |lambda|) and 5e-17 in a residual, measured)
        entry = build_example(name, params)
        a, b = (float(v) for v in entry.model.expr.interval)
        op = assemble(discretize(entry.model, make_grid(N, a, b)), canonical_rows(entry))
        got = spectrum(op, 8)

        def dense(eigs, A, OPinv, **kw):
            return eigs(A @ np.eye(A.shape[1]), **kw)

        self.patch_eigs(monkeypatch, dense)
        want = spectrum(op, 8)
        scale = np.maximum(1.0, np.abs(want.eigenvalues))
        assert np.all(np.abs(got.eigenvalues - want.eigenvalues) <= 1e-13 * scale)
        assert np.abs(got.residuals - want.residuals).max() <= 1e-15

    @pytest.mark.parametrize(
        "name, params", [("fourier_3_3", {}), ("first_order", {}), ("fourier_3_3", {"beta_im": 0.7})], ids=str
    )
    def test_triangular_solves_match_lu_solve(self, name, params, monkeypatch):
        # a shift-invert step is getrf's row permutation and two trsv calls:
        # LAPACK's own solve with a factorization of the same C * scale - sigma
        entry = build_example(name, params)
        a, b = (float(v) for v in entry.model.expr.interval)
        op = assemble(discretize(entry.model, make_grid(256, a, b)), canonical_rows(entry))
        errors = []

        def compare(eigs, A, OPinv, sigma, **kw):
            n = A.shape[1]
            lu = scipy.linalg.lu_factor(A @ np.eye(n) - sigma * np.eye(n))
            rng = np.random.default_rng(1)
            for _ in range(4):
                x = rng.standard_normal(n) + (1j * rng.standard_normal(n) if np.iscomplexobj(op.C) else 0)
                before = x.copy()
                got, want = OPinv.matvec(x), scipy.linalg.lu_solve(lu, x)
                assert got.dtype == op.C.dtype and np.array_equal(x, before)
                errors.append(np.linalg.norm(got - want) / np.linalg.norm(want))
            return eigs(A, OPinv=OPinv, sigma=sigma, **kw)

        self.patch_eigs(monkeypatch, compare)
        spectrum(op, 8)
        assert len(errors) == 4 and max(errors) <= 1e-13

    def test_dropped_eigenvalue_trips_the_no_miss_check(self, grid01, monkeypatch):
        def drop_smallest(eigs, C, **kw):
            vals, vecs = eigs(C, **kw)
            i = np.argmin(np.abs(vals))
            return np.delete(vals, i), np.delete(vecs, i, axis=1)

        entry = build_example("fourier_3_3")
        op = assemble(discretize(entry.model, grid01), canonical_rows(entry))
        self.patch_eigs(monkeypatch, drop_smallest)
        with pytest.raises(SpectralError, match="no-miss check"):
            spectrum(op, 8)

    def test_smaller_eigenvalue_outside_the_returned_set_trips_the_no_miss_check(
        self, grid01, monkeypatch
    ):
        # with sigma = -tau the k eigenvalues nearest sigma can leave out one
        # of smaller modulus: here 9 - tau/2 loses to three values near -9
        def nearest_k(eigs, C, k, sigma, **kw):
            vals, vecs = scipy.linalg.eig(C @ np.eye(C.shape[1]))
            i = np.argsort(np.abs(vals - sigma))[:k]
            return vals[i], vecs[:, i]

        entry = build_example("fourier_3_3")
        op = assemble(discretize(entry.model, grid01), canonical_rows(entry))
        tau = 1e-9 * 30.0
        vals = [*range(1, 9), -9.0, -9.0 - 1e-10, -9.0 - 2e-10, 9.0 - tau / 2, 20.0, 25.0, 30.0]
        n = len(vals)
        diagonal = dataclasses.replace(op, C=np.diag(vals))
        self.patch_eigs(monkeypatch, nearest_k)
        assert spectrum(diagonal, 8).eigenvalues.real.tolist() == list(range(1, 9))
        with pytest.raises(SpectralError, match="no-miss check"):
            spectrum(diagonal, 9)

    @pytest.mark.parametrize(
        "error",
        [
            lambda: ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0), None),
            lambda: ArpackError(-9999),
        ],
        ids=["no_convergence", "arpack_error"],
    )
    def test_arpack_failure_is_a_refusal(self, tmp_path, capsys, monkeypatch, error):
        def fail(eigs, C, **kw):
            raise error()

        self.patch_eigs(monkeypatch, fail)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"example": "fourier_3_3"}))
        assert main(["spectrum", "--config", str(path)]) == 2
        assert "eigensolver failed" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_c_is_a_refusal(self, tmp_path, capsys, monkeypatch, bad):
        def poisoned(disc, bc):
            op = assemble(disc, bc)
            C = op.C.copy()
            C[3, 5] = bad
            return dataclasses.replace(op, C=C)

        monkeypatch.setattr(spectral_module, "assemble", poisoned)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"example": "fourier_3_3"}))
        assert main(["spectrum", "--config", str(path)]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_singular_shifted_operator_is_a_refusal(self, grid01):
        # C = 0 puts the shift at 0: getrf meets an exactly singular C - sigma I
        entry = build_example("fourier_3_3")
        op = assemble(discretize(entry.model, grid01), canonical_rows(entry))
        with pytest.raises(SpectralError, match="getrf info"):
            spectrum(dataclasses.replace(op, C=np.zeros_like(op.C)), 8)

    def test_non_finite_eigenpairs_are_a_refusal(self, grid01, monkeypatch):
        def nan_vectors(eigs, C, **kw):
            vals, vecs = eigs(C, **kw)
            vecs[0, 0] = np.nan
            return vals, vecs

        entry = build_example("fourier_3_3")
        op = assemble(discretize(entry.model, grid01), canonical_rows(entry))
        self.patch_eigs(monkeypatch, nan_vectors)
        with pytest.raises(SpectralError, match="not finite"):
            spectrum(op, 8)

    @staticmethod
    def assert_matches_qz(op, model, grid, bc):
        rep = spectrum(op, 8)
        assert rep.residuals.max() <= 1e-12
        got, ref = rep.eigenvalues, qz_eigenvalues(model, grid, bc)
        # both orders break ties in |lambda| by real part, so even the pairs
        # +-lambda of first_order line up entry by entry
        scale = np.maximum(1.0, np.abs(ref[:8]))
        assert np.all(np.abs(got - ref[:8]) <= 1e-8 * scale)

    @pytest.mark.parametrize("N", [32, 128, 256])
    @pytest.mark.parametrize("name", ORACLE_EXAMPLES)
    def test_congruence_matches_qz(self, name, N):
        entry = build_example(name)
        a, b = (float(v) for v in entry.model.expr.interval)
        grid, bc = make_grid(N, a, b), canonical_rows(entry)
        self.assert_matches_qz(assemble(discretize(entry.model, grid), bc), entry.model, grid, bc)

    @pytest.mark.parametrize("N", [32, 128, 256])
    def test_first_order_pairs_read_minus_then_plus(self, N):
        # at alpha = 0 the spectrum is symmetric: 0, then pairs -lambda, +lambda
        entry = build_example("first_order")
        op = assemble(discretize(entry.model, make_grid(N, 0.0, 1.0)), canonical_rows(entry))
        evals = spectrum(op, 8).eigenvalues
        pairs = tied_pairs(evals)
        assert len(pairs) == 3
        assert all(evals[i].real < 0 < evals[i + 1].real for i in pairs)

    def test_congruence_matches_qz_for_complex_gram(self, grid01, rng):
        # the catalog's domain bases are real; complex boundary rows give a
        # complex one, which a unitary change of reduced basis imitates
        entry = build_example("first_order")
        bc = canonical_rows(entry)
        op = assemble(discretize(entry.model, grid01), bc)
        m = op.reduced_dim
        U, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        QU = reduced_basis(discretize(entry.model, grid01), bc) @ U
        assert np.abs(QU.imag).max() > 0.1 * np.abs(QU).max()
        rotated = dataclasses.replace(op, C=U.conj().T @ op.C @ U)
        self.assert_matches_qz(rotated, entry.model, grid01, bc)

    def test_non_real_shift_is_measured(self, grid01):
        # C + 0.5i I has the honest eigenvalues plus 0.5i: the solver carries
        # non-Hermitian parts through, it never removes them
        entry = build_example("fourier_3_3")
        op = assemble(discretize(entry.model, grid01), canonical_rows(entry))
        honest = spectrum(op, 8)
        shifted = spectrum(dataclasses.replace(op, C=op.C + 0.5j * np.eye(op.reduced_dim)), 8)
        assert np.abs(shifted.eigenvalues - (honest.eigenvalues + 0.5j)).max() <= 1e-8 * (
            1 + np.abs(honest.eigenvalues).max()
        )
        assert shifted.max_imag == pytest.approx(0.5, abs=1e-8)
        assert shifted.residuals.max() <= 1e-12

    def test_real_skew_coupling_is_measured(self, grid01):
        # coupling two orthonormal eigenvectors by a real skew term turns
        # [[l1, 0], [0, l2]] into [[l1, s], [-s, l2]]: with s > |l1 - l2|/2 the
        # pair leaves the real axis, and the real solver must report it
        entry = build_example("fourier_3_3")
        op = assemble(discretize(entry.model, grid01), canonical_rows(entry))
        assert op.C.dtype == np.float64
        w, U = scipy.linalg.eigh(0.5 * (op.C + op.C.T))
        i = np.argsort(np.abs(w))[1:3]
        (l1, l2), u1, u2 = w[i], U[:, i[0]], U[:, i[1]]
        d = abs(l1 - l2) / 2
        s = 2 * d
        skew = s * (np.outer(u1, u2) - np.outer(u2, u1))
        coupled = dataclasses.replace(op, C=op.C + skew)
        assert coupled.C.dtype == np.float64
        rep = spectrum(coupled, 8)
        height = np.sqrt(s * s - d * d)
        for want in (l1 + l2) / 2 + np.array([-1j, 1j]) * height:
            assert np.abs(rep.eigenvalues - want).min() <= 1e-8
        assert rep.max_imag == pytest.approx(height, abs=1e-8)

    @pytest.mark.parametrize("N", [32, 128, 256])
    @pytest.mark.parametrize("name", ORACLE_EXAMPLES[1:])
    def test_real_path_matches_complex_path(self, name, N):
        entry = build_example(name)
        a, b = (float(v) for v in entry.model.expr.interval)
        op = assemble(discretize(entry.model, make_grid(N, a, b)), canonical_rows(entry))
        assert op.C.dtype == np.float64
        as_complex = dataclasses.replace(op, C=op.C.astype(complex))
        got, ref = spectrum(op, 8).eigenvalues, spectrum(as_complex, 8).eigenvalues
        assert np.all(np.abs(got - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))

    def test_complex_model_passes_at_the_finest_grid(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"example": "fourier_3_3", "params": {"beta_im": 0.7}, "grid_N": 256})
        )
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 0

    def test_indefinite_gram_is_refused(self, grid01, tmp_path, capsys, monkeypatch):
        # flip the sign of the smallest eigenvalue of G: still Hermitian and
        # as well conditioned, but no longer an inner product.  ExtensionSpace
        # refuses such a G, so it is swapped into a built model's W
        entry = build_example("fourier_3_3")
        w, U = np.linalg.eigh(entry.model.W.G)
        w[0] = -w[0]
        W = copy.copy(entry.model.W)
        object.__setattr__(W, "G", (U * w) @ U.conj().T)
        bad = dataclasses.replace(entry, model=dataclasses.replace(entry.model, W=W))
        with pytest.raises(SpectralError, match="not positive definite"):
            assemble(discretize(bad.model, grid01), canonical_rows(bad))
        monkeypatch.setattr(catalog, "build_example", lambda name, params=None: bad)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"example": "fourier_3_3"}))
        assert main(["spectrum", "--config", str(path)]) == 2
        assert "not positive definite" in capsys.readouterr().err


def relative_gap(got, ref):
    """max over lam of |got - ref| / |ref|, in the Frobenius norm of each trace block."""
    return float(np.max(np.linalg.norm(got - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))))


def exp_stack(rng, m, dtype, norms):
    """Seeded m x m matrices of the given 1-norms whose eigenvalues have real part <= 0.

    A real 1x1 member is -norm; the others are shifted by their spectral
    abscissa when it is positive, so every exponential is a normal float.
    """
    Z = rng.standard_normal((len(norms), m, m))
    if dtype is complex:
        Z = Z + 1j * rng.standard_normal(Z.shape)
    if m == 1 and dtype is float:
        Z = -np.abs(Z)
    else:
        abscissa = np.linalg.eigvals(Z).real.max(axis=-1)
        Z = Z - np.maximum(abscissa, 0)[:, None, None] * np.eye(m)
    Z /= np.abs(Z).sum(axis=-2).max(axis=-1)[:, None, None]
    return Z * np.asarray(norms)[:, None, None]


def max_gap(got, ref):
    """max |got - ref| / max |ref| per member (no squares: e^-700 squared underflows)."""
    return np.abs(got - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))


class TestExpm:
    """The batched scaling-and-squaring Pade exponential against scipy.linalg.expm.

    The forward error of exp(A) is about cond(exp, A) eps, and the condition
    number is at least ||A||; the bound 1e-14 max(1, ||A||_1) is 45 eps times it.
    """

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_scipy(self, rng, m, dtype):
        # e^-1000 underflows: a real 1x1 member reaches 1-norm 700, the others 1e3
        top = np.log10(700) if (m, dtype) == (1, float) else 3
        norms = np.logspace(-8, top, 34)
        A = exp_stack(rng, m, dtype, norms)
        got = _expm(A)
        assert got.shape == A.shape and got.dtype == A.dtype
        ref = np.array([scipy.linalg.expm(a) for a in A])
        assert np.all(max_gap(got, ref) <= 1e-14 * np.maximum(1.0, norms))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stack_equals_member_by_member(self, rng, dtype):
        # one stack whose members take 0 to 8 squarings: s_i = ceil(log2(||A_i||_1 / theta_13))
        norms = rng.permutation(np.concatenate([np.logspace(-8, -1, 8), THETA_13 * 2.0 ** (np.arange(9) - 0.5)]))
        A = exp_stack(rng, 2, dtype, norms)
        assert set(np.maximum(np.ceil(np.log2(norms / THETA_13)), 0)) == set(range(9))
        got = _expm(A)
        assert np.array_equal(got, np.array([_expm(a[None])[0] for a in A]))
        ref = np.array([scipy.linalg.expm(a) for a in A])
        assert np.all(max_gap(got, ref) <= 1e-14 * np.maximum(1.0, norms))


class ConstantOrderFour(DiffExpr):
    """q_0 x - (q_1 x')' + (q_2 x'')'' on [-1/2, 1] with constant, possibly complex q_j.

    No GKN kind (`GeneralEvenOrder` takes real q_j only): an ODE for the
    oracle's companion system alone.
    """

    kind = "constant_order_four"
    a, b = Fraction(-1, 2), Fraction(1)
    traces_per_endpoint = 4

    def __init__(self, q0, q1, q2):
        self.qs = (q0, q1, q2)

    def coefficient_polys(self):
        q0, q1, q2 = self.qs
        return [(0, Poly([q0])), (2, Poly([-q1])), (4, Poly([q2]))]


class TestFundamentalTraces:
    """The matrix exponential against adaptive RK and against closed forms."""

    @pytest.mark.parametrize("drawn", [False, True], ids=["defaults", "fine_grid_sweep"])
    @pytest.mark.parametrize("name", ORACLE_EXAMPLES)
    def test_scan_matches_runge_kutta(self, name, drawn, monkeypatch):
        params = {}
        if drawn:
            params = next(cfg for _, cfg in benchmark_ops(monkeypatch, "fine_grid_sweep", 1)
                          if "params" in cfg)["params"]
        entry = build_example(name, params)
        lams = np.linspace(*entry.spectral_window, 240)
        got = _fundamental_traces(Companion.of(entry.model.expr), lams)
        ref = rk_fundamental_traces(entry.model.expr, lams)
        assert got.shape == ref.shape == (240, 2 * entry.model.expr.order, entry.model.expr.order)
        assert got.dtype == ref.dtype
        assert relative_gap(got, ref) <= 1e-10

    def test_minus_x_second_derivative_is_cos_sin_and_cosh_sinh(self):
        a, b = Fraction(-3, 10), Fraction(9, 10)
        L = float(b - a)
        # the oracle's window for this interval is (-40, 320) / L^2
        lams = np.array([-27.7, -2.5, -1e-3, 1e-3, 0.7, 12.0, 222.2])
        got = _fundamental_traces(Companion.of(Fourier(a, b)), lams)
        assert got.dtype == np.float64
        k = np.sqrt(np.abs(lams)) * L
        pos = lams > 0
        C = np.where(pos, np.cos(k), np.cosh(k))
        # the solutions from (1, 0) and (0, 1): cos and sin(k)/sqrt(lam) with
        # derivatives -sqrt(lam) sin(k) and cos, or their cosh/sinh twins
        S = np.where(pos, np.sin(k), np.sinh(k)) * L / k
        dC = np.where(pos, -1.0, 1.0) * k / L * np.where(pos, np.sin(k), np.sinh(k))
        Yb = np.stack([np.stack([C, S], -1), np.stack([dC, C], -1)], -2)
        assert np.array_equal(got[:, :2], np.broadcast_to(np.eye(2), (lams.size, 2, 2)))
        assert relative_gap(got[:, 2:], Yb) <= 1e-12

    def test_first_order_is_an_exponential(self):
        expr = FirstOrderI()
        c = expr.constant_coefficients()
        assert set(c) == {1}
        a, b = (float(v) for v in expr.interval)
        lams = np.linspace(-60.0, 60.0, 41)
        got = _fundamental_traces(Companion.of(expr), lams)
        assert got.shape == (41, 2, 1)
        assert np.all(got[:, 0, 0] == 1)
        assert np.abs(got[:, 1, 0] - np.exp(lams * (b - a) / c[1])).max() <= 1e-13

    @pytest.mark.parametrize(
        "expr",
        [
            GeneralEvenOrder(
                (Poly([Fraction(1, 2)]), Poly([Fraction(-3, 4)]), Poly([Fraction(5, 4)])),
                Fraction(-1, 2), 1,
            ),
            ConstantOrderFour(2 + 1j, 0.5 - 0.3j, 1.5 + 0.2j),
        ],
        ids=["real", "complex"],
    )
    def test_order_four_matches_runge_kutta(self, expr):
        lams = np.linspace(-50.0, 300.0, 60)
        got = _fundamental_traces(Companion.of(expr), lams)
        ref = rk_fundamental_traces(expr, lams)
        assert got.shape == (60, 8, 4)
        assert got.dtype == ref.dtype == np.result_type(*expr.constant_coefficients().values())
        assert relative_gap(got, ref) <= 1e-10


class TestShootingOracle:
    def test_dirichlet_sanity(self):
        # classical two-condition path: x(a) = x(b) = 0 gives n^2 pi^2
        model = fourier_k0_model()
        bc = rref(DIRICHLET_ROWS)
        roots = shooting_oracle(model, bc, (1.0, 100.0))
        expected = np.array([np.pi**2, 4 * np.pi**2, 9 * np.pi**2])
        assert np.abs(np.array(roots[:3]) - expected).max() < 1e-7

    def test_example_3_1_alpha0_first_root(self):
        entry = build_example("fourier_3_1", {"alpha": 0.0})
        roots = shooting_oracle(entry.model, canonical_rows(entry), (0.1, 5.0))
        assert len(roots) == 1
        assert abs(roots[0] - LAMBDA_31_ALPHA0) < 1e-9

    def test_lambda_zero_eigenvalue_detected(self):
        # alpha chosen so lambda = 0 is an eigenvalue: x linear, x(a) = 0,
        # a_W = x(b), W row alpha x(b) + x'(b) = 0 at x = u gives alpha = -1
        entry = build_example("fourier_3_1", {"alpha": -1.0})
        roots = shooting_oracle(entry.model, canonical_rows(entry), (-0.5, 0.5))
        assert any(abs(r) < 1e-9 for r in roots)

    def test_empty_window(self):
        entry = build_example("fourier_3_1", {"alpha": 0.0})
        roots = shooting_oracle(entry.model, canonical_rows(entry), (200.0, 230.0))
        assert roots == []

    def test_first_order_characteristic_closed_form(self):
        alpha = 0.75
        entry = build_example("first_order", {"alpha": alpha})
        bc = canonical_rows(entry)
        lams = np.array([-3.3, 0.4, 7.9])
        got = characteristic_value(entry.model, bc, lams, Companion.of(entry.model.expr))
        expected = 2 * ((alpha - lams) * np.cos(lams / 2) - 2 * np.sin(lams / 2))
        # overall scaling of the determinant is fixed by the canonical rows
        assert np.all(np.abs(got - expected) < 1e-8 * (1 + np.abs(expected)))

    def test_characteristic_value_batch_first_order(self):
        alpha = -1.25
        entry = build_example("first_order", {"alpha": alpha})
        lams = np.linspace(-55.0, 55.0, 37)
        got = characteristic_value(entry.model, canonical_rows(entry), lams, Companion.of(entry.model.expr))
        expected = 2 * closed_form_characteristic("first_order", lams, alpha)
        assert got.shape == lams.shape
        assert np.all(np.abs(got - expected) < 1e-8 * (1 + np.abs(expected)))

    def test_characteristic_value_batch_fourier_3_1(self):
        entry = build_example("fourier_3_1", {"alpha": 0.6, "M": 2.5, "a": -0.3, "b": 0.9})
        lams = np.linspace(-25.0, 220.0, 41)
        got = characteristic_value(entry.model, canonical_rows(entry), lams, Companion.of(entry.model.expr))
        C, S = cos_sinc(lams, 1.2)
        expected = (0.6 - lams) * S + 2.5 * C
        assert np.all(np.abs(got - expected) < 1e-8 * (1 + np.abs(expected)))

    def test_characteristic_value_single_lambda_matches_batch(self):
        entry = build_example("fourier_3_3")
        bc, comp = canonical_rows(entry), Companion.of(entry.model.expr)
        got = characteristic_value(entry.model, bc, np.array([3.5]), comp)
        batch = characteristic_value(entry.model, bc, np.array([-2.0, 3.5, 40.0]), comp)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(batch[1], rel=1e-9)

    def test_non_self_adjoint_b_is_refused(self):
        # build_model refuses such a B, so swap it into a built model: the
        # determinant turns genuinely complex and the realness guard raises
        entry = build_example("fourier_3_3")
        bc = canonical_rows(entry)
        B = np.array([[0.0, 0.5j], [0.5j, 0.0]])
        model = dataclasses.replace(entry.model, B=B)
        with pytest.raises(SpectralError, match="not real"):
            characteristic_value(model, bc, np.linspace(1.0, 30.0, 5), Companion.of(model.expr))
        with pytest.raises(SpectralError, match="not real"):
            shooting_oracle(model, bc, entry.spectral_window)

    @pytest.mark.parametrize("name", ORACLE_EXAMPLES)
    def test_roots_match_closed_form(self, name):
        entry = build_example(name)
        roots = shooting_oracle(entry.model, canonical_rows(entry), entry.spectral_window)
        expected = closed_form_roots(name, entry.spectral_window)
        assert len(roots) == len(expected) >= 5
        rel = np.abs(np.array(roots) - expected) / np.maximum(1.0, np.abs(expected))
        assert rel.max() <= 1e-9

    @pytest.mark.parametrize(
        "params",
        [{}, {"M": 2.4, "N_weight": 0.65, "alpha": -1.3, "beta_re": 0.45, "gamma": 0.8,
              "a": -0.35, "b": 1.1}],
    )
    def test_general_even_order_matches_fourier(self, params):
        # -x'' written as -(q_1 x')' with q_1 = 1: the same ODE from the same
        # coefficients, so the same integration and bit-equal roots
        entry = build_example("fourier_3_3", params)
        model = entry.model
        geo = GeneralEvenOrder((Poly(), Poly([1])), model.expr.a, model.expr.b)
        geo_model = build_model(geo, model.W, model.B, model.T)
        geo_entry = dataclasses.replace(entry, model=geo_model)
        window = entry.spectral_window
        roots = shooting_oracle(geo_model, canonical_rows(geo_entry), window)
        assert len(roots) >= 5
        assert roots == shooting_oracle(model, canonical_rows(entry), window)
        grid = make_grid(64, float(geo.a), float(geo.b))
        for sign in (+1, -1):
            vecs = extended_deficiency_vectors(geo_model, sign)
            assert len(vecs) == 2
            for x, a in vecs:
                assert eigenrelation_residual(geo_model, grid, x, a, sign * 1j) <= 1e-8

    def test_legendre_type_is_refused(self):
        # four traces cannot hold a fundamental system of a fourth-order ODE
        entry = build_example("legendre_type")
        with pytest.raises(SpectralError, match="trace layout"):
            shooting_oracle(entry.model, canonical_rows(entry), (-10.0, 10.0))

    def test_potential_term_shifts_dirichlet_roots(self):
        # -x'' + x: the c_0 term enters the companion system and the
        # collocation matrix alike; Dirichlet eigenvalues n^2 pi^2 + 1
        model = classical_model(GeneralEvenOrder((Poly([1]), Poly([1])), 0, 1))
        bc = rref(DIRICHLET_ROWS)
        expected = np.pi**2 * np.arange(1, 4) ** 2 + 1
        roots = shooting_oracle(model, bc, (1.0, 100.0))
        assert len(roots) == 3
        assert np.abs(np.array(roots) - expected).max() < 1e-7
        evals = spectrum(assemble(discretize(model, make_grid(32, 0.0, 1.0)), bc), 3).eigenvalues
        assert np.abs(evals - expected).max() < 1e-6

    def test_variable_coefficients_are_refused(self):
        model = classical_model(GeneralEvenOrder((Poly(), Poly([1, 1])), 0, 1))
        bc = rref(DIRICHLET_ROWS)
        with pytest.raises(ExpressionError, match="not constant"):
            shooting_oracle(model, bc, (1.0, 100.0))
        with pytest.raises(ExpressionError, match="not constant"):
            extended_deficiency_vectors(model, +1)


class TestEigenRelationResidual:
    def test_deficiency_vectors_at_plus_minus_i(self, grid01):
        for name in ("first_order", "fourier_3_1", "fourier_3_3"):
            entry = build_example(name)
            for sign in (+1, -1):
                for x, a in extended_deficiency_vectors(entry.model, sign):
                    r = eigenrelation_residual(entry.model, grid01, x, a, sign * 1j)
                    assert r <= 1e-8, (name, sign, r)
