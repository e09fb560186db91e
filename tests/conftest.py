import functools
import importlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest


def random_skew_hermitian(rng: np.random.Generator, m: int) -> np.ndarray:
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return 0.5 * (Z - Z.conj().T)


def random_rational_poly(rng, degree: int):
    from gknextend.polynomials import Poly

    coeffs = [
        Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
        for _ in range(degree + 1)
    ]
    return Poly(coeffs)


def form_eval(F, x, y) -> complex:
    """Evaluate form(x, y) = y* S x: the reference for the package's convention."""
    from gknextend.symplectic import SymplecticError

    x = np.asarray(x, dtype=complex).reshape(-1)
    y = np.asarray(y, dtype=complex).reshape(-1)
    if x.shape[0] != F.dim or y.shape[0] != F.dim:
        raise SymplecticError(
            f"vector lengths {x.shape[0]}, {y.shape[0]} do not match form dim {F.dim}"
        )
    return complex(y.conj() @ F.matrix @ x)


def trace_of_poly(expr, p) -> tuple:
    """Endpoint traces of a polynomial in the expression's layout, exactly."""
    d = expr.traces_per_endpoint
    return tuple(p.deriv(k)(e) for e in expr.interval for k in range(d))


def w_inner(W, a, b) -> complex:
    """<a, b>_W = b* G a, the sampled reference for the coupling identity."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    return complex(b.conj() @ W.G @ a)


def is_exact(p) -> bool:
    return all(isinstance(c, Fraction) for c in p.coeffs)


def benchmark_module(monkeypatch, name):
    """A module of the benchmark harness (`gknbench/`), imported from its directory."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "gknbench"))
    return importlib.import_module(name)


def benchmark_ops(monkeypatch, workload, seed):
    """The (command, config) ops the benchmark draws for a workload round."""
    workloads = benchmark_module(monkeypatch, "workloads")
    return [(command, cfg) for command, cfg, _ in workloads.build_ops(workload, seed)]


def custom_config(name: str) -> dict:
    """A catalog example restated as a custom model with its candidates."""
    from gknextend.catalog import build_example
    from gknextend.extension import model_to_json

    entry = build_example(name)
    td = entry.model.trace_dim

    def flat(v):
        return [x for z in v for x in (z.real, z.imag)]

    cands = [{"trace": flat(v[:td]), "w": flat(v[td:])} for v in entry.candidates]
    return {"example": "custom", "model": model_to_json(entry.model), "candidates": cands}


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# -- independent reference for the collocation grid ------------------------
# The library builds nodes, d/dt and the Gram once per N on [-1, 1] and
# scales them to [a, b]; this builds them on [a, b] directly.


def direct_grid(N, a, b):
    """Nodes, (D1, D2, D3, D4) and the Gram of the CGL grid, built from scratch on [a, b]."""
    from gknextend.collocation import _cheb_matrix

    t, Dt = _cheb_matrix(N)
    # u = (a+b)/2 - t (b-a)/2 is ascending in the node index
    nodes = (a + b) / 2.0 - t * (b - a) / 2.0
    nodes[0], nodes[-1] = a, b
    D1 = -2.0 / (b - a) * Dt
    D2 = D1 @ D1
    D3 = D2 @ D1
    D4 = D3 @ D1
    # exact interpolant Gram via Gauss-Legendre resampling (degree 2N needs N+1 points)
    gx, gw = np.polynomial.legendre.leggauss(N + 1)
    gu = (a + b) / 2.0 + gx * (b - a) / 2.0
    gw = gw * (b - a) / 2.0
    bary = np.ones(N + 1)
    bary[0] = bary[-1] = 0.5
    bary *= (-1.0) ** np.arange(N + 1)
    diff = gu[:, None] - nodes[None, :]
    exact_hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        C = bary[None, :] / diff
        E = C / C.sum(axis=1)[:, None]
    if exact_hit.any():
        E[exact_hit.any(axis=1)] = 0.0
        E[exact_hit] = 1.0
    gram = E.T @ (gw[:, None] * E)
    gram = 0.5 * (gram + gram.T)
    return nodes, (D1, D2, D3, D4), gram


# -- independent reference for the exact Legendre suite ---------------------
# The library builds q_n = c_n P_n from the operator on integers; these build
# the monic P_n from the measure, and run the suite's checks in Fraction
# arithmetic the direct way.


@dataclass(frozen=True)
class LTBasis:
    """Monic polynomials P_0..P_n with deg P_n = n."""

    A: Fraction
    polys: tuple

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, n: int):
        return self.polys[n]


def mu_inner(p, q, A):
    """<p, q> = integral over [-1,1] plus (p q)(+-1)/A, exactly."""
    from gknextend.legendre import LegendreError

    A = Fraction(A)
    if not (is_exact(p) and is_exact(q)):
        raise LegendreError("mu_inner needs rational coefficients")
    pq = p * q
    return pq.integral(-1, 1) + (pq(Fraction(-1)) + pq(Fraction(1))) / A


@functools.lru_cache(maxsize=None)
def gram_schmidt(A, n_max):
    """Monic orthogonal polynomials under the point-mass measure.

    The measure is symmetric, so Gram-Schmidt reduces to Stieltjes's
    three-term recurrence P_(n+1) = u P_n - (|P_n|^2 / |P_(n-1)|^2) P_(n-1).
    """
    from gknextend.polynomials import Poly

    A = Fraction(A)
    polys = [Poly([1])]
    norms = [mu_inner(polys[0], polys[0], A)]
    for n in range(n_max):
        p = Poly((0,) + polys[n].coeffs)  # u P_n
        if n:
            p = p - polys[n - 1].scale(norms[n] / norms[n - 1])
        polys.append(p)
        norms.append(mu_inner(p, p, A))
    return LTBasis(A, tuple(polys))


def hankel_gram(basis):
    """Gram matrix <P_m, P_n> from the moments m_k = 2/(k+1) + 2/A (k even)."""
    A = basis.A
    degree = len(basis) - 1
    mom = [Fraction(2, k + 1) + 2 / A if k % 2 == 0 else 0 for k in range(2 * degree + 1)]
    G = [[Fraction(0)] * len(basis) for _ in basis.polys]
    for m, pm in enumerate(basis.polys):
        h = [
            sum(c * mom[i + j] for j, c in enumerate(pm.coeffs) if c and mom[i + j])
            for i in range(degree + 1)
        ]
        for n in range(m, len(basis)):
            G[m][n] = G[n][m] = sum(c * hi for c, hi in zip(basis[n].coeffs, h) if c and hi)
    return G


def reference_eigenvalue(n, A):
    """lambda_n = n(n+1)(n^2 + n + 4A - 2) in Fraction arithmetic."""
    return Fraction(n) * (n + 1) * (Fraction(n) * n + n + 4 * Fraction(A) - 2)


def eigen_residual(basis, n, image):
    """image - lambda_n P_n, where image = l P_n; zero iff P_n is an exact eigenvector."""
    return image - basis[n].scale(reference_eigenvalue(n, basis.A))


def boundary_identity_check(basis, n) -> bool:
    """Exact identity 8A P'(1) = lambda_n P(1) and -8A P'(-1) = lambda_n P(-1)."""
    A = basis.A
    p = basis[n]
    dp = p.deriv()
    lam = reference_eigenvalue(n, A)
    one = Fraction(1)
    return (8 * A * dp(one) == lam * p(one)) and (-8 * A * dp(-one) == lam * p(-one))


def jump_action(A, p, a, B=None):
    """W component B a - Omega p of the extended action (l p, B a - Omega p),
    with Omega p = (8A p'(-1), -8A p'(1)) and B a 2x2 rational matrix (None is zero)."""
    A = Fraction(A)
    dp = p.deriv()
    omega = (8 * A * dp(Fraction(-1)), -8 * A * dp(Fraction(1)))
    if B is None:
        return (-omega[0], -omega[1])
    return (
        B[0][0] * a[0] + B[0][1] * a[1] - omega[0],
        B[1][0] * a[0] + B[1][1] * a[1] - omega[1],
    )


def extended_eigen_check(basis, n, image, B=None) -> bool:
    """Is (P_n, (P_n(-1), P_n(1))) an exact eigenvector of the extended action?

    `image` is l P_n, the H component of the action.
    """
    p = basis[n]
    a = (p(Fraction(-1)), p(Fraction(1)))
    w = jump_action(basis.A, p, a, B)
    lam = reference_eigenvalue(n, basis.A)
    return eigen_residual(basis, n, image).is_zero() and w == (lam * a[0], lam * a[1])


def fraction_suite(A, n_max):
    """The five verdicts of the exact suite, in Fraction arithmetic on the
    Gram-Schmidt basis."""
    from gknextend.expressions import LegendreType, apply_expr

    basis = gram_schmidt(Fraction(A), n_max)
    I2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    images = [apply_expr(LegendreType(basis.A), p) for p in basis.polys]
    gram = hankel_gram(basis)
    rng = range(n_max + 1)
    return {
        "eigenvalue_formula_exact": all(eigen_residual(basis, n, images[n]).is_zero() for n in rng),
        "boundary_identity_exact": all(boundary_identity_check(basis, n) for n in rng),
        "extended_eigen_relation_exact": all(
            extended_eigen_check(basis, n, images[n]) for n in rng
        ),
        "extended_orthogonality_exact": all(
            gram[m][n] == 0 for m in rng for n in rng if m < n
        ),
        "nonzero_B_breaks_eigenvectors": not any(
            extended_eigen_check(basis, n, images[n], I2) for n in rng
        ),
    }


# -- independent references for the spectral reductions ---------------------
# The library builds the operator once as M = R A R^-1 in coordinates where
# the H + W Gram is the identity, reduces it in a G-orthonormal basis of the
# domain and measures the symmetry defect on M in the probe basis.  These
# work on the nodal matrices instead: the action A_full on (samples, W
# coordinates) from the powers D1^j, and the block-diagonal Gram_full.  From
# them they build the domain basis from a Cholesky factor of the whole Gram,
# the operator by the SVD-nullspace route the library replaced, the
# eigenvalues from a Euclidean basis by QZ, and the defect in sample space,
# for all pairs at once and pair by pair.  Two more keep routes on M that
# the library replaced: the H block of M as one product of R_ref with
# every term, constant or not, and the defect from a QR of the restricted
# probe columns, with products with R_ref and M on every call.


@dataclass(frozen=True)
class NodalDiscretization:
    """(l x, B a - Omega tr x) collocated on grid samples, as the library once built it."""

    lift: np.ndarray           # (samples, W coords) -> (traces, W coords)
    A_full: np.ndarray         # action on (samples, W coords)
    Gram_full: np.ndarray      # block-diagonal: interpolant Gram and G


def nodal_discretize(model, grid):
    """The nodal matrices of the model on the grid, real unless l, Omega, B or G is not."""
    from gknextend.spectral import _dtype, _horner, _view

    expr = model.expr
    n, k, td = grid.N + 1, model.k, model.trace_dim
    # I, D1, ..., D1^4, each the one before it times D1
    powers = [np.eye(n), grid.D1]
    while len(powers) < 5:
        powers.append(powers[-1] @ grid.D1)
    coeffs = [(j, _horner(c, grid.nodes)) for j, c in expr.coefficient_polys()]
    dtype = _dtype(*(cvals for _, cvals in coeffs))
    L = np.zeros((n, n), dtype=dtype)
    for j, cvals in coeffs:
        L += _view(cvals, dtype)[:, None] * powers[j]
    dtype = _dtype(L, model.Omega, model.B, model.W.G)

    d = expr.traces_per_endpoint
    lift = np.zeros((td + k, n + k), dtype=dtype)
    lift[:td, :n] = [powers[j][idx] for idx in (0, grid.N) for j in range(d)]
    lift[td:, n:] = np.eye(k)

    A_full = np.zeros((n + k, n + k), dtype=dtype)
    A_full[:n, :n] = L
    A_full[n:, :n] = -_view(model.Omega, dtype) @ lift[:td, :n]
    A_full[n:, n:] = _view(model.B, dtype)

    Gram_full = np.zeros((n + k, n + k), dtype=dtype)
    Gram_full[:n, :n] = grid.gram
    Gram_full[n:, n:] = _view(model.W.G, dtype)
    return NodalDiscretization(lift, A_full, Gram_full)


def domain_basis(op, Gram_full):
    """The domain basis R^-1 Q and R, with Gram_full = R* R factored whole."""
    import scipy.linalg

    R = scipy.linalg.cholesky(Gram_full, lower=False)
    return scipy.linalg.solve_triangular(R, op.Q), R


def reference_assemble(model, bc, grid):
    """The operator of `spectral.assemble` by the route it replaced, from the nodal matrices.

    The nullspace basis Q of the rows in y = R x coordinates comes from an
    SVD (rtol 1e-10), the triangular solves run with all n columns of Q,
    and C = Q* R A_full R^-1 Q is formed from the H and W blocks.
    """
    import scipy.linalg
    from gknextend.spectral import (
        DiscreteExtendedOperator,
        SpectralError,
        _constraint_rows,
        _right_solve,
        discretize,
    )
    from gknextend.symplectic import nullspace

    nodal = nodal_discretize(model, grid)
    n = grid.N + 1
    try:
        R_W = scipy.linalg.cholesky(nodal.Gram_full[n:, n:], lower=False)
    except scipy.linalg.LinAlgError as e:
        raise SpectralError(f"the W Gram matrix G is not positive definite: {e}")
    R_H, sqrt_h = grid.gram_factor, np.sqrt(grid.h)
    rows = _constraint_rows(nodal.lift, bc)
    Q = nullspace(
        np.hstack([_right_solve(rows[:, :n], R_H) / sqrt_h, _right_solve(rows[:, n:], R_W)]),
        rtol=1e-10,
    )
    Qh, Qw = Q[:n], Q[n:]
    # A_full R^-1 Q, with R_ref^-1 Q_h = sqrt(h) times the H rows of R^-1 Q
    AZ = nodal.A_full[:, :n] @ scipy.linalg.solve_triangular(R_H, Qh)
    W_rows = AZ[n:] / sqrt_h + nodal.A_full[n:, n:] @ scipy.linalg.solve_triangular(R_W, Qw)
    C = Qh.conj().T @ (R_H @ AZ[:n]) + Qw.conj().T @ (R_W @ W_rows)
    return DiscreteExtendedOperator(discretize(model, grid), bc, Q, C)


def qz_eigenvalues(op):
    """All eigenvalues of the constrained operator by complex QZ, smallest |lambda| first.

    P is a Euclidean orthonormal basis of the nullspace of the boundary
    rows, and QZ solves the pencil (P* G A P, P* G P) of the nodal
    matrices.  Ties in |lambda| to 9 significant digits go by real part.
    """
    import scipy.linalg

    nodal = nodal_discretize(op.disc.model, op.disc.grid)
    P = scipy.linalg.null_space(op.bc.canonical @ nodal.lift, rcond=1e-10)
    PG = P.conj().T @ nodal.Gram_full
    evals = scipy.linalg.eigvals(PG @ nodal.A_full @ P, PG @ P)
    modulus = [float(f"{m:.8e}") for m in np.abs(evals)]
    return evals[np.lexsort((evals.real, modulus))]


def tied_pairs(evals) -> list[int]:
    """Indices i whose eigenvalue ties with the next one in |lambda| to 9 digits."""
    modulus = [f"{m:.8e}" for m in np.abs(evals)]
    return [i for i in range(len(evals) - 1) if modulus[i] == modulus[i + 1]]


def one_product_h_block(model, grid):
    """The H block R_ref L R_ref^-1 of M as one product of R_ref with L R_ref^-1.

    L R_ref^-1 = sum_j diag(c_j) h^-j (D_j R_ref^-1)_ref over every term,
    constant coefficients included, from the grid's right factors; one
    real product with R_ref for each part, real and imaginary.
    """
    from gknextend.spectral import _horner

    coeffs = [(j, _horner(c, grid.nodes)) for j, c in model.expr.coefficient_polys()]
    LR = sum(((1 / grid.h) ** j * cvals)[:, None] * grid.reference_diff_rinv(j) for j, cvals in coeffs)
    block = grid.gram_factor @ LR.real
    if np.iscomplexobj(LR):
        block = block + 1j * (grid.gram_factor @ LR.imag)
    return block


def probe_basis(disc, bc):
    """Columns (samples, W coordinates) spanning the probed subspace.

    The Chebyshev polynomials T_0..T_d of t = (2u - a - b)/(b - a)
    (d = min(PROBE_DEGREE, N)) and the W coordinates, times a nullspace
    basis of the boundary rows on them; real when the rows and the lift are.
    """
    from gknextend.spectral import PROBE_DEGREE, _constraint_rows
    from gknextend.symplectic import nullspace

    grid, k = disc.grid, disc.model.k
    n, d = grid.N + 1, min(PROBE_DEGREE, grid.N)
    t = (2 * grid.nodes - grid.a - grid.b) / (grid.b - grid.a)
    rows = _constraint_rows(disc.lift, bc)
    basis = np.zeros((n + k, d + 1 + k), dtype=rows.dtype)
    basis[:n, : d + 1] = np.polynomial.chebyshev.chebvander(t, d)
    basis[n:, d + 1 :] = np.eye(k)
    constrained = rows @ basis
    # the rank rule of scipy.linalg.null_space: rtol = max(shape) * eps
    rtol = max(constrained.shape) * np.finfo(float).eps
    return basis @ nullspace(constrained, rtol)


def qr_symmetry_defect(disc, bc, seed):
    """The symmetry defect on M from a QR of the restricted probe columns.

    With S = Q R_s and Z = blockdiag(sqrt(h) R_ref, R_W) Q, the defect of
    each pair is |y_v* (K - K*) y_u| / (|u||v|(1 + ||K||_2)) for
    K = Z* M Z, |u|^2 = y_u* Z* Z y_u and y = R_s z: one product with
    R_ref and one with M for every call.
    """
    from gknextend.spectral import PROBE_TRIALS

    rng = np.random.default_rng(seed)
    S = probe_basis(disc, bc)
    z = rng.standard_normal((PROBE_TRIALS, 4, S.shape[1]))
    if not S.size:
        return 0.0
    Q, R_s = np.linalg.qr(S)
    n = disc.grid.N + 1
    Z = np.vstack([np.sqrt(disc.grid.h) * (disc.grid.gram_factor @ Q[:n]), disc.R_W @ Q[n:]])
    K = Z.conj().T @ (disc.M @ Z)
    Nm = Z.conj().T @ Z
    nrmA = np.linalg.norm(K, 2)
    Yu = R_s @ (z[:, 0] + 1j * z[:, 1]).T
    Yv = R_s @ (z[:, 2] + 1j * z[:, 3]).T
    num = np.abs(np.sum(Yv.conj() * ((K - K.conj().T) @ Yu), axis=0))
    norm_u = np.sqrt(np.maximum(np.sum(Yu.conj() * (Nm @ Yu), axis=0).real, 0.0))
    norm_v = np.sqrt(np.maximum(np.sum(Yv.conj() * (Nm @ Yv), axis=0).real, 0.0))
    den = norm_u * norm_v * (1.0 + nrmA)
    return float(np.max(num[den > 0] / den[den > 0], initial=0.0))


def sample_probe(disc, bc, nodal):
    """The probe basis and |A| on it, from the nodal matrices."""
    sample_basis = probe_basis(disc, bc)
    q, _ = np.linalg.qr(sample_basis)
    nrmA = np.linalg.norm(q.conj().T @ nodal.Gram_full @ nodal.A_full @ q, 2) if q.size else 0.0
    return sample_basis, nrmA


def batch_symmetry_defect(disc, bc, seed):
    """The symmetry defect of every pair at once, as nodal matrix products."""
    from gknextend.spectral import PROBE_TRIALS

    rng = np.random.default_rng(seed)
    nodal = nodal_discretize(disc.model, disc.grid)
    sample_basis, nrmA = sample_probe(disc, bc, nodal)
    z = rng.standard_normal((PROBE_TRIALS, 4, sample_basis.shape[1]))
    U = sample_basis @ (z[:, 0] + 1j * z[:, 1]).T
    V = sample_basis @ (z[:, 2] + 1j * z[:, 3]).T
    G, A = nodal.Gram_full, nodal.A_full
    AU, AV, GU = A @ U, A @ V, G @ U
    # <x, y> = y* G x, one trial per column
    num = np.abs(np.sum(V.conj() * (G @ AU), axis=0) - np.sum(AV.conj() * GU, axis=0))
    norm_u = np.sqrt(np.maximum(np.sum(U.conj() * GU, axis=0).real, 0.0))
    norm_v = np.sqrt(np.maximum(np.sum(V.conj() * (G @ V), axis=0).real, 0.0))
    den = norm_u * norm_v * (1.0 + nrmA)
    return float(np.max(num[den > 0] / den[den > 0], initial=0.0))


def loop_symmetry_defect(disc, bc, seed):
    """The symmetry defect one pair at a time, from explicit nodal inner products."""
    from gknextend.spectral import PROBE_TRIALS

    rng = np.random.default_rng(seed)
    nodal = nodal_discretize(disc.model, disc.grid)
    sample_basis, nrmA = sample_probe(disc, bc, nodal)
    dim = sample_basis.shape[1]

    def inner(x, y):
        return complex(y.conj() @ nodal.Gram_full @ x)

    def norm(x):
        return float(np.sqrt(max(inner(x, x).real, 0.0)))

    worst = 0.0
    for _ in range(PROBE_TRIALS):
        u = sample_basis @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        v = sample_basis @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        Au, Av = nodal.A_full @ u, nodal.A_full @ v
        den = norm(u) * norm(v) * (1.0 + nrmA)
        if den > 0:
            worst = max(worst, abs(inner(Au, v) - inner(u, Av)) / den)
    return worst


# -- independent reference for the shooting oracle's traces -----------------
# The library takes the fundamental matrix of the constant-coefficient
# companion system as one matrix exponential; this integrates it.


def rk_fundamental_traces(expr, lams):
    """Traces [I; Y(b)] of l x = lam x by adaptive RK, for every lam at once.

    The companion system x^(m) = (lam x - sum_{j<m} c_j x^(j)) / c_m is
    integrated from Y(a) = I in a solution-major state with DOP853 (rtol
    1e-11, atol 1e-13).  solve_ivp bounds the RMS error norm of the whole
    stacked state, so both tolerances are divided by sqrt(len(lams)) and no
    single lam's error norm exceeds the tolerance it had on its own.  Shape
    (len(lams), 2m, m).
    """
    from scipy.integrate import solve_ivp

    m = expr.order
    c = expr.constant_coefficients()
    dtype = np.result_type(*c.values())
    lam_c = lams / c[m]
    lower = [(j, v / c[m]) for j, v in c.items() if j < m]
    a, b = (float(v) for v in expr.interval)
    n = lams.size
    tol = {"rtol": 1e-11 / np.sqrt(n), "atol": 1e-13 / np.sqrt(n)}

    def rhs(_, y):
        Y = y.reshape(m, m, n)  # solution, derivative, lam
        dY = np.empty_like(Y)
        dY[:, :-1] = Y[:, 1:]
        np.multiply(lam_c, Y[:, 0], out=dY[:, -1])
        for j, v in lower:
            dY[:, -1] -= v * Y[:, j]
        return dY.ravel()

    y0 = np.repeat(np.eye(m, dtype=dtype).ravel(), n)
    sol = solve_ivp(rhs, (a, b), y0, method="DOP853", **tol)
    Yb = sol.y[:, -1].reshape(m, m, n).transpose(2, 1, 0)
    return np.concatenate([np.broadcast_to(np.eye(m, dtype=dtype), Yb.shape), Yb], axis=1)


# -- independent reference for the self-adjointness certificate -------------
# The library asks whether the nullspace of the rows is a maximal isotropic
# subspace of F_ext; these push it into the quotient by the minimal pairs and
# test it for a complete Lagrangian there, by comparing subspaces.


def radical(F):
    """Orthonormal basis of {x : form(x, y) = 0 for all y} = null(S)."""
    from gknextend.symplectic import Subspace, nullspace

    return Subspace(F.dim, nullspace(F.matrix))


def subspace_contains(big, small, tol=1e-8) -> bool:
    """True iff every vector of `small` lies in `big` (projection residual)."""
    Q = big.orthonormal()
    P = small.orthonormal()
    resid = P - Q @ (Q.conj().T @ P)
    return bool(np.abs(resid).max(initial=0.0) <= tol)


def subspaces_equal(a, b, tol=1e-8) -> bool:
    return subspace_contains(a, b, tol) and subspace_contains(b, a, tol)


def is_lagrangian(F, L) -> bool:
    """True iff the form vanishes identically on L."""
    from gknextend.symplectic import TOL_FORM

    Q = L.orthonormal()
    vals = Q.conj().T @ F.matrix @ Q
    scale = 1.0 + np.abs(F.matrix).max(initial=0.0)
    return bool(np.abs(vals).max(initial=0.0) <= TOL_FORM * scale)


def symplectic_complement(F, L):
    """{x : form(x, l) = 0 for all l in L} = null(B_L* S)."""
    from gknextend.symplectic import Subspace, nullspace

    return Subspace(F.dim, nullspace(L.basis.conj().T @ F.matrix))


def is_complete_lagrangian(F, L) -> bool:
    """Lagrangian and equal to its own symplectic complement (F nondegenerate)."""
    from gknextend.symplectic import SymplecticError

    if not F.nondegenerate:
        raise SymplecticError(
            "complete-Lagrangian test needs a nondegenerate form; quotient "
            "by the radical first"
        )
    return is_lagrangian(F, L) and subspaces_equal(symplectic_complement(F, L), L)


def quotient_certificate(model, bc) -> bool:
    """The nullspace of the rows, pushed into F_ext / M_min, is a complete
    Lagrangian of dimension def(T0)."""
    from gknextend.symplectic import TOL_RANK, Subspace, nullspace, quotient_by

    N = nullspace(bc.C)
    Fq, Q = quotient_by(model.F_ext, model.M_min)
    if Fq.dim != 2 * model.deficiency or not Fq.nondegenerate:
        return False
    # columns of N are orthonormal, so genuine quotient content has O(1)
    # singular values; an absolute cutoff reports rank 0 when the nullspace
    # collapsed into the minimal pairs
    u, s, _ = np.linalg.svd(Q.conj().T @ N)
    rank = int(np.sum(s > TOL_RANK))
    if rank != model.deficiency:
        return False
    return is_complete_lagrangian(Fq, Subspace(Fq.dim, u[:, :rank]))


def random_complete_lagrangian(F, rng):
    """Random complete Lagrangian of a nondegenerate balanced form.

    Diagonalize the Hermitian matrix iS; a subspace is Lagrangian iff it is
    isotropic for that Hermitian form, and the maximal isotropic subspaces of
    a signature-(d, d) form are exactly the graphs of unitaries between the
    positive and negative eigenspaces.
    """
    from gknextend.symplectic import Subspace, SymplecticError

    if not F.nondegenerate:
        raise SymplecticError("need a nondegenerate form")
    H = 1j * F.matrix
    H = 0.5 * (H + H.conj().T)
    evals, evecs = np.linalg.eigh(H)
    pos = evals > 0
    neg = evals < 0
    d_pos, d_neg = int(pos.sum()), int(neg.sum())
    if d_pos != d_neg:
        raise SymplecticError(
            f"form has unbalanced signature ({d_pos}, {d_neg}); no complete "
            f"Lagrangian exists"
        )
    # scale eigenvectors so the Hermitian form is exactly +/-1 on them
    Up = evecs[:, pos] / np.sqrt(evals[pos])
    Un = evecs[:, neg] / np.sqrt(-evals[neg])
    z = rng.standard_normal((d_pos, d_pos)) + 1j * rng.standard_normal((d_pos, d_pos))
    K, _ = np.linalg.qr(z)
    return Subspace(F.dim, Up + Un @ K)
