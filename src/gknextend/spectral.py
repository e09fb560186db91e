"""Collocation discretization of extended operators and spectral checks.

A discrete vector stacks (samples on the grid, W coordinates).  Boundary
conditions are imposed by restriction to the nullspace of the discretized
constraint rows (basis recombination), so the reduced pair (A_red, Gram_red)
stays honestly checkable for Hermitian symmetry instead of being made
symmetric by construction.  The H + W inner product makes Gram_red
positive definite, so `spectrum` solves the pair as one standard problem
through the Cholesky congruence L^-1 A_red L^-* (Gram_red = L L*).  A
congruence preserves Hermitian-ness and non-Hermitian-ness alike, so the
eigenvalues stay a measurement of the assembly: an unsymmetric A_red gives
the same non-real eigenvalues as the generalized problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .collocation import CollocationGrid
from .expressions import DiffExpr, ExpSolution
from .extension import BoundaryConditions, ExtendedModel
from .symplectic import GknError, nullspace


class SpectralError(GknError):
    pass


# The symmetry defect probes Chebyshev polynomials up to degree
# min(PROBE_DEGREE, N) on the grid interval, with PROBE_TRIALS random pairs.
# Fixing the degree apart from N probes the same functions on every grid
# with N >= PROBE_DEGREE.
PROBE_DEGREE = 24
PROBE_TRIALS = 50


def trace_rows(grid: CollocationGrid, expr: DiffExpr) -> np.ndarray:
    """Matrix extracting the expression's trace vector from grid samples."""
    d = expr.traces_per_endpoint
    return np.array([grid.diff(k)[idx] for idx in (0, grid.N) for k in range(d)])


def expr_grid_matrix(expr: DiffExpr, grid: CollocationGrid) -> np.ndarray:
    """Collocation matrix of the expression on grid samples."""
    n = grid.N + 1
    L = np.zeros((n, n), dtype=complex)
    for j, c in expr.coefficient_polys():
        cvals = np.array([complex(c(u)) for u in grid.nodes])
        L += cvals[:, None] * grid.diff(j)
    return L


def _trace_lift(model: ExtendedModel, grid: CollocationGrid) -> np.ndarray:
    """Map from discrete vectors (samples, W coords) to (traces, W coords)."""
    n = grid.N + 1
    k = model.k
    lift = np.zeros((model.trace_dim + k, n + k), dtype=complex)
    lift[: model.trace_dim, :n] = trace_rows(grid, model.expr)
    lift[model.trace_dim :, n:] = np.eye(k)
    return lift


@dataclass(frozen=True)
class DiscreteExtendedOperator:
    model: ExtendedModel
    bc: BoundaryConditions
    grid: CollocationGrid
    P: np.ndarray              # domain basis, columns span the constrained space
    A_full: np.ndarray         # action on (samples, W coords)
    Gram_full: np.ndarray      # block-diagonal: interpolant Gram and G
    A_red: np.ndarray
    Gram_red: np.ndarray

    @property
    def reduced_dim(self) -> int:
        return self.P.shape[1]


def assemble(
    model: ExtendedModel, bc: BoundaryConditions, grid: CollocationGrid
) -> DiscreteExtendedOperator:
    """Discretize (l x, B a - Omega tr x) under the given boundary rows."""
    expr = model.expr
    if grid.N < 2 * expr.order + 4:
        raise SpectralError(f"N = {grid.N} too small for order {expr.order}")
    a, b = (float(v) for v in expr.interval)
    if not (np.isclose(grid.a, a) and np.isclose(grid.b, b)):
        raise SpectralError("grid interval does not match the expression")
    n = grid.N + 1
    k = model.k
    lift = _trace_lift(model, grid)

    A_full = np.zeros((n + k, n + k), dtype=complex)
    A_full[:n, :n] = expr_grid_matrix(expr, grid)
    A_full[n:, :n] = -model.Omega @ lift[: model.trace_dim, :n]
    A_full[n:, n:] = model.B.matrix

    Gram_full = np.zeros((n + k, n + k), dtype=complex)
    Gram_full[:n, :n] = grid.gram
    Gram_full[n:, n:] = model.W.G

    P = nullspace(bc.canonical @ lift, rtol=1e-10)

    A_red = P.conj().T @ Gram_full @ A_full @ P
    Gram_red = P.conj().T @ Gram_full @ P
    return DiscreteExtendedOperator(model, bc, grid, P, A_full, Gram_full, A_red, Gram_red)


def _probe_basis(op: DiscreteExtendedOperator) -> tuple[np.ndarray, float]:
    """Columns spanning the probed subspace, and |A| on it.

    The subspace is the Chebyshev polynomials T_0..T_d of
    t = (2u - a - b)/(b - a) (d = min(PROBE_DEGREE, N)) and the W
    coordinates, restricted to the nullspace of the boundary rows.  |A| is
    the 2-norm of A compressed to a nodal-orthonormal basis of it.
    """
    grid, k = op.grid, op.model.k
    n, d = grid.N + 1, min(PROBE_DEGREE, grid.N)
    t = (2 * grid.nodes - grid.a - grid.b) / (grid.b - grid.a)
    basis = np.zeros((n + k, d + 1 + k), dtype=complex)
    basis[:n, : d + 1] = np.polynomial.chebyshev.chebvander(t, d)
    basis[n:, d + 1 :] = np.eye(k)
    constrained = op.bc.canonical @ _trace_lift(op.model, grid) @ basis
    # the rank rule of scipy.linalg.null_space: rtol = max(shape) * eps
    rtol = max(constrained.shape) * np.finfo(float).eps
    sample_basis = basis @ nullspace(constrained, rtol)
    q, _ = np.linalg.qr(sample_basis)
    nrmA = np.linalg.norm(q.conj().T @ op.Gram_full @ op.A_full @ q, 2) if q.size else 0.0
    return sample_basis, nrmA


def symmetry_defect(op: DiscreteExtendedOperator, seed: int) -> float:
    """max |<Au,v> - <u,Av>| / (|u||v|(1 + |A|)) over random domain pairs.

    The PROBE_TRIALS pairs are random combinations of the smooth domain
    elements of `_probe_basis`, on which the collocation action is exact up
    to rounding for every kind and grid size.  All pairs are drawn at once
    (the stream of four draws per trial: Re u, Im u, Re v, Im v) and
    measured as matrix products.
    """
    rng = np.random.default_rng(seed)
    sample_basis, nrmA = _probe_basis(op)
    z = rng.standard_normal((PROBE_TRIALS, 4, sample_basis.shape[1]))
    U = sample_basis @ (z[:, 0] + 1j * z[:, 1]).T
    V = sample_basis @ (z[:, 2] + 1j * z[:, 3]).T
    G, AU, AV = op.Gram_full, op.A_full @ U, op.A_full @ V
    GU = G @ U
    # <x, y> = y* G x, one trial per column
    num = np.abs(np.sum(V.conj() * (G @ AU), axis=0) - np.sum(AV.conj() * GU, axis=0))
    norm_u = np.sqrt(np.maximum(np.sum(U.conj() * GU, axis=0).real, 0.0))
    norm_v = np.sqrt(np.maximum(np.sum(V.conj() * (G @ V), axis=0).real, 0.0))
    den = norm_u * norm_v * (1.0 + nrmA)
    return float(np.max(num[den > 0] / den[den > 0], initial=0.0))


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray    # sorted by |lambda| to 9 digits, then real part
    residuals: np.ndarray
    max_imag: float
    seed: int

    def to_json(self, symmetry_defect: float) -> dict:
        """The report, with the symmetry defect measured on the same assembly."""
        return {
            "eigenvalues": [[float(z.real), float(z.imag)] for z in self.eigenvalues],
            "residuals": [float(r) for r in self.residuals],
            "max_imag": float(self.max_imag),
            "symmetry_defect": float(symmetry_defect),
            "seed": self.seed,
        }


def modulus_order(values) -> np.ndarray:
    """Indices sorting values by |lambda| to 9 significant digits, then real part.

    The rounding makes the two members of a pair +-lambda tie, so the real
    part, not rounding, puts -lambda first.
    """
    values = np.asarray(values)
    modulus = np.array([float(f"{m:.8e}") for m in np.abs(values)])
    return np.lexsort((values.real, modulus))


def spectrum(op: DiscreteExtendedOperator, count: int, seed: int = 0) -> SpectrumReport:
    """Eigenvalues of the reduced pair (A_red, Gram_red), smallest |lambda| first.

    Gram_red is Hermitian positive definite (the H + W inner product
    restricted to the domain), so with Gram_red = L L* the pair has the
    eigenvalues of the standard problem C = L^-1 A_red L^-*, and the
    eigenvectors L^-* y.  The congruence keeps honesty: C is Hermitian
    exactly when A_red is, and the solver for C is the general one, so
    realness is measured from its output, never produced.  Residuals are
    taken against the original pair.  The symmetry defect is left to the
    caller, who measures it once.
    """
    if count > op.reduced_dim:
        raise SpectralError(f"requested {count} eigenvalues, reduced dim {op.reduced_dim}")
    try:
        L = scipy.linalg.cholesky(op.Gram_red, lower=True)
        X = scipy.linalg.solve_triangular(L, op.A_red, lower=True)
        C = scipy.linalg.solve_triangular(L, X.conj().T, lower=True).conj().T
        evals, Y = scipy.linalg.eig(C, overwrite_a=True)
    except scipy.linalg.LinAlgError as e:
        cond = np.linalg.cond(op.Gram_red)
        raise SpectralError(f"eigensolver failed (Gram condition {cond:.3e}): {e}")
    order = modulus_order(evals)[:count]
    evals = evals[order]
    evecs = scipy.linalg.solve_triangular(L, Y[:, order], lower=True, trans="C")
    resids = np.zeros(count)
    scale = np.linalg.norm(op.A_red, 2) + np.abs(evals).max(initial=0.0)
    for i in range(count):
        v = evecs[:, i]
        r = op.A_red @ v - evals[i] * (op.Gram_red @ v)
        resids[i] = np.linalg.norm(r) / (np.linalg.norm(v) * max(scale, 1.0))
    return SpectrumReport(
        eigenvalues=evals,
        residuals=resids,
        max_imag=float(np.abs(evals.imag).max(initial=0.0)),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# shooting oracle


def _fundamental_traces(expr: DiffExpr, lams: np.ndarray) -> np.ndarray:
    """Traces [I; Y(b)] of a fundamental system of l x = lam x, for every lam at once.

    For l x = sum_j c_j x^(j) of order m with constant c_j, the state
    (x, x', ..., x^(m-1)) solves z' = C z with the companion matrix C of
    x^(m) = (lam x - sum_{j<m} c_j x^(j)) / c_m, so Y(b) = exp((b - a) C)
    exactly, from Y(a) = I.  Column s of Y holds the derivatives of
    solution s (solution-major), and Y is real when every c_j is.  One
    batched scaling-and-squaring expm serves every lam.  Shape
    (len(lams), 2m, m).
    """
    m = expr.order
    if expr.traces_per_endpoint != m:
        raise SpectralError(
            f"shooting needs the full trace layout of an order-{m} expression, "
            f"got {expr.traces_per_endpoint} traces per endpoint"
        )
    c = expr.constant_coefficients()
    dtype = np.result_type(*c.values())
    a, b = (float(v) for v in expr.interval)
    C = np.zeros((lams.size, m, m), dtype=dtype)
    C[:, np.arange(m - 1), np.arange(1, m)] = 1
    for j, v in c.items():
        if j < m:
            C[:, m - 1, j] = -v / c[m]
    C[:, m - 1, 0] += lams / c[m]
    Yb = scipy.linalg.expm((b - a) * C)
    return np.concatenate([np.broadcast_to(np.eye(m, dtype=dtype), Yb.shape), Yb], axis=1)


def characteristic_value(model: ExtendedModel, bc: BoundaryConditions, lam):
    """Real characteristic function whose zeros are the eigenvalues.

    Assembles the square system (boundary rows, W eigen-rows) on the
    fundamental-solution coefficients and the W coordinates, for a scalar
    lam (returns a float) or an array of lam (returns an array, one batched
    matrix exponential).  Liouville's factor exp(-(b - a) tr C / 2) of the
    companion matrix C divides out the determinant's constant phase (1 for
    -x''); a non-negligible imaginary remainder raises.
    """
    expr = model.expr
    k, td = model.k, model.trace_dim
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    fund = _fundamental_traces(expr, lams)
    nf = fund.shape[2]
    rows = bc.canonical
    nb = rows.shape[0]
    if nb != nf:
        raise SpectralError(
            f"characteristic system is {nb + k}x{nf + k}; need def(T0) "
            f"boundary rows for a square system"
        )
    M = np.empty((lams.size, nb + k, nf + k), dtype=complex)
    M[:, :nb, :nf] = np.einsum("it,ltj->lij", rows[:, :td], fund)
    M[:, :nb, nf:] = rows[:, td:]
    M[:, nb:, :nf] = -np.einsum("it,ltj->lij", model.Omega, fund)
    M[:, nb:, nf:] = model.B.matrix - lams[:, None, None] * np.eye(k)
    # Liouville: det Y(b) = exp((b - a) tr C) for the companion matrix C;
    # half of that constant phase is divided out
    m, c = expr.order, expr.constant_coefficients()
    a, b = (float(v) for v in expr.interval)
    trace_c = (lams * (m == 1) - c.get(m - 1, 0)) / c[m]
    det = np.linalg.det(M) * np.exp(-0.5 * (b - a) * trace_c)
    # rounding noise in Im(det) scales with the determinant's natural
    # size, not with Re(det), which vanishes at eigenvalues
    hadamard = np.prod(np.maximum(np.linalg.norm(M, axis=1), 1e-30), axis=1)
    bad = np.flatnonzero(np.abs(det.imag) > 1e-6 * np.maximum(hadamard, 1.0))
    if bad.size:
        i = bad[0]
        raise SpectralError(
            f"characteristic determinant is not real at lambda = {lams[i]} "
            f"(got {det[i]:.3e}); a B that is not self-adjoint for the W inner product "
            f"is outside the oracle's scope"
        )
    return float(det[0].real) if np.ndim(lam) == 0 else det.real


def _illinois(f, a, b, fa, fb) -> np.ndarray:
    """Refine every sign-change bracket [a, b] of f in lockstep.

    Each sweep takes one Illinois step (regula falsi, halving the value
    kept at the retained end) per open bracket and evaluates f on all of
    them in one call.  A bracket closes at width 2 * tol with
    tol = 1e-10 + 4 eps |x| (Brent's stopping rule at xtol 1e-10), and its
    midpoint is returned.  As in Brent's method a step lands at least tol inside the
    bracket, so an end that already sits on the root closes it in one more
    sweep; a bracket that has not halved its width in three sweeps is
    bisected.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    last_halving = np.abs(b - a)
    age = np.zeros(a.size, dtype=int)
    while True:
        mid = 0.5 * (a + b)
        tol = 1e-10 + 4 * np.finfo(float).eps * np.abs(mid)
        open_ = np.flatnonzero(np.abs(b - a) > 2 * tol)
        if not open_.size:
            return mid
        ao, bo, fao, fbo = a[open_], b[open_], fa[open_], fb[open_]
        c = bo - fbo * (bo - ao) / (fbo - fao)
        c = np.where(age[open_] < 3, c, mid[open_])
        t = tol[open_]
        c = np.clip(c, np.minimum(ao, bo) + t, np.maximum(ao, bo) - t)
        fc = f(c)
        # the root lies between the latest point and c: the latest point is
        # retained; otherwise the retained end keeps half its value
        flip = np.sign(fc) != np.sign(fbo)
        a[open_] = np.where(flip, bo, ao)
        fa[open_] = np.where(flip, fbo, 0.5 * fao)
        b[open_], fb[open_] = c, fc
        a[open_[fc == 0.0]] = c[fc == 0.0]
        new_width = np.abs(b[open_] - a[open_])
        halved = new_width <= 0.5 * last_halving[open_]
        last_halving[open_] = np.where(halved, new_width, last_halving[open_])
        age[open_] = np.where(halved, 0, age[open_] + 1)


def shooting_oracle(
    model: ExtendedModel,
    bc: BoundaryConditions,
    lam_window: tuple[float, float],
    scan_points: int = 240,
) -> list[float]:
    """Eigenvalues in the window by scanning the characteristic function.

    The uniform scan is one batched evaluation.  Its sign changes are
    refined together by lockstep Illinois sweeps to 1e-10; windows without
    sign changes yield an empty list.
    """
    lo, hi = lam_window
    if not lo < hi:
        raise SpectralError("empty window")
    grid = np.linspace(lo, hi, scan_points)
    vals = characteristic_value(model, bc, grid)
    roots = list(grid[vals == 0.0])
    i = np.flatnonzero(vals[:-1] * vals[1:] < 0)
    if i.size:
        roots += list(
            _illinois(
                lambda lams: characteristic_value(model, bc, lams),
                grid[i], grid[i + 1], vals[i], vals[i + 1],
            )
        )
    return sorted(float(r) for r in roots)


def __getattr__(name):
    # The oracle calls no ODE solver.  `solve_ivp` resolves here, importing
    # scipy.integrate on first access, only for the benchmark tracer's hook,
    # which still patches it; this shim leaves with ROADMAP item 1.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# eigen-relation residuals


def eigenrelation_residual(
    model: ExtendedModel,
    grid: CollocationGrid,
    x: ExpSolution,
    a: np.ndarray,
    lam: complex,
) -> float:
    """||T_hat(x, a) - lam (x, a)|| / ||(x, a)|| in the quadrature + G norm.

    l x comes from the exact exponential derivatives of x; samples are
    taken on the grid.
    """
    a = np.asarray(a, dtype=complex).reshape(-1)
    x_h = x.value(grid.nodes)
    h_res = x.apply(grid.nodes) - lam * x_h
    w_res = model.B.matrix @ a - model.omega_of(x.trace()) - lam * a

    def norm2(h, w):
        return (h.conj() @ grid.gram @ h).real + (w.conj() @ model.W.G @ w).real

    return float(np.sqrt(max(norm2(h_res, w_res), 0.0) / norm2(x_h, a)))
