"""Collocation discretization of extended operators and spectral checks.

A discrete vector stacks (samples on the grid, W coordinates).  Boundary
conditions are imposed by restriction to the nullspace of the discretized
constraint rows (basis recombination), so the reduced pair (A_red, M_red)
stays honestly checkable for Hermitian symmetry instead of being made
symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from .collocation import CollocationGrid
from .expressions import DiffExpr, ExpSolution, FirstOrderI, Fourier
from .extension import BoundaryConditions, ExtendedModel, ModelError
from .polynomials import Poly


class SpectralError(ValueError):
    pass


# The symmetry defect probes Chebyshev polynomials up to degree
# min(PROBE_DEGREE, N) on the grid interval, with PROBE_TRIALS random pairs.
# Fixing the degree apart from N probes the same functions on every grid
# with N >= PROBE_DEGREE.
PROBE_DEGREE = 24
PROBE_TRIALS = 50


def expr_order(expr: DiffExpr) -> int:
    return max(j for j, _ in expr.coefficient_polys())


def trace_rows(grid: CollocationGrid, expr: DiffExpr) -> np.ndarray:
    """Matrix extracting the expression's trace vector from grid samples."""
    d = expr.traces_per_endpoint
    n = grid.N + 1
    rows = []
    for idx in (0, n - 1):
        for k in range(d):
            if k == 0:
                r = np.zeros(n)
                r[idx] = 1.0
            else:
                r = grid.diff(k)[idx]
            rows.append(r)
    return np.array(rows)


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
    if k:
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

    def inner(self, x, y) -> complex:
        return complex(np.asarray(y).conj() @ self.Gram_full @ np.asarray(x))

    def norm(self, x) -> float:
        return float(np.sqrt(max(self.inner(x, x).real, 0.0)))


def assemble(
    model: ExtendedModel, bc: BoundaryConditions, grid: CollocationGrid
) -> DiscreteExtendedOperator:
    """Discretize (l x, B a - Omega tr x) under the given boundary rows."""
    expr = model.expr
    if grid.N < 2 * expr_order(expr) + 4:
        raise SpectralError(f"N = {grid.N} too small for order {expr_order(expr)}")
    a, b = (float(v) for v in expr.interval)
    if not (np.isclose(grid.a, a) and np.isclose(grid.b, b)):
        raise SpectralError("grid interval does not match the expression")
    n = grid.N + 1
    k = model.k
    lift = _trace_lift(model, grid)

    A_full = np.zeros((n + k, n + k), dtype=complex)
    A_full[:n, :n] = expr_grid_matrix(expr, grid)
    if k:
        A_full[n:, :n] = -model.Omega @ lift[: model.trace_dim, :n]
        A_full[n:, n:] = model.B.matrix

    Gram_full = np.zeros((n + k, n + k), dtype=complex)
    Gram_full[:n, :n] = grid.gram
    if k:
        Gram_full[n:, n:] = model.W.G

    rows = bc.canonical @ lift
    _, s, vh = np.linalg.svd(rows)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size else 0
    P = vh[rank:].conj().T

    A_red = P.conj().T @ Gram_full @ A_full @ P
    Gram_red = P.conj().T @ Gram_full @ P
    return DiscreteExtendedOperator(model, bc, grid, P, A_full, Gram_full, A_red, Gram_red)


def symmetry_defect(op: DiscreteExtendedOperator, seed: int) -> float:
    """max |<Au,v> - <u,Av>| / (|u||v|(1 + |A|)) over random domain pairs.

    The pairs are smooth elements of the constrained domain: random
    combinations of Chebyshev polynomials T_0..T_d of
    t = (2u - a - b)/(b - a) (d = min(PROBE_DEGREE, N)) and of W
    coordinates, restricted to the nullspace of the boundary rows.  The
    collocation action is exact on them up to rounding, for every kind and
    grid size.  |A| is the 2-norm of A compressed to a nodal-orthonormal
    basis of the probed subspace.
    """
    rng = np.random.default_rng(seed)
    grid, k = op.grid, op.model.k
    n, d = grid.N + 1, min(PROBE_DEGREE, grid.N)
    t = (2 * grid.nodes - grid.a - grid.b) / (grid.b - grid.a)
    basis = np.zeros((n + k, d + 1 + k), dtype=complex)
    basis[:n, : d + 1] = np.polynomial.chebyshev.chebvander(t, d)
    basis[n:, d + 1 :] = np.eye(k)
    constrained = op.bc.canonical @ _trace_lift(op.model, grid) @ basis
    sample_basis = basis @ scipy.linalg.null_space(constrained)
    # operator scale on the subspace actually probed
    q, _ = np.linalg.qr(sample_basis)
    nrmA = np.linalg.norm(q.conj().T @ op.Gram_full @ op.A_full @ q, 2) if q.size else 0.0

    dim = sample_basis.shape[1]
    worst = 0.0
    for _ in range(PROBE_TRIALS):
        u = sample_basis @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        v = sample_basis @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        Au, Av = op.A_full @ u, op.A_full @ v
        num = abs(op.inner(Au, v) - op.inner(u, Av))
        den = op.norm(u) * op.norm(v) * (1.0 + nrmA)
        if den > 0:
            worst = max(worst, num / den)
    return worst


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray    # sorted by |lambda|, then real part
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


def spectrum(op: DiscreteExtendedOperator, count: int, seed: int = 0) -> SpectrumReport:
    """Generalized eigenvalues of the reduced pair, smallest |lambda| first.

    Realness is measured from the solver output, never assumed; the
    symmetry defect is left to the caller, who measures it once.
    """
    if count > op.reduced_dim:
        raise SpectralError(f"requested {count} eigenvalues, reduced dim {op.reduced_dim}")
    try:
        evals, evecs = scipy.linalg.eig(op.A_red, op.Gram_red)
    except scipy.linalg.LinAlgError as e:  # pragma: no cover
        cond = np.linalg.cond(op.Gram_red)
        raise SpectralError(f"eigensolver failed (Gram condition {cond:.3e}): {e}")
    order = np.lexsort((evals.real, np.abs(evals)))
    evals, evecs = evals[order][:count], evecs[:, order][:, :count]
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
    """Traces of a fundamental system of l x = lam x for every lam at once.

    The systems of all lam are stacked into one state and integrated by a
    single adaptive RK call (rtol 1e-11, atol 1e-13).  solve_ivp bounds the
    RMS error norm of the whole state, so both tolerances are divided by
    sqrt(len(lams)): no single lam's error norm can then exceed the
    tolerance it had on its own.
    Returns an array of shape (len(lams), trace_dim, solutions).
    """
    a, b = (float(v) for v in expr.interval)
    n = lams.size
    tol = {"rtol": 1e-11 / np.sqrt(n), "atol": 1e-13 / np.sqrt(n)}
    if isinstance(expr, Fourier):
        # y'' = -lam y, two initial-value columns; state rows y1, y1', y2, y2'
        def rhs(_, y):
            y1, dy1, y2, dy2 = y.reshape(4, n)
            return np.concatenate([dy1, -lams * y1, dy2, -lams * y2])

        y0 = np.repeat([1.0, 0.0, 0.0, 1.0], n)
        sol = solve_ivp(rhs, (a, b), y0, method="DOP853", **tol)
        y1, dy1, y2, dy2 = sol.y[:, -1].reshape(4, n)
        one, zero = np.ones(n), np.zeros(n)
        return np.stack(
            [np.stack([one, zero, y1, dy1], -1), np.stack([zero, one, y2, dy2], -1)], -1
        )
    if isinstance(expr, FirstOrderI):
        # i x' = lam x
        def rhs(_, y):
            return -1j * lams * y

        sol = solve_ivp(rhs, (a, b), np.ones(n, dtype=complex), method="DOP853", **tol)
        return np.stack([np.ones(n, dtype=complex), sol.y[:, -1]], -1)[:, :, None]
    raise SpectralError("shooting supports the first- and second-order kinds only")


def characteristic_value(model: ExtendedModel, bc: BoundaryConditions, lam):
    """Real characteristic function whose zeros are the eigenvalues.

    Assembles the square system (boundary rows, W eigen-rows) on the
    fundamental-solution coefficients and the W coordinates, for a scalar
    lam (returns a float) or an array of lam (returns an array, one batched
    integration).  For the first-order kind the determinant is made real by
    a unimodular phase; a non-negligible imaginary remainder raises.
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
    det = np.linalg.det(M)
    if isinstance(expr, FirstOrderI):
        a, b = (float(v) for v in expr.interval)
        det = det * np.exp(1j * lams * (b - a) / 2.0)
    # integration noise in Im(det) scales with the determinant's natural
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


# ---------------------------------------------------------------------------
# eigen-relation residuals


def eigenrelation_residual(
    model: ExtendedModel,
    grid: CollocationGrid,
    x,
    a: np.ndarray,
    lam: complex,
) -> float:
    """||T_hat(x, a) - lam (x, a)|| in the quadrature + G norm.

    `x` may be an ExpSolution (exact exponential derivatives) or a Poly
    (exact expression application); samples are taken on the grid.
    """
    from .expressions import apply_expr, trace_of_poly

    a = np.asarray(a, dtype=complex).reshape(-1)
    if isinstance(x, ExpSolution):
        h_action = x.apply(grid.nodes)
        h_val = x.value(grid.nodes)
        tr = x.trace()
    elif isinstance(x, Poly):
        lx = apply_expr(model.expr, x)
        h_action = np.array([complex(lx(u)) for u in grid.nodes])
        h_val = np.array([complex(x(u)) for u in grid.nodes])
        tr = trace_of_poly(model.expr, x)
    else:
        raise ModelError("x must be an ExpSolution or a Poly")
    h_res = h_action - lam * h_val
    w_res = model.B.matrix @ a - model.omega_of(tr) - lam * a if model.k else np.zeros(0)
    h_part = (h_res.conj() @ grid.gram @ h_res).real
    w_part = (w_res.conj() @ model.W.G @ w_res).real if model.k else 0.0
    return float(np.sqrt(max(h_part + w_part, 0.0)))
