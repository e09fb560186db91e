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

`spectrum` computes only the eigenvalues the checks read, the few of
smallest modulus, by ARPACK's non-symmetric shift-invert Arnoldi at a
shift just below 0, from a fixed generic start vector, and checks that the
eigenvalues it returns cover every smaller one (see `spectrum`).

The arithmetic is real whenever the model is: `assemble` works in float64
when the expression's coefficients, Omega, B, G and the boundary rows all
have an imaginary part of exactly zero, and in complex128 otherwise, and
`spectrum` follows the dtype of the pair it is given.  Realness of the
arrays is not realness of the spectrum: the Arnoldi solver is the general
non-symmetric one in either dtype, so a real A_red that is not symmetric
still gives its conjugate pairs of non-real eigenvalues, and the realness
of the eigenvalues is read from the solver's output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .collocation import CollocationGrid
from .expressions import DiffExpr, ExpSolution
from .extension import BoundaryConditions, ExtendedModel
from .polynomials import Poly
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


def _dtype(*arrays) -> type:
    """float when every array has an imaginary part of exactly zero, else complex."""
    return complex if any(np.iscomplexobj(m) and np.any(m.imag) for m in arrays) else float


def _view(m: np.ndarray, dtype: type) -> np.ndarray:
    """m in the given dtype: its real part (a view) when dtype is float."""
    return m.real if dtype is float else m


def _horner(p: Poly, u: np.ndarray) -> np.ndarray:
    """p at every node of u, in `Poly.__call__`'s order and float arithmetic.

    `Fraction + float` is `float(Fraction) + float`, so each value is
    bit-identical to `p(u_i)` at that node.
    """
    acc = np.zeros_like(u)
    for c in reversed(p.coeffs):
        acc = acc * u + (complex(c) if isinstance(c, complex) else float(c))
    return acc


def expr_grid_matrix(expr: DiffExpr, grid: CollocationGrid) -> np.ndarray:
    """Collocation matrix of the expression on grid samples, real when its coefficients are."""
    n = grid.N + 1
    coeffs = [(j, _horner(c, grid.nodes)) for j, c in expr.coefficient_polys()]
    dtype = _dtype(*(cvals for _, cvals in coeffs))
    L = np.zeros((n, n), dtype=dtype)
    for j, cvals in coeffs:
        L += _view(cvals, dtype)[:, None] * grid.diff(j)
    return L


@dataclass(frozen=True)
class Discretization:
    """The part of the assembly that no boundary row enters."""

    model: ExtendedModel
    grid: CollocationGrid
    lift: np.ndarray           # (samples, W coords) -> (traces, W coords)
    A_full: np.ndarray         # action on (samples, W coords)
    Gram_full: np.ndarray      # block-diagonal: interpolant Gram and G


def _discretize(model: ExtendedModel, grid: CollocationGrid) -> Discretization:
    """Collocate (l x, B a - Omega tr x), real unless l, Omega, B or G is not."""
    expr = model.expr
    if grid.N < 2 * expr.order + 4:
        raise SpectralError(f"N = {grid.N} too small for order {expr.order}")
    a, b = (float(v) for v in expr.interval)
    if not (np.isclose(grid.a, a) and np.isclose(grid.b, b)):
        raise SpectralError("grid interval does not match the expression")
    n, k, td = grid.N + 1, model.k, model.trace_dim
    L = expr_grid_matrix(expr, grid)
    dtype = _dtype(L, model.Omega, model.B.matrix, model.W.G)

    lift = np.zeros((td + k, n + k), dtype=dtype)
    lift[:td, :n] = trace_rows(grid, expr)
    lift[td:, n:] = np.eye(k)

    A_full = np.zeros((n + k, n + k), dtype=dtype)
    A_full[:n, :n] = L
    A_full[n:, :n] = -_view(model.Omega, dtype) @ lift[:td, :n]
    A_full[n:, n:] = _view(model.B.matrix, dtype)

    Gram_full = np.zeros((n + k, n + k), dtype=dtype)
    Gram_full[:n, :n] = grid.gram
    Gram_full[n:, n:] = _view(model.W.G, dtype)
    return Discretization(model, grid, lift, A_full, Gram_full)


@dataclass(frozen=True)
class DiscreteDomain:
    """A discretization under one set of boundary rows, unreduced."""

    disc: Discretization
    bc: BoundaryConditions


@dataclass(frozen=True)
class DiscreteExtendedOperator(DiscreteDomain):
    """The reduced pair (A_red, Gram_red) on the nullspace P of the rows."""

    P: np.ndarray              # domain basis, columns span the constrained space
    A_red: np.ndarray
    Gram_red: np.ndarray

    @property
    def reduced_dim(self) -> int:
        return self.P.shape[1]


def assemble(
    model: ExtendedModel, bc: BoundaryConditions, grid: CollocationGrid
) -> DiscreteExtendedOperator:
    """Discretize (l x, B a - Omega tr x) under the given boundary rows, real if all are."""
    disc = _discretize(model, grid)
    dtype = complex if np.iscomplexobj(disc.lift) else _dtype(bc.canonical)
    P = nullspace(_view(bc.canonical, dtype) @ disc.lift, rtol=1e-10)
    PG = P.conj().T @ disc.Gram_full
    return DiscreteExtendedOperator(disc, bc, P, PG @ disc.A_full @ P, PG @ P)


def _probe_basis(dom: DiscreteDomain) -> np.ndarray:
    """Columns (samples, W coordinates) spanning the probed subspace.

    The subspace is the Chebyshev polynomials T_0..T_d of
    t = (2u - a - b)/(b - a) (d = min(PROBE_DEGREE, N)) and the W
    coordinates, restricted to the nullspace of the boundary rows.
    """
    disc = dom.disc
    grid, k = disc.grid, disc.model.k
    n, d = grid.N + 1, min(PROBE_DEGREE, grid.N)
    t = (2 * grid.nodes - grid.a - grid.b) / (grid.b - grid.a)
    basis = np.zeros((n + k, d + 1 + k), dtype=complex)
    basis[:n, : d + 1] = np.polynomial.chebyshev.chebvander(t, d)
    basis[n:, d + 1 :] = np.eye(k)
    constrained = dom.bc.canonical @ disc.lift @ basis
    # the rank rule of scipy.linalg.null_space: rtol = max(shape) * eps
    rtol = max(constrained.shape) * np.finfo(float).eps
    return basis @ nullspace(constrained, rtol)


def symmetry_defect(dom: DiscreteDomain, seed: int) -> float:
    """max |<Au,v> - <u,Av>| / (|u||v|(1 + |A|)) over random domain pairs.

    The PROBE_TRIALS pairs are random combinations u = S z_u, v = S z_v of
    the columns S of `_probe_basis`, smooth domain elements on which the
    collocation action is exact up to rounding for every kind and grid
    size.  All pairs are drawn at once (the stream of four draws per trial:
    Re z_u, Im z_u, Re z_v, Im z_v), and the pairs are complex whatever the
    dtype of the discretization.

    Everything is measured in the probe basis.  With S = Q R (Q
    orthonormal in nodal coordinates, as for |A|), one pair of products
    A Q and Q* G forms the m x m matrices K = Q* G A Q and Nm = Q* G Q
    (m <= PROBE_DEGREE + 1 + dim W).  With y = R z, G = G* gives
    <Au, v> - <u, Av> = y_v* (K - K*) y_u and |u|^2 = y_u* Nm y_u, and
    |A| = ||K||_2 is the 2-norm of A compressed to Q.  The work is
    O(n^2 m) per probe, not O(n^2) per pair.
    """
    rng = np.random.default_rng(seed)
    S = _probe_basis(dom)
    z = rng.standard_normal((PROBE_TRIALS, 4, S.shape[1]))
    if not S.size:
        return 0.0
    Q, R = np.linalg.qr(S)
    G, A = dom.disc.Gram_full, dom.disc.A_full
    QG = Q.conj().T @ G
    K = QG @ (A @ Q)
    Nm = QG @ Q
    nrmA = np.linalg.norm(K, 2)
    Yu = R @ (z[:, 0] + 1j * z[:, 1]).T
    Yv = R @ (z[:, 2] + 1j * z[:, 3]).T
    # one trial per column
    num = np.abs(np.sum(Yv.conj() * ((K - K.conj().T) @ Yu), axis=0))
    norm_u = np.sqrt(np.maximum(np.sum(Yu.conj() * (Nm @ Yu), axis=0).real, 0.0))
    norm_v = np.sqrt(np.maximum(np.sum(Yv.conj() * (Nm @ Yv), axis=0).real, 0.0))
    den = norm_u * norm_v * (1.0 + nrmA)
    return float(np.max(num[den > 0] / den[den > 0], initial=0.0))


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray    # sorted by |lambda| to 9 digits, then real part
    residuals: np.ndarray
    max_imag: float


def modulus_order(values) -> np.ndarray:
    """Indices sorting values by |lambda| to 9 significant digits, then real part.

    The rounding makes the two members of a pair +-lambda tie, so the real
    part, not rounding, puts -lambda first.
    """
    values = np.asarray(values)
    modulus = np.array([float(f"{m:.8e}") for m in np.abs(values)])
    return np.lexsort((values.real, modulus))


def spectrum(op: DiscreteExtendedOperator, count: int) -> SpectrumReport:
    """The `count` eigenvalues of the reduced pair (A_red, Gram_red) of smallest |lambda|.

    Gram_red is Hermitian positive definite (the H + W inner product
    restricted to the domain), so with Gram_red = L L* the pair has the
    eigenvalues of the standard problem C = L^-1 A_red L^-*, and the
    eigenvectors L^-* y.  The congruence keeps honesty: C is Hermitian
    exactly when A_red is.

    Only the eigenvalues the checks read are computed: ARPACK's
    non-symmetric shift-invert Arnoldi (`eigs`, real when C is, complex
    otherwise) returns the k = count + 2 eigenvalues of C nearest to the
    shift sigma.  It assumes no symmetry of C, so realness is measured
    from its output, never produced.  The two spare eigenvalues keep a
    pair +-lambda that straddles the cut whole before `modulus_order`
    truncates to `count`.  The start vector is a fixed-seed Gaussian:
    generic, so that no eigenvector is missing from the Krylov space, and
    the same on every call.  A structured vector such as all ones has no
    component along the odd eigenvectors of a reflection-symmetric problem
    in exact arithmetic, and would leave them to rounding.

    The shift is sigma = -tau with tau = 1e-9 ||C||_1, not 0: an exact
    eigenvalue 0 (fourier_3_3) makes C itself singular.  tau is 1e7 times
    the rounding eps ||C|| of a computed 0, so C - sigma is far from
    singular.  It is not small against the spectrum (0.7 on fourier_3_3 at
    grid_N 256), so the nearest eigenvalues to sigma are checked to hold
    the smallest in modulus, the no-miss check: with d_k the largest
    distance from sigma of the k returned eigenvalues, every eigenvalue not
    returned has |lambda - sigma| >= d_k, hence |lambda| >= d_k - tau; so
    the kept ones are the `count` smallest in modulus of the whole spectrum
    if each has |lambda| <= d_k - tau.  Fewer than k returned eigenvalues,
    or a kept one beyond that radius, is refused, as is an ARPACK failure
    (`SpectralError`).

    Residuals are taken against the original pair.  The symmetry defect is
    left to the caller, who measures it once.
    """
    from scipy.sparse.linalg import ArpackError, eigs  # ~30 ms: only spectrum pays it

    k = count + 2
    if k >= op.reduced_dim - 1:
        raise SpectralError(
            f"requested {count} eigenvalues, reduced dim {op.reduced_dim} "
            f"(Arnoldi needs count + 3 < reduced dim)"
        )
    try:
        L = scipy.linalg.cholesky(op.Gram_red, lower=True)
    except scipy.linalg.LinAlgError as e:
        cond = np.linalg.cond(op.Gram_red)
        raise SpectralError(f"eigensolver failed (Gram condition {cond:.3e}): {e}")
    X = scipy.linalg.solve_triangular(L, op.A_red, lower=True)
    C = scipy.linalg.solve_triangular(L, X.conj().T, lower=True, overwrite_b=True).conj().T
    del X
    tau = 1e-9 * np.linalg.norm(C, 1)
    v0 = np.random.default_rng(0).standard_normal(op.reduced_dim)
    try:
        evals, Y = eigs(C, k=k, sigma=-tau, v0=v0)
    except ArpackError as e:
        raise SpectralError(f"eigensolver failed: {e}")
    del C
    # every eigenvalue not returned is at least d_k from sigma, so at least d_k - tau from 0
    radius = np.abs(evals + tau).max(initial=0.0) - tau
    order = modulus_order(evals)[:count]
    evals = evals[order]
    reach = np.abs(evals).max(initial=0.0)
    if Y.shape[1] != k or reach > radius:
        raise SpectralError(
            f"no-miss check failed: Arnoldi returned {Y.shape[1]} of {k} eigenvalues, "
            f"kept |lambda| up to {reach:.6e} against a covered radius {radius:.6e}"
        )
    evecs = scipy.linalg.solve_triangular(L, Y[:, order], lower=True, trans="C")
    resids = np.zeros(count)
    scale = np.linalg.norm(op.A_red, 2) + reach
    for i in range(count):
        v = evecs[:, i]
        r = op.A_red @ v - evals[i] * (op.Gram_red @ v)
        resids[i] = np.linalg.norm(r) / (np.linalg.norm(v) * max(scale, 1.0))
    return SpectrumReport(
        eigenvalues=evals,
        residuals=resids,
        max_imag=float(np.abs(evals.imag).max(initial=0.0)),
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


def characteristic_value(
    model: ExtendedModel, bc: BoundaryConditions, lams: np.ndarray
) -> np.ndarray:
    """Real characteristic function whose zeros are the eigenvalues.

    Assembles the square system (boundary rows, W eigen-rows) on the
    fundamental-solution coefficients and the W coordinates, for every
    lambda of the 1-D array lams at once (one batched matrix exponential).
    Liouville's factor exp(-(b - a) tr C / 2) of the companion matrix C
    divides out the determinant's constant phase (1 for -x''); a
    non-negligible imaginary remainder raises.
    """
    expr = model.expr
    k, td = model.k, model.trace_dim
    lams = np.asarray(lams, dtype=float)
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
    return det.real


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
) -> list[float]:
    """Eigenvalues in the window by scanning the characteristic function.

    The uniform scan at 240 points is one batched evaluation.  Its sign
    changes are refined together by lockstep Illinois sweeps to 1e-10;
    windows without sign changes yield an empty list.
    """
    lo, hi = lam_window
    if not lo < hi:
        raise SpectralError("empty window")
    grid = np.linspace(lo, hi, 240)
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
