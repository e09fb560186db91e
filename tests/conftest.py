import functools
import importlib
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


def trace_of_poly(expr, p):
    """Endpoint traces of a polynomial in the expression's layout, exactly."""
    from gknextend.expressions import TraceVector

    d = expr.traces_per_endpoint
    return TraceVector(tuple(p.deriv(k)(e) for e in expr.interval for k in range(d)))


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# -- independent reference for the exact Legendre suite ---------------------
# The library builds P_n from the operator; these build them from the measure.


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
    """Monic orthogonal polynomials under the point-mass measure."""
    from gknextend.legendre import LTBasis
    from gknextend.polynomials import Poly

    A = Fraction(A)
    polys = []
    norms = []
    for n in range(n_max + 1):
        p = Poly([Fraction(0)] * n + [Fraction(1)])  # u^n
        for m, pm in enumerate(polys):
            c = mu_inner(p, pm, A) / norms[m]
            p = p - pm.scale(c)
        polys.append(p)
        norms.append(mu_inner(p, p, A))
    return LTBasis(A, tuple(polys))


# -- independent references for the spectral reductions ---------------------
# The library solves the reduced pair through a Cholesky congruence and draws
# the symmetry-defect probe in one batch; these do both the direct way.


def qz_eigenvalues(op):
    """All eigenvalues of (A_red, Gram_red) by complex QZ, smallest |lambda| first.

    Ties in |lambda| to 9 significant digits go by real part.
    """
    import scipy.linalg

    evals = scipy.linalg.eigvals(op.A_red, op.Gram_red)
    modulus = [float(f"{m:.8e}") for m in np.abs(evals)]
    return evals[np.lexsort((evals.real, modulus))]


def tied_pairs(evals) -> list[int]:
    """Indices i whose eigenvalue ties with the next one in |lambda| to 9 digits."""
    modulus = [f"{m:.8e}" for m in np.abs(evals)]
    return [i for i in range(len(evals) - 1) if modulus[i] == modulus[i + 1]]


def loop_symmetry_defect(op, seed):
    """The symmetry defect one pair at a time, from explicit inner products."""
    from gknextend.spectral import PROBE_TRIALS, _probe_basis

    rng = np.random.default_rng(seed)
    sample_basis, nrmA = _probe_basis(op)
    dim = sample_basis.shape[1]

    def inner(x, y):
        return complex(y.conj() @ op.Gram_full @ x)

    def norm(x):
        return float(np.sqrt(max(inner(x, x).real, 0.0)))

    worst = 0.0
    for _ in range(PROBE_TRIALS):
        u = sample_basis @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        v = sample_basis @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        Au, Av = op.A_full @ u, op.A_full @ v
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
