import functools
from fractions import Fraction

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
