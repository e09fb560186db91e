"""Chebyshev-Gauss-Lobatto collocation grids on [a, b].

Nodes are stored ascending (left endpoint first).  The grid carries the
exact L2 Gram matrix of the nodal interpolants, computed by resampling to
a Gauss-Legendre rule that integrates degree-2N polynomials exactly.  The
exact Gram is what the discrete operators use for inner products: with it,
integration by parts for polynomial interpolants is an identity rather
than a quadrature approximation, which is what keeps the symmetry defect
of honestly self-adjoint assemblies at rounding level.

Only the affine scaling depends on [a, b]: the nodes, the first
differentiation matrix, the Gram and its Cholesky factor are built once
per N on [-1, 1] (`_reference_grid`) and scaled to [a, b] by each
`make_grid` call.  The right factors D_j R_ref^-1 and the similarity
transforms R_ref D_j R_ref^-1 that the discretization in the
Gram-orthonormal coordinates reads are cached per (N, j) on first use
(`reference_diff_rinv`, `reference_diff_similar`), apart from any grid,
and so are the Chebyshev polynomials at the reference nodes and their
image under R_ref, which the symmetry defect's probe reads
(`reference_chebyshev`).  No grid holds D2..D4: the discretization reads
a j-th derivative through those factors alone, and its trace rows as the
endpoint rows of D1^j (`spectral.trace_rows`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


def _cheb_matrix(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard CGL nodes (descending in t) and differentiation matrix."""
    n = np.arange(N + 1)
    t = np.cos(np.pi * n / N)
    c = np.hstack((2.0, np.ones(N - 1), 2.0)) * (-1.0) ** n
    X = np.tile(t, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    return t, D


@dataclass(frozen=True)
class CollocationGrid:
    N: int
    a: float
    b: float
    nodes: np.ndarray          # ascending, nodes[0] = a, nodes[-1] = b
    D1: np.ndarray             # differentiates once
    gram: np.ndarray           # exact L2 Gram of the nodal interpolants
    gram_factor: np.ndarray    # upper R_ref with gram = h R_ref^T R_ref, read-only

    @property
    def h(self) -> float:
        """Half the interval length: u = (a + b)/2 + h t maps [-1, 1] onto [a, b]."""
        return (self.b - self.a) / 2


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=4)
def _reference_grid(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ascending CGL nodes t, d/dt, the exact interpolant Gram on [-1, 1] and
    its upper Cholesky factor R_ref (gram = R_ref^T R_ref), read-only."""
    t, Dt = _cheb_matrix(N)
    t, D1 = -t, -Dt
    # exact interpolant Gram via Gauss-Legendre resampling (degree 2N needs N+1 points)
    gx, gw = np.polynomial.legendre.leggauss(N + 1)
    bary = np.ones(N + 1)
    bary[0] = bary[-1] = 0.5
    bary *= (-1.0) ** np.arange(N + 1)
    diff = gx[:, None] - t[None, :]
    exact_hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        C = bary[None, :] / diff
        E = C / C.sum(axis=1)[:, None]
    if exact_hit.any():
        E[exact_hit.any(axis=1)] = 0.0
        E[exact_hit] = 1.0
    gram = E.T @ (gw[:, None] * E)
    gram = 0.5 * (gram + gram.T)
    R_ref = np.linalg.cholesky(gram).T
    for m in (t, D1, gram, R_ref):
        m.flags.writeable = False
    return t, D1, gram, R_ref


def _diff_rinv(order: int, D1: np.ndarray, R_ref: np.ndarray) -> np.ndarray:
    """D_order R_ref^-1 on [-1, 1]: d/dt to the power, D_(j+1) = D_j D1, then one triangular right solve."""
    import scipy.linalg  # the CLI imports this module; its algebra commands never load scipy

    D = np.eye(len(D1)) if order == 0 else D1
    for _ in range(order - 1):
        D = D @ D1
    return scipy.linalg.solve_triangular(R_ref, D.T, trans="T").T


# four grid sizes of orders 0..4, as `_reference_grid` keeps four sizes
@functools.lru_cache(maxsize=20)
def reference_diff_rinv(N: int, order: int) -> np.ndarray:
    """(D_order R_ref^-1) on [-1, 1], read-only and shared by every grid of this N.

    d/du = d/dt / h, so a grid's D_order R_ref^-1 is h^-order times it.
    """
    _, D1, _, R_ref = _reference_grid(N)
    return _read_only(_diff_rinv(order, D1, R_ref))


@functools.lru_cache(maxsize=20)
def reference_diff_similar(N: int, order: int) -> np.ndarray:
    """(R_ref D_order R_ref^-1) on [-1, 1], read-only and shared by every grid of this N.

    A constant coefficient commutes with R_ref, so a constant-coefficient
    term of the operator in the Gram-orthonormal coordinates is a scalar
    times this.  Built as R_ref (D_order R_ref^-1), without keeping the
    right factor.
    """
    _, D1, _, R_ref = _reference_grid(N)
    return _read_only(R_ref @ _diff_rinv(order, D1, R_ref))


@functools.lru_cache(maxsize=4)
def reference_chebyshev(N: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """T_0..T_degree at the reference nodes t, and R_ref times them, read-only.

    The probe columns of the symmetry defect on any grid of this N are
    these polynomials of t = (2u - a - b)/(b - a), so their image under
    the Gram factor is sqrt(h) times the second array.
    """
    t, _, _, R_ref = _reference_grid(N)
    V = np.polynomial.chebyshev.chebvander(t, degree)
    return _read_only(V), _read_only(R_ref @ V)


def make_grid(N: int, a: float, b: float) -> CollocationGrid:
    """The CGL grid of `_reference_grid(N)` under u = (a + b)/2 + h t, h = (b - a)/2.

    d/du = d/dt / h and du = h dt, so D1 and the Gram are the reference
    ones scaled by 1/h and h.  The Gram's factor is the reference one,
    shared: gram = h R_ref^T R_ref.
    """
    if N < 8:
        raise ValueError("grid too coarse; need N >= 8")
    if not a < b:
        raise ValueError("need a < b")
    t, D1_ref, gram_ref, R_ref = _reference_grid(N)
    h = (np.float64(b) - np.float64(a)) / 2
    nodes = (a + b) / 2.0 + t * h
    nodes[0], nodes[-1] = a, b
    return CollocationGrid(N, float(a), float(b), nodes, D1_ref * (1 / h), h * gram_ref, R_ref)
