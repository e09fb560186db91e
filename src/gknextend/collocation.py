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
`make_grid` call.
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

    @functools.cached_property
    def _powers(self) -> list:
        return [self.D1]

    def diff(self, order: int) -> np.ndarray:
        """Differentiation `order` times; D2..D4 are built on first use, as D_(j+1) = D_j D1."""
        if not 0 <= order <= 4:
            raise ValueError("differentiation matrices available for orders 0..4")
        if not order:
            return np.eye(self.N + 1)
        powers = self._powers
        while len(powers) < order:
            powers.append(powers[-1] @ self.D1)
        return powers[order - 1]


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


def make_grid(N: int, a: float, b: float) -> CollocationGrid:
    """The CGL grid of `_reference_grid(N)` under u = (a + b)/2 + h t, h = (b - a)/2.

    d/du = d/dt / h and du = h dt, so D1 and the Gram are the reference
    ones scaled by 1/h and h; `diff` builds D2..D4 from D1 when an
    expression of that order first asks for them.  The Gram's factor is
    the reference one, shared: gram = h R_ref^T R_ref.
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
