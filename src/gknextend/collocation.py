"""Chebyshev-Gauss-Lobatto collocation grids on [a, b].

Nodes are stored ascending (left endpoint first).  The grid carries the
exact L2 Gram matrix of the nodal interpolants, computed by resampling to
a Gauss-Legendre rule that integrates degree-2N polynomials exactly.  The
exact Gram is what the discrete operators use for inner products: with it,
integration by parts for polynomial interpolants is an identity rather
than a quadrature approximation, which is what keeps the symmetry defect
of honestly self-adjoint assemblies at rounding level.
"""

from __future__ import annotations

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
    D: tuple                   # D[j] differentiates j+1 times (j = 0..3)
    gram: np.ndarray           # exact L2 Gram of the nodal interpolants

    def diff(self, order: int) -> np.ndarray:
        if not 0 <= order <= 4:
            raise ValueError("differentiation matrices available for orders 0..4")
        return self.D[order - 1] if order else np.eye(self.N + 1)


def make_grid(N: int, a: float, b: float) -> CollocationGrid:
    if N < 8:
        raise ValueError("grid too coarse; need N >= 8")
    if not a < b:
        raise ValueError("need a < b")
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
    return CollocationGrid(N, float(a), float(b), nodes, (D1, D2, D3, D4), gram)
