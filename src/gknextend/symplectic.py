"""Finite-dimensional complex symplectic linear algebra on plain arrays.

A skew-Hermitian form on C^m is its m x m matrix S, evaluated as
``form(x, y) = y* S x`` (linear in the first slot, conjugate-linear in the
second), so that ``form(x, y) == -conj(form(y, x))``.  A subspace is an
m x r basis array, one vector per column.  Rank and degeneracy decisions
go through SVD with relative thresholds; whether a subspace is isotropic
or inside the radical is read off the form on an orthonormal basis of it,
never off basis identity.  The quotient by a subspace comes from one
complete QR of its basis (`quotient_by`), which returns the quotient form
and the radical residual: the leading columns of its Q factor measure
how far the subspace is from the radical, and the trailing ones carry the
quotient form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_SKEW = 1e-12
TOL_RANK = 1e-8
TOL_FORM = 1e-10
TOL_RADICAL = 1e-10


# every module with a domain error imports this one, so their common base lives here
class GknError(ValueError):
    """Base of the package's domain errors: input the verifier refuses."""


class SymplecticError(GknError):
    """Violated precondition or invariant in symplectic algebra."""


# ---------------------------------------------------------------------------
# basic numerical subspace machinery


def _rank(s: np.ndarray, rtol: float) -> int:
    """Numerical rank from singular values: those above rtol * s_max."""
    return int(np.sum(s > rtol * s.max(initial=0.0)))


def nullspace(A: np.ndarray, rtol: float = TOL_RANK) -> np.ndarray:
    """Orthonormal basis of the nullspace of A (columns), real when A is."""
    A = np.atleast_2d(np.asarray(A, dtype=complex if np.iscomplexobj(A) else float))
    _, s, vh = np.linalg.svd(A)
    return vh[_rank(s, rtol):].conj().T


def matrix_rank(A: np.ndarray, rtol: float = TOL_RANK) -> int:
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    return _rank(np.linalg.svd(A, compute_uv=False), rtol)


def nondegenerate(S: np.ndarray) -> bool:
    """Full numerical rank at TOL_RANK; the form on the zero space counts as degenerate."""
    return 0 < matrix_rank(S) == S.shape[0]


# ---------------------------------------------------------------------------
# form operations


def quotient_by(S: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, float]:
    """The quotient of S by the columns of M, from one complete QR of M.

    With M = [Q_M Q_c] R, the first r columns Q_M are an orthonormal basis
    of the columns of M and the rest, Q_c, one of their orthogonal
    complement.  Returns the quotient form S_red = Q_c* S Q_c (made
    skew-Hermitian exactly) and the radical residual
    max|S Q_M| / (1 + max|S|).  The quotient is well defined only when
    the columns of M lie inside the radical of S, that is when the
    residual is at most TOL_RADICAL; the caller decides.  M must have
    full column rank.
    """
    r = M.shape[1]
    Q = np.linalg.qr(M, mode="complete")[0]
    resid = float(np.abs(S @ Q[:, :r]).max(initial=0.0) / (1.0 + np.abs(S).max(initial=0.0)))
    Q_c = Q[:, r:]
    S_red = Q_c.conj().T @ S @ Q_c
    return 0.5 * (S_red - S_red.conj().T), resid


@dataclass(frozen=True)
class GknCheck:
    independent_mod_M: bool
    symmetric: bool
    count_ok: bool

    @property
    def ok(self) -> bool:
        return self.independent_mod_M and self.symmetric and self.count_ok


def check_gkn_vectors(S: np.ndarray, M: np.ndarray, V) -> GknCheck:
    """Independence modulo the columns of M (joint rank), pairwise form vanishing, count = dim(S/M) / 2.

    V holds one vector per row.  The form on every pair is one Gram matrix
    V* S V; entry (i, j) is form(v_j, v_i), held to TOL_FORM * scale *
    (1 + |v_i|)(1 + |v_j|).
    """
    m, r = M.shape
    V = np.asarray(V, dtype=complex)
    if V.size and V.shape[-1] != m:
        raise SymplecticError("candidate vector has wrong ambient dimension")
    Vm = V.reshape(-1, m).T
    independent = matrix_rank(np.hstack([M, Vm])) == r + Vm.shape[1]
    scale = 1.0 + np.abs(S).max(initial=0.0)
    norms = 1.0 + np.linalg.norm(Vm, axis=0)
    vals = np.abs(Vm.conj().T @ S @ Vm)
    symmetric = bool(np.all(vals <= TOL_FORM * scale * np.outer(norms, norms)))
    return GknCheck(independent, symmetric, 2 * Vm.shape[1] == m - r)
