"""Finite-dimensional complex symplectic linear algebra.

A skew-Hermitian form on C^m is evaluated as ``form(x, y) = y* S x``
(linear in the first slot, conjugate-linear in the second), so that
``form(x, y) == -conj(form(y, x))``.  Rank and degeneracy decisions go
through SVD with relative thresholds; whether a subspace is isotropic or
inside the radical is read off the form on an orthonormal basis of it,
never off basis identity.
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


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    return m


@dataclass(frozen=True)
class SkewForm:
    """Skew-Hermitian sesquilinear form on C^m, optionally nondegenerate."""

    matrix: np.ndarray
    nondegenerate: bool = False

    def __post_init__(self):
        S = _as_matrix(self.matrix)
        if S.shape[0] != S.shape[1]:
            raise SymplecticError(f"form matrix must be square, got {S.shape}")
        object.__setattr__(self, "matrix", S)
        scale = 1.0 + np.abs(S).max(initial=0.0)
        skew = np.abs(S + S.conj().T).max(initial=0.0)
        if skew > TOL_SKEW * scale:
            raise SymplecticError(f"matrix is not skew-Hermitian: residual {skew:.3e}")
        if self.nondegenerate and self.dim > 0:
            sv = np.linalg.svd(S, compute_uv=False)
            if sv[-1] <= TOL_RANK * sv[0]:
                raise SymplecticError(
                    f"form flagged nondegenerate but smallest/largest singular "
                    f"value = {sv[-1]:.3e}/{sv[0]:.3e}"
                )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Subspace:
    """Subspace of C^m given by a full-column-rank basis matrix (m x r)."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        B = _as_matrix(self.basis)
        if B.size == 0:
            B = B.reshape(self.ambient_dim, 0)
        if B.shape[0] != self.ambient_dim:
            raise SymplecticError(
                f"basis has {B.shape[0]} rows, ambient dim is {self.ambient_dim}"
            )
        if B.shape[1] > self.ambient_dim:
            raise SymplecticError("more basis vectors than ambient dimension")
        if matrix_rank(B) < B.shape[1]:
            raise SymplecticError("basis is numerically rank-deficient")
        object.__setattr__(self, "basis", B)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def orthonormal(self) -> np.ndarray:
        q, _ = np.linalg.qr(self.basis)
        return q

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.zeros((ambient_dim, 0)))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.eye(ambient_dim))


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


def orth_complement(V: Subspace) -> np.ndarray:
    """Orthonormal basis of the Euclidean orthogonal complement."""
    return nullspace(V.orthonormal().conj().T)


# ---------------------------------------------------------------------------
# form operations


def radical_residual(F: SkewForm, M: Subspace) -> float:
    """max|S q| / (1 + max|S|) over an orthonormal basis q of M.

    M lies inside the radical of F when this is at most TOL_RADICAL.
    """
    if M.ambient_dim != F.dim:
        raise SymplecticError("subspace ambient dimension does not match form")
    scale = 1.0 + np.abs(F.matrix).max(initial=0.0)
    return float(np.abs(F.matrix @ M.orthonormal()).max(initial=0.0) / scale)


def quotient_by(F: SkewForm, M: Subspace) -> tuple[SkewForm, np.ndarray]:
    """Quotient form on an orthonormal complement basis of M.

    Requires M inside the radical of F (that is what makes the quotient
    well defined).  Returns the reduced form together with the complement
    basis Q (columns), so callers can push ambient vectors to quotient
    coordinates via Q* v.
    """
    resid = radical_residual(F, M)
    if resid > TOL_RADICAL:
        raise SymplecticError(
            f"subspace is not inside the radical: relative form residual {resid:.3e}"
        )
    Q = orth_complement(M)
    S_red = Q.conj().T @ F.matrix @ Q
    # clean rounding so the reduced matrix is skew-Hermitian to working precision
    S_red = 0.5 * (S_red - S_red.conj().T)
    # the form on the zero space counts as degenerate
    nondeg = 0 < matrix_rank(S_red) == S_red.shape[0]
    return SkewForm(S_red, nondegenerate=nondeg), Q


@dataclass(frozen=True)
class GknCheck:
    independent_mod_M: bool
    symmetric: bool
    count_ok: bool

    @property
    def ok(self) -> bool:
        return self.independent_mod_M and self.symmetric and self.count_ok


def check_gkn_vectors(F: SkewForm, M: Subspace, V) -> GknCheck:
    """Independence modulo M (joint rank), pairwise form vanishing, count = dim(F/M) / 2.

    V holds one vector per row.  The form on every pair is one Gram matrix
    V* S V; entry (i, j) is form(v_j, v_i), held to TOL_FORM * scale *
    (1 + |v_i|)(1 + |v_j|).
    """
    V = np.asarray(V, dtype=complex)
    if V.size and V.shape[-1] != F.dim:
        raise SymplecticError("candidate vector has wrong ambient dimension")
    Vm = V.reshape(-1, F.dim).T
    independent = matrix_rank(np.hstack([M.basis, Vm])) == M.dim + Vm.shape[1]
    scale = 1.0 + np.abs(F.matrix).max(initial=0.0)
    norms = 1.0 + np.linalg.norm(Vm, axis=0)
    vals = np.abs(Vm.conj().T @ F.matrix @ Vm)
    symmetric = bool(np.all(vals <= TOL_FORM * scale * np.outer(norms, norms)))
    return GknCheck(independent, symmetric, 2 * Vm.shape[1] == F.dim - M.dim)
