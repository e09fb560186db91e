"""Extended-space machinery: W, B, Omega, and boundary conditions as rows.

Vectors of the extended boundary space are stacked as (trace coords, W
coords) in C^(2d+k), with W kept in *standard* coordinates and its inner
product carried by an explicit Gram matrix G: <a, b>_W = b* G a.  Sets of
such vectors are arrays with one vector per row: the k x 2d partial GKN
traces T, and the candidates, count x (2d+k).  The columns of Xi are the
G-orthonormal basis against which the coupling map Omega is expanded,
Omega(tr x) = Xi (conj(T) S tr x), S the boundary form of the expression.

The extended skew form on C^(2d+k) is then

    F_ext((x,a),(y,b)) = y* S x - b* G Omega x + (Omega y)* G a,

whose matrix F_ext is [[S, Omega* G], [-G Omega, 0]].  Its radical is
exactly M_min, the span of the pairs (t_j, xi_j), held as the
(2d+k) x k array whose columns they are; quotienting by it leaves a
nondegenerate form of dimension 2 * def, the finite shadow of the
boundary space of the extended minimal operator.  `build_model` takes
that quotient once (`symplectic.quotient_by`) and keeps it on the model
with the measured radical residual.

The boundary conditions of a GKN set {(x_j, a_j)} are plain rows too,
(x, a) -> F_ext((x, a), (x_j, a_j)), one per candidate; their canonical
form (`rref`) and rendered equalities are taken only where read.  A
constraint set is certified self-adjoint when the nullspace of its rows
is a maximal isotropic subspace of F_ext: dimension def + dim W, with
F_ext vanishing on it.  That is the pull-back of a complete Lagrangian of
the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import symplectic as sym
from .expressions import (
    EXPRESSION_KINDS,
    DiffExpr,
    ExpressionError,
    boundary_form,
)

TOL_BUILD = 1e-12
TOL_PIVOT = 1e-12


class ModelError(sym.GknError):
    """Rejected extension-model input."""


@dataclass(frozen=True)
class ExtensionSpace:
    """Finite-dimensional W with Gram matrix G and G-orthonormal basis Xi."""

    k: int
    G: np.ndarray
    Xi: np.ndarray = None

    def __post_init__(self):
        G = np.asarray(self.G, dtype=complex).reshape(self.k, self.k)
        # the gates below compare false on inf and nan, so a G that overflowed would pass them
        if not np.isfinite(G).all():
            raise ModelError(
                f"Gram matrix G has an entry that is not finite (max|G| = {np.abs(G).max():.3e})"
            )
        if np.abs(G - G.conj().T).max(initial=0.0) > TOL_BUILD * (1 + np.abs(G).max(initial=0.0)):
            raise ModelError("Gram matrix must be Hermitian")
        if np.linalg.eigvalsh(G).min(initial=np.inf) <= 0:
            raise ModelError("Gram matrix must be positive definite")
        object.__setattr__(self, "G", G)
        if self.Xi is None:
            # G = L L*  =>  columns of L^{-*} are G-orthonormal
            Xi = np.linalg.inv(np.linalg.cholesky(G)).conj().T
        else:
            Xi = np.asarray(self.Xi, dtype=complex).reshape(self.k, self.k)
        object.__setattr__(self, "Xi", Xi)
        resid = np.abs(Xi.conj().T @ G @ Xi - np.eye(self.k)).max(initial=0.0)
        if resid > 1e-10:
            raise ModelError(f"Xi is not G-orthonormal (residual {resid:.3e})")


@dataclass(frozen=True)
class ExtendedModel:
    expr: DiffExpr
    S: np.ndarray              # 2d x 2d, the boundary form of expr
    W: ExtensionSpace
    B: np.ndarray              # k x k, self-adjoint for the W Gram
    T: np.ndarray              # k x 2d, the partial GKN traces as rows
    Omega: np.ndarray          # k x 2d, acts on trace coordinates
    F_ext: np.ndarray          # (2d + k) x (2d + k), the extended form
    M_min: np.ndarray          # (2d + k) x k, the pairs (t_j, xi_j) as columns
    quotient_form: np.ndarray  # 2 def x 2 def, F_ext modulo M_min (`symplectic.quotient_by`)
    radical_residual: float    # how far M_min is from the radical of F_ext, relative

    @property
    def trace_dim(self) -> int:
        return self.S.shape[0]

    @property
    def k(self) -> int:
        return self.W.k

    @property
    def ambient_dim(self) -> int:
        return self.trace_dim + self.k

    @property
    def deficiency(self) -> int:
        return self.expr.deficiency

    def labels(self) -> tuple[str, ...]:
        return self.expr.labels() + tuple(f"a_W[{j+1}]" for j in range(self.k))


def coupling_scale(S: np.ndarray, T: np.ndarray) -> float:
    """1 + max|S| (1 + max|T|)^2, the size of the form on the partial GKN traces T."""
    return 1.0 + np.abs(S).max(initial=0.0) * (1 + np.abs(T).max(initial=0.0)) ** 2


def build_model(expr: DiffExpr, W: ExtensionSpace, B, T) -> ExtendedModel:
    """Assemble the boundary form, Omega, the extended form, and the minimal pairs.

    B is k x k and T is k x 2d, one partial GKN trace per row (k = dim W;
    empty lists for k = 0).  Rejects inputs violating the construction's
    standing assumptions: dim W <= def(T0), |T| = dim W, T independent with
    pairwise vanishing boundary form, B self-adjoint for the W Gram, and
    the pairs (t_j, xi_j) numerically independent and inside the radical
    of F_ext, as the one quotient of F_ext by M_min taken here measures.
    """
    S = boundary_form(expr)
    td = S.shape[0]
    ndef = expr.deficiency
    if W.k > ndef:
        raise ModelError(
            f"dim W = {W.k} exceeds the deficiency index {ndef}; the "
            f"construction requires dim W <= def(T0)"
        )
    B, T = np.asarray(B, dtype=complex), np.asarray(T, dtype=complex)
    if len(T) != W.k:
        raise ModelError(f"partial GKN set has {len(T)} vectors, dim W = {W.k}")
    if W.k == B.size == 0:
        B, T = B.reshape(0, 0), T.reshape(0, td)
    if B.shape != (W.k, W.k):
        raise ModelError("B has wrong shape for W")
    GB = W.G @ B
    if not np.isfinite(GB).all():
        # an overflowed G B would pass the residual test below, inf and nan comparing false
        raise ModelError(
            f"G B has an entry that is not finite (max|G| = {np.abs(W.G).max():.3e}, "
            f"max|B| = {np.abs(B).max():.3e}), so B cannot be checked self-adjoint"
        )
    resid = np.abs(GB - GB.conj().T).max(initial=0.0)
    if resid > 1e-10 * (1 + np.abs(GB).max(initial=0.0)):
        raise ModelError(f"B is not self-adjoint for the W inner product (GB residual {resid:.3e})")

    if T.shape != (W.k, td):
        raise ModelError("partial GKN traces have wrong arity for this expression")
    if sym.matrix_rank(T) != W.k:
        # the rank is relative to the largest singular value, so rows of unequal scale
        # can read as dependent
        norms = np.linalg.norm(T, axis=1)
        if sym.matrix_rank(T / np.where(norms > 0, norms, 1.0)[:, None]) == W.k:
            shown = ", ".join(f"{v:.3e}" for v in norms)
            raise ModelError(
                f"partial GKN traces differ in scale by a factor {norms.max() / norms.min():.3e} "
                f"(row norms {shown}), against 1/TOL_RANK = {1 / sym.TOL_RANK:g}: their rank "
                f"reads short at that tolerance, though the normalised rows are independent"
            )
        raise ModelError("partial GKN traces are linearly dependent")
    vals = T.conj() @ S @ T.T
    bad = np.argwhere(np.abs(vals) > sym.TOL_FORM * coupling_scale(S, T))
    if bad.size:
        i, j = bad[0]
        raise ModelError(
            f"partial GKN set breaks the symmetry condition: "
            f"[t_{i+1}, t_{j+1}]_H = {vals[j, i]:.3e}"
        )

    Omega = W.Xi @ (T.conj() @ S)
    F_ext = np.block([[S, Omega.conj().T @ W.G], [-W.G @ Omega, np.zeros((W.k, W.k))]])
    F_ext = 0.5 * (F_ext - F_ext.conj().T)
    if not np.isfinite(F_ext).all():
        raise ModelError(
            f"the extended form overflows: its coupling block G Omega has an entry that is not "
            f"finite (max|G| = {np.abs(W.G).max():.3e}, max|Omega| = {np.abs(Omega).max():.3e})"
        )
    M_min = np.vstack([T.T, W.Xi])
    if sym.matrix_rank(M_min) < W.k:
        s = ", ".join(f"{v:.3e}" for v in np.linalg.svd(M_min, compute_uv=False))
        raise sym.SymplecticError(
            f"M_min, the basis of minimal pairs (t_j, xi_j), is numerically rank-deficient "
            f"at relative tolerance {sym.TOL_RANK:g}: singular values {s}"
        )

    # construction invariants, checked at build time
    resid = np.abs(Omega @ T.T).max(initial=0.0)
    if resid > TOL_BUILD * (1 + np.abs(Omega).max(initial=0.0)):
        raise ModelError(f"Omega does not annihilate the partial GKN set ({resid:.3e})")
    S_red, radical_resid = sym.quotient_by(F_ext, M_min)
    if radical_resid > sym.TOL_RADICAL:
        raise ModelError("minimal pairs (t_j, xi_j) escaped the radical of the extended form")
    return ExtendedModel(expr, S, W, B, T, Omega, F_ext, M_min, S_red, radical_resid)


def check_gkn_extended(model: ExtendedModel, candidates) -> sym.GknCheck:
    """GKN conditions for stacked (trace, W) rows modulo the minimal pairs; the count is def(T0)."""
    return sym.check_gkn_vectors(model.F_ext, model.M_min, candidates)


# ---------------------------------------------------------------------------
# boundary conditions


def rref(C: np.ndarray) -> np.ndarray:
    """Reduced row-echelon form with relative pivot tolerance TOL_PIVOT.

    Entries of the normalized rows at or under TOL_PIVOT times their
    largest (at least 1) are zeroed, so the scale of C does not matter.
    """
    R = np.array(C, dtype=complex)
    rows, cols = R.shape
    scale = np.abs(R).max(initial=0.0)
    if scale == 0:
        return R
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        piv = r + int(np.argmax(np.abs(R[r:, c])))
        if abs(R[piv, c]) <= TOL_PIVOT * scale:
            continue
        R[[r, piv]] = R[[piv, r]]
        R[r] = R[r] / R[r, c]
        for rr in range(rows):
            if rr != r and abs(R[rr, c]) > 0:
                R[rr] = R[rr] - R[rr, c] * R[r]
        pivots.append(c)
        r += 1
    # every entry of a row past the rank failed the pivot test
    R[r:] = 0.0
    R[np.abs(R) <= TOL_PIVOT * max(1.0, np.abs(R).max(initial=0.0))] = 0.0
    # pivot columns exactly canonical
    for i, c in enumerate(pivots):
        R[:, c] = 0.0
        R[i, c] = 1.0
    return R


def _fmt_coeff(z: complex) -> str:
    if abs(z.imag) <= 1e-12 * (1 + abs(z.real)):
        v = z.real
        if v == int(v):
            return str(int(v))
        return f"{v:.12g}"
    return f"({z.real:.12g}{z.imag:+.12g}i)"


def _fmt_terms(coeffs: np.ndarray, labels: Sequence[str]) -> str:
    parts = []
    for c, lab in zip(coeffs, labels):
        if c == 0:
            continue
        s = _fmt_coeff(c)
        if s == "1":
            parts.append(("+", lab))
        elif s == "-1":
            parts.append(("-", lab))
        elif s.startswith("-"):
            parts.append(("-", f"{s[1:]}*{lab}"))
        else:
            parts.append(("+", f"{s}*{lab}"))
    if not parts:
        return "0"
    out = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    for sign, txt in parts[1:]:
        out += f" {sign} {txt}"
    return out


def render_rows(model: ExtendedModel, canonical: np.ndarray) -> tuple[str, ...]:
    """One equality per canonical row: solved for the W coordinate when one is present.

    Rows that couple a W coordinate render as `a_W[j] = <trace terms>`,
    mirroring how the worked examples state their conditions; pure trace
    rows render with the pivot on the left.
    """
    labels, trace_dim = model.labels(), model.trace_dim
    out = []
    for row in canonical:
        if np.abs(row).max(initial=0.0) == 0:
            out.append("0 = 0 (degenerate row)")
            continue
        w_idx = [j for j in range(trace_dim, len(row)) if row[j] != 0]
        if w_idx:
            j = w_idx[0]
        else:
            j = int(np.flatnonzero(row)[0])
        rest = -row / row[j]
        rest[j] = 0.0
        out.append(f"{labels[j]} = {_fmt_terms(rest, labels)}")
    return tuple(out)


def constraint_rows(model: ExtendedModel, candidates) -> np.ndarray:
    """Row j is (x,a) -> F_ext((x,a), (x_j,a_j)), (x_j,a_j) the j-th candidate row."""
    return np.asarray(candidates, dtype=complex).conj() @ model.F_ext


def derive_boundary_conditions(model: ExtendedModel, candidates) -> np.ndarray:
    """The constraint rows of a GKN set: row j is (x,a) -> F_ext((x,a), (x_j,a_j)).

    The candidates must pass `check_gkn_extended`; the rows of a valid GKN
    set are automatically independent, so rows of numerical rank (at
    relative tolerance TOL_PIVOT) below def(T0) are reported as an
    internal inconsistency.
    """
    report = check_gkn_extended(model, candidates)
    if not report.ok:
        raise ModelError(
            f"candidates are not a GKN set for the extended minimal operator: {report}"
        )
    rows = constraint_rows(model, candidates)
    rank = sym.matrix_rank(rows, TOL_PIVOT)
    if rank != model.deficiency:
        raise ModelError(
            f"internal inconsistency: derived constraints have rank {rank}, "
            f"expected {model.deficiency}"
        )
    return rows


def verify_self_adjoint_domain(model: ExtendedModel, rows: np.ndarray) -> bool:
    """Does the constrained domain correspond to a self-adjoint restriction?

    By the GKN-EM theorem the self-adjoint restrictions are the complete
    Lagrangians of F_ext modulo the minimal pairs.  Pulled back to
    C^(2d+k) they are the maximal isotropic subspaces of F_ext, so the
    nullspace N of the rows must have def + dim W columns and N* F_ext N
    must vanish.  Nothing more is needed because `build_model` makes the
    radical of F_ext exactly M_min (T is independent and isotropic, S is
    nondegenerate, G > 0): the quotient is nondegenerate of dimension
    2 def, so no isotropic subspace is larger than def + dim W, and one of
    that size contains the radical, since adding the radical keeps it
    isotropic.  Its image in the quotient is then a Lagrangian of
    dimension def, which is complete.
    """
    N = sym.nullspace(rows)
    if N.shape[1] != model.deficiency + model.k:
        return False
    F = model.F_ext
    resid = np.abs(N.conj().T @ F @ N).max(initial=0.0)
    return bool(resid <= sym.TOL_FORM * (1.0 + np.abs(F).max(initial=0.0)))


# ---------------------------------------------------------------------------
# JSON serialization


def _cmat_to_json(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def _cmat_from_json(data) -> np.ndarray:
    rows = [[complex(re, im) for re, im in row] for row in data]
    # an empty list is the 0 x 0 matrix of dim W = 0
    return np.array(rows, dtype=complex) if rows else np.zeros((0, 0), dtype=complex)


def _cvec_from_json(data, length: int, name: str) -> np.ndarray:
    """A flat [re, im, ...] list of `length` complex numbers; `name` names it in a refusal."""
    if not isinstance(data, list) or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) for x in data
    ):
        raise ModelError(f"{name} must be a flat list of numbers [re, im, ...]")
    if len(data) != 2 * length:
        raise ModelError(f"{name} holds {len(data)} numbers, not {2 * length}: [re, im] each")
    return np.array(data, dtype=float).view(complex)


def model_from_json(data: dict) -> ExtendedModel:
    kind = data["expression"]["kind"]
    if kind not in EXPRESSION_KINDS:
        raise ExpressionError(f"unknown expression kind {kind!r}")
    expr = EXPRESSION_KINDS[kind].from_json(data["expression"])
    G = _cmat_from_json(data["G"])
    Xi = _cmat_from_json(data["Xi"]) if "Xi" in data else None
    W = ExtensionSpace(G.shape[0], G, Xi)
    td = 2 * expr.traces_per_endpoint  # the trace count, without building the form twice
    T = [_cvec_from_json(t, td, "model.gkn_traces[]") for t in data["gkn_traces"]]
    return build_model(expr, W, _cmat_from_json(data["B"]), T)
