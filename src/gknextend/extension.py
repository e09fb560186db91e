"""Extended-space machinery: W, B, Omega, and boundary conditions.

Vectors of the extended boundary space are stacked as (trace coords, W
coords) in C^(2d+k), with W kept in *standard* coordinates and its inner
product carried by an explicit Gram matrix G: <a, b>_W = b* G a.  Sets of
such vectors are arrays with one vector per row: the k x 2d partial GKN
traces T, and the candidates, count x (2d+k).  The columns of Xi are the
G-orthonormal basis against which the coupling map Omega is expanded,
Omega(tr x) = Xi (conj(T) S tr x).

The extended skew form on C^(2d+k) is then

    F_ext((x,a),(y,b)) = y* S x - b* G Omega x + (Omega y)* G a,

whose matrix is [[S, Omega* G], [-G Omega, 0]].  Its radical is exactly
the span of the pairs (t_j, xi_j); quotienting by it leaves a
nondegenerate form of dimension 2 * def, the finite shadow of the
boundary space of the extended minimal operator.  A constraint set is
certified self-adjoint when its nullspace is a maximal isotropic subspace
of F_ext: dimension def + dim W, with F_ext vanishing on it.  That is the
pull-back of a complete Lagrangian of the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import symplectic as sym
from .expressions import (
    EXPRESSION_KINDS,
    BoundaryForm,
    DiffExpr,
    ExpSolution,
    ExpressionError,
    boundary_form,
)
from .symplectic import SkewForm, Subspace

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
    boundary: BoundaryForm
    W: ExtensionSpace
    B: np.ndarray              # k x k, self-adjoint for the W Gram
    T: np.ndarray              # k x 2d, the partial GKN traces as rows
    Omega: np.ndarray          # k x 2d, acts on trace coordinates
    F_ext: SkewForm            # on C^(2d + k)
    M_min: Subspace            # span{(t_j, xi_j)}

    @property
    def expr(self) -> DiffExpr:
        return self.boundary.expr

    @property
    def trace_dim(self) -> int:
        return self.boundary.arity

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
        return self.boundary.labels + tuple(f"a_W[{j+1}]" for j in range(self.k))


def coupling_scale(S: np.ndarray, T: np.ndarray) -> float:
    """1 + max|S| (1 + max|T|)^2, the size of the form on the partial GKN traces T."""
    return 1.0 + np.abs(S).max(initial=0.0) * (1 + np.abs(T).max(initial=0.0)) ** 2


def build_model(bf: BoundaryForm, W: ExtensionSpace, B, T) -> ExtendedModel:
    """Assemble Omega, the extended form, and the minimal-pair span.

    B is k x k and T is k x 2d, one partial GKN trace per row (k = dim W;
    empty lists for k = 0).  Rejects inputs violating the construction's
    standing assumptions: dim W <= def(T0), |T| = dim W, T independent with
    pairwise vanishing boundary form, B self-adjoint for the W Gram.
    """
    expr = bf.expr
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
        B, T = B.reshape(0, 0), T.reshape(0, bf.arity)
    if B.shape != (W.k, W.k):
        raise ModelError("B has wrong shape for W")
    GB = W.G @ B
    resid = np.abs(GB - GB.conj().T).max(initial=0.0)
    if resid > 1e-10 * (1 + np.abs(GB).max(initial=0.0)):
        raise ModelError(f"B is not self-adjoint for the W inner product (GB residual {resid:.3e})")

    S = bf.form.matrix
    if T.shape != (W.k, bf.arity):
        raise ModelError("partial GKN traces have wrong arity for this expression")
    if sym.matrix_rank(T) != W.k:
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
    F = np.block([[S, Omega.conj().T @ W.G], [-W.G @ Omega, np.zeros((W.k, W.k))]])
    F = 0.5 * (F - F.conj().T)
    F_ext = SkewForm(F, nondegenerate=False)
    M_min = Subspace(bf.arity + W.k, np.vstack([T.T, W.Xi]))

    model = ExtendedModel(bf, W, B, T, Omega, F_ext, M_min)

    # construction invariants, checked at build time
    resid = np.abs(Omega @ T.T).max(initial=0.0)
    if resid > TOL_BUILD * (1 + np.abs(Omega).max(initial=0.0)):
        raise ModelError(f"Omega does not annihilate the partial GKN set ({resid:.3e})")
    if sym.radical_residual(F_ext, M_min) > sym.TOL_RADICAL:
        raise ModelError("minimal pairs (t_j, xi_j) escaped the radical of the extended form")
    return model


def check_gkn_extended(model: ExtendedModel, candidates) -> sym.GknCheck:
    """GKN conditions for stacked (trace, W) rows modulo the minimal pairs; the count is def(T0)."""
    return sym.check_gkn_vectors(model.F_ext, model.M_min, candidates)


# ---------------------------------------------------------------------------
# boundary conditions


def rref(C: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form with relative pivot tolerance TOL_PIVOT."""
    R = np.array(C, dtype=complex)
    rows, cols = R.shape
    scale = np.abs(R).max(initial=0.0)
    if scale == 0:
        return R, []
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
    R[np.abs(R) <= TOL_PIVOT * max(1.0, scale)] = 0.0
    # pivot columns exactly canonical
    for i, c in enumerate(pivots):
        R[:, c] = 0.0
        R[i, c] = 1.0
    return R, pivots


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


@dataclass(frozen=True)
class BoundaryConditions:
    """Constraint rows on (trace, W) vectors with a canonical reduced form."""

    C: np.ndarray
    canonical: np.ndarray
    human_readable: tuple[str, ...]


def render_rows(canonical: np.ndarray, labels: Sequence[str], trace_dim: int) -> tuple[str, ...]:
    """One equality per row: solved for the W coordinate when one is present.

    Rows that couple a W coordinate render as `a_W[j] = <trace terms>`,
    mirroring how the worked examples state their conditions; pure trace
    rows render with the pivot on the left.
    """
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
    return np.asarray(candidates, dtype=complex).conj() @ model.F_ext.matrix


def derive_boundary_conditions(model: ExtendedModel, candidates) -> BoundaryConditions:
    """Constraint matrix whose row j is (x,a) -> F_ext((x,a), (x_j,a_j)).

    The candidates must pass `check_gkn_extended`; the rows of a valid GKN
    set are automatically independent, so a rank-deficient result is
    reported as an internal inconsistency.
    """
    report = check_gkn_extended(model, candidates)
    if not report.ok:
        raise ModelError(
            f"candidates are not a GKN set for the extended minimal operator: {report}"
        )
    C = constraint_rows(model, candidates)
    canonical, pivots = rref(C)
    if len(pivots) != model.deficiency:
        raise ModelError(
            f"internal inconsistency: derived constraints have rank {len(pivots)}, "
            f"expected {model.deficiency}"
        )
    rendered = render_rows(canonical, model.labels(), model.trace_dim)
    return BoundaryConditions(C, canonical, rendered)


def boundary_conditions_from_rows(model: ExtendedModel, rows: np.ndarray) -> BoundaryConditions:
    """Wrap explicit constraint rows (no GKN provenance implied)."""
    C = np.atleast_2d(np.asarray(rows, dtype=complex))
    canonical, _ = rref(C)
    rendered = render_rows(canonical, model.labels(), model.trace_dim)
    return BoundaryConditions(C, canonical, rendered)


def verify_self_adjoint_domain(model: ExtendedModel, bc: BoundaryConditions) -> bool:
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
    N = sym.nullspace(bc.C)
    if N.shape[1] != model.deficiency + model.k:
        return False
    F = model.F_ext.matrix
    resid = np.abs(N.conj().T @ F @ N).max(initial=0.0)
    return bool(resid <= sym.TOL_FORM * (1.0 + np.abs(F).max(initial=0.0)))


# ---------------------------------------------------------------------------
# deficiency vectors in the extended space


@dataclass(frozen=True)
class ExtendedDeficiencyVector:
    solution: ExpSolution
    a: np.ndarray
    sign: int


def extended_deficiency_vectors(model: ExtendedModel, sign: int) -> list[ExtendedDeficiencyVector]:
    """Pairs (x, a) with the extended maximal action equal to sign*i*(x, a).

    x runs over the closed-form classical deficiency solutions and
    a = (B - sign*i I)^{-1} Omega x; the W-side eigen-relation is checked
    at build time.
    """
    sols = model.expr.deficiency_solutions(sign)
    out = []
    eye = np.eye(model.k)
    for s in sols:
        om = model.Omega @ s.trace()
        a = np.linalg.solve(model.B - sign * 1j * eye, om)
        w_resid = np.abs(model.B @ a - om - sign * 1j * a).max(initial=0.0)
        if w_resid > 1e-10 * (1 + np.abs(om).max(initial=0.0)):
            raise ModelError(f"deficiency vector failed its eigen-relation ({w_resid:.3e})")
        out.append(ExtendedDeficiencyVector(s, a, sign))
    return out


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


def model_to_json(model: ExtendedModel) -> dict:
    return {
        "expression": model.expr.to_json(),
        "G": _cmat_to_json(model.W.G),
        "B": _cmat_to_json(model.B),
        "Xi": _cmat_to_json(model.W.Xi),
        "gkn_traces": [[x for z in t for x in (float(z.real), float(z.imag))] for t in model.T],
    }


def model_from_json(data: dict) -> ExtendedModel:
    kind = data["expression"]["kind"]
    if kind not in EXPRESSION_KINDS:
        raise ExpressionError(f"unknown expression kind {kind!r}")
    expr = EXPRESSION_KINDS[kind].from_json(data["expression"])
    bf = boundary_form(expr)
    G = _cmat_from_json(data["G"])
    Xi = _cmat_from_json(data["Xi"]) if "Xi" in data else None
    W = ExtensionSpace(G.shape[0], G, Xi)
    T = [_cvec_from_json(t, bf.arity, "model.gkn_traces[]") for t in data["gkn_traces"]]
    return build_model(bf, W, _cmat_from_json(data["B"]), T)


def bc_to_json(bc: BoundaryConditions) -> dict:
    return {
        "rows": _cmat_to_json(bc.C),
        "canonical": _cmat_to_json(bc.canonical),
        "conditions": list(bc.human_readable),
    }
