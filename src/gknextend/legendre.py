"""Exact verification of the fourth-order point-mass example.

Everything here runs in rational arithmetic.  The expression keeps
polynomial degree, so on the monomials u^0..u^n it is an upper-triangular
matrix L, read off `coefficient_polys()`.  Its diagonal holds the
eigenvalues lambda_n = n(n+1)(n^2 + n + 4A - 2), strictly increasing for
A > 0, so each monic eigenpolynomial P_n is unique and comes from
back-substitution in (L - lambda_n) p = 0.

The measure is Lebesgue measure on [-1, 1] plus atoms of weight 1/A at both
endpoints.  Its moments m_k = int u^k du + ((-1)^k + 1)/A give the Hankel
form <p, q> = sum_ij p_i m_(i+j) q_j, the extended-space inner product of
(p, (p(-1), p(1))) and (q, (q(-1), q(1))).  Eigenvectors of a symmetric
operator in H + W with distinct eigenvalues are orthogonal, so the
orthogonality of the P_n is a real check, as are the eigenvalue,
boundary-identity and extended eigen-relation checks: exact identities, not
tolerance claims.

Sign convention of the boundary identity: evaluating the expression at the
endpoints (where the top coefficients vanish) gives

    +8A P'(1)  = lambda_n P(1)      and      -8A P'(-1) = lambda_n P(-1),

i.e. matched signs at u = +1 and opposite at u = -1.  This pairing is
fixed empirically by P_1 = u and is asserted exactly for all n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import perm

from .expressions import DiffExpr, LegendreType
from .polynomials import Poly
from .symplectic import GknError

N_MAX = 24  # coefficient bit-growth guard


class LegendreError(GknError):
    pass


@dataclass(frozen=True)
class LTBasis:
    """Monic polynomials P_0..P_n with deg P_n = n."""

    A: Fraction
    polys: tuple[Poly, ...]

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, n: int) -> Poly:
        return self.polys[n]


def lt_eigenvalue(n: int, A: Fraction) -> Fraction:
    """n(n+1)(n^2 + n + 4A - 2)."""
    A = Fraction(A)
    return Fraction(n) * (n + 1) * (Fraction(n) * n + n + 4 * A - 2)


def expression_matrix(expr: DiffExpr, n_max: int) -> list[list]:
    """L with l(u^j) = sum_i L[i][j] u^i for j <= n_max, upper triangular.

    Column j is sum_k c_k(u) j!/(j-k)! u^(j-k) over the coefficient
    polynomials c_k, so no polynomial products are formed.  Raises if the
    expression maps some u^j to a polynomial of higher degree.
    """
    terms = expr.coefficient_polys()
    L = [[Fraction(0)] * (n_max + 1) for _ in range(n_max + 1)]
    for j in range(n_max + 1):
        col: dict[int, object] = {}
        for k, c in terms:
            if k > j:
                continue  # the k-th derivative of u^j vanishes
            fall = perm(j, k)
            for i, ci in enumerate(c.coeffs):
                col[i + j - k] = col.get(i + j - k, 0) + ci * fall
        for i, v in col.items():
            if i > j and v != 0:
                raise LegendreError(f"the expression maps u^{j} to degree {i}")
            if i <= j:
                L[i][j] = v
    return L


def operator_basis(A: Fraction, n_max: int) -> LTBasis:
    """Monic eigenpolynomials P_0..P_n_max of the point-mass expression.

    P_n solves (L - lambda_n) p = 0 with p_n = 1 by back-substitution; the
    pivots L[i][i] - lambda_n = lambda_i - lambda_n are nonzero because the
    eigenvalues strictly increase for A > 0.
    """
    A = Fraction(A)
    if n_max > N_MAX:
        raise LegendreError(f"n_max capped at {N_MAX}")
    L = expression_matrix(LegendreType(A), n_max)
    polys = []
    for n in range(n_max + 1):
        lam = lt_eigenvalue(n, A)
        p = [Fraction(0)] * n + [Fraction(1)]
        for i in range(n - 1, -1, -1):
            s = sum(L[i][j] * p[j] for j in range(i + 1, n + 1) if L[i][j])
            p[i] = s / (lam - L[i][i])
        polys.append(Poly(p))
    return LTBasis(A, tuple(polys))


def _moments(A: Fraction, count: int) -> list[Fraction]:
    """m_0..m_(count-1) of Lebesgue measure on [-1, 1] plus 1/A at each endpoint."""
    A = Fraction(A)
    return [
        Fraction(2, k + 1) + 2 / A if k % 2 == 0 else Fraction(0)
        for k in range(count)
    ]


def extended_gram(basis: LTBasis) -> list[list[Fraction]]:
    """Exact Gram matrix of the eigenvectors (P_n, (P_n(-1), P_n(1))) in H + W.

    The W Gram carries the atom weights, so the extended inner product is
    the Hankel moment form.  h_m = H p_m is formed once per m, and each
    entry is then one dot product <P_m, P_n> = p_n . h_m.
    """
    size = len(basis)
    degree = max(p.degree for p in basis.polys)
    mom = _moments(basis.A, 2 * degree + 1)
    G = [[Fraction(0)] * size for _ in range(size)]
    for m, pm in enumerate(basis.polys):
        h = [
            sum(c * mom[i + j] for j, c in enumerate(pm.coeffs) if c and mom[i + j])
            for i in range(degree + 1)
        ]
        for n in range(m, size):
            G[m][n] = G[n][m] = sum(c * hi for c, hi in zip(basis[n].coeffs, h) if c and hi)
    return G


def eigen_residual(basis: LTBasis, n: int, image: Poly) -> Poly:
    """image - lambda_n P_n, where image = l P_n; zero iff P_n is an exact eigenvector."""
    return image - basis[n].scale(lt_eigenvalue(n, basis.A))


def boundary_identity_check(basis: LTBasis, n: int) -> bool:
    """Exact identity 8A P'(1) = lambda_n P(1) and -8A P'(-1) = lambda_n P(-1)."""
    A = basis.A
    p = basis[n]
    dp = p.deriv()
    lam = lt_eigenvalue(n, A)
    one = Fraction(1)
    return (8 * A * dp(one) == lam * p(one)) and (-8 * A * dp(-one) == lam * p(-one))


def jump_action(
    A: Fraction, p: Poly, a: tuple[Fraction, Fraction], B=None
) -> tuple[Fraction, Fraction]:
    """W component B a - Omega p of the extended action (l p, B a - Omega p).

    Omega p = (8A p'(-1), -8A p'(1)) composes to rational values, so the
    whole action stays in exact arithmetic; its H component is l p.  B is
    a 2x2 rational matrix (None means zero).
    """
    A = Fraction(A)
    dp = p.deriv()
    omega = (8 * A * dp(Fraction(-1)), -8 * A * dp(Fraction(1)))
    if B is None:
        ba = (Fraction(0), Fraction(0))
    else:
        ba = (
            B[0][0] * a[0] + B[0][1] * a[1],
            B[1][0] * a[0] + B[1][1] * a[1],
        )
    return (ba[0] - omega[0], ba[1] - omega[1])


def extended_eigen_check(basis: LTBasis, n: int, image: Poly, B=None) -> bool:
    """Is (P_n, (P_n(-1), P_n(1))) an exact eigenvector of the extended action?

    `image` is l P_n, the H component of the action.
    """
    p = basis[n]
    a = (p(Fraction(-1)), p(Fraction(1)))
    w = jump_action(basis.A, p, a, B)
    lam = lt_eigenvalue(n, basis.A)
    return (
        eigen_residual(basis, n, image).is_zero()
        and w[0] == lam * a[0]
        and w[1] == lam * a[1]
    )
