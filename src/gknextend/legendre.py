"""Exact verification of the fourth-order point-mass example.

Everything here runs in rational arithmetic: the measure is Lebesgue
measure on [-1, 1] plus atoms of weight 1/A at both endpoints, the basis
polynomials come from monic Gram-Schmidt under that measure, and the
eigenvalue, boundary-identity and extended eigen-relation checks are exact
identities, not tolerance claims.

Sign convention of the boundary identity: evaluating the expression at the
endpoints (where the top coefficients vanish) gives

    +8A P'(1)  = lambda_n P(1)      and      -8A P'(-1) = lambda_n P(-1),

i.e. matched signs at u = +1 and opposite at u = -1.  This pairing is
fixed empirically by P_1 = u and is asserted exactly for all n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expressions import LegendreType, apply_expr
from .polynomials import Poly
from .symplectic import GknError

N_MAX = 24  # coefficient bit-growth guard


class LegendreError(GknError):
    pass


def mu_inner(p: Poly, q: Poly, A: Fraction) -> Fraction:
    """<p, q> = integral over [-1,1] plus (p q)(+-1)/A, exactly."""
    A = Fraction(A)
    if not (p.is_exact() and q.is_exact()):
        raise LegendreError("mu_inner needs rational coefficients")
    pq = p * q
    return pq.integral(-1, 1) + (pq(Fraction(-1)) + pq(Fraction(1))) / A


@dataclass(frozen=True)
class LTBasis:
    """Monic polynomials P_0..P_n, pairwise mu-orthogonal, deg P_n = n."""

    A: Fraction
    polys: tuple[Poly, ...]

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, n: int) -> Poly:
        return self.polys[n]


def gram_schmidt(A: Fraction, n_max: int) -> LTBasis:
    """Monic orthogonal polynomials under the point-mass measure."""
    A = Fraction(A)
    if n_max > N_MAX:
        raise LegendreError(f"n_max capped at {N_MAX}")
    polys: list[Poly] = []
    norms: list[Fraction] = []
    for n in range(n_max + 1):
        p = Poly([Fraction(0)] * n + [Fraction(1)])  # u^n
        for m, pm in enumerate(polys):
            c = mu_inner(p, pm, A) / norms[m]
            p = p - pm.scale(c)
        polys.append(p)
        norms.append(mu_inner(p, p, A))
    return LTBasis(A, tuple(polys))


def lt_eigenvalue(n: int, A: Fraction) -> Fraction:
    """n(n+1)(n^2 + n + 4A - 2)."""
    A = Fraction(A)
    return Fraction(n) * (n + 1) * (Fraction(n) * n + n + 4 * A - 2)


def eigen_check(basis: LTBasis, n: int) -> Fraction:
    """Apply the expression to P_n and return the exact eigenvalue multiple.

    Raises (naming the offending coefficient) if the image is not an exact
    rational multiple of P_n.
    """
    expr = LegendreType(basis.A)
    p = basis[n]
    image = apply_expr(expr, p)
    lam = lt_eigenvalue(n, basis.A)
    resid = image - p.scale(lam)
    if not resid.is_zero():
        bad = next(i for i, c in enumerate(resid.coeffs) if c != 0)
        raise LegendreError(
            f"image of P_{n} is not lambda_{n} P_{n}: coefficient {bad} "
            f"differs by {resid.coeffs[bad]}"
        )
    return lam


def boundary_identity_check(basis: LTBasis, n: int) -> bool:
    """Exact identity 8A P'(1) = lambda_n P(1) and -8A P'(-1) = lambda_n P(-1)."""
    A = basis.A
    p = basis[n]
    dp = p.deriv()
    lam = lt_eigenvalue(n, A)
    one = Fraction(1)
    return (8 * A * dp(one) == lam * p(one)) and (-8 * A * dp(-one) == lam * p(-one))


def extended_maximal_action(
    basis_A: Fraction, p: Poly, a: tuple[Fraction, Fraction], B=None
) -> tuple[Poly, tuple[Fraction, Fraction]]:
    """Exact extended action (l p, B a - Omega p) for the jump-space model.

    Omega p = (8A p'(-1), -8A p'(1)) composes to rational values, so the
    whole action stays in exact arithmetic.  B is a 2x2 rational matrix
    (None means zero).
    """
    A = Fraction(basis_A)
    expr = LegendreType(A)
    dp = p.deriv()
    omega = (8 * A * dp(Fraction(-1)), -8 * A * dp(Fraction(1)))
    if B is None:
        ba = (Fraction(0), Fraction(0))
    else:
        ba = (
            B[0][0] * a[0] + B[0][1] * a[1],
            B[1][0] * a[0] + B[1][1] * a[1],
        )
    return apply_expr(expr, p), (ba[0] - omega[0], ba[1] - omega[1])


def extended_eigen_check(basis: LTBasis, n: int, B=None) -> bool:
    """Is (P_n, (P_n(-1), P_n(1))) an exact eigenvector of the extended action?"""
    p = basis[n]
    a = (p(Fraction(-1)), p(Fraction(1)))
    h, w = extended_maximal_action(basis.A, p, a, B)
    lam = lt_eigenvalue(n, basis.A)
    return (
        (h - p.scale(lam)).is_zero()
        and w[0] == lam * a[0]
        and w[1] == lam * a[1]
    )


def extended_inner(basis: LTBasis, m: int, n: int) -> Fraction:
    """Exact extended-space inner product of the polynomial eigenvectors.

    <(P_m, (P_m(-1), P_m(1))), (P_n, ...)> with the atom weights folded
    into the W Gram; by construction this equals mu_inner(P_m, P_n).
    """
    A = basis.A
    p, q = basis[m], basis[n]
    pq = p * q
    h_part = pq.integral(-1, 1)
    w_part = (p(Fraction(-1)) * q(Fraction(-1)) + p(Fraction(1)) * q(Fraction(1))) / A
    return h_part + w_part


def extended_orthogonality_check(basis: LTBasis, m: int, n: int) -> Fraction:
    if m == n:
        raise LegendreError("orthogonality check needs m != n")
    return extended_inner(basis, m, n)
