"""Exact verification of the fourth-order point-mass example.

Everything here runs on Python integers.  The expression keeps polynomial
degree, so on the monomials u^0..u^n it is an upper-triangular matrix L,
read off `coefficient_polys()`.  Its diagonal holds the eigenvalues
lambda_n = n(n+1)(n^2 + n + 4A - 2), strictly increasing for A > 0, so each
monic eigenpolynomial P_n is unique and comes from back-substitution in
(L - lambda_n) p = 0.

The measure is Lebesgue measure on [-1, 1] plus atoms of weight 1/A at both
endpoints.  Its moments m_k = int u^k du + ((-1)^k + 1)/A give the Hankel
form <p, q> = sum_ij p_i m_(i+j) q_j, the extended-space inner product of
(p, (p(-1), p(1))) and (q, (q(-1), q(1))).  Eigenvectors of a symmetric
operator in H + W with distinct eigenvalues are orthogonal, so the
orthogonality of the P_n is a real check, as are the eigenvalue,
boundary-identity and extended eigen-relation checks: exact identities, not
tolerance claims.

Why integers keep every verdict.  Let den be the least common denominator
of the coefficient polynomials; den*l then has integer coefficients and
den*lambda_n is an integer.  P_n is kept as q_n = c_n P_n, the primitive
integer vector on the same line (back-substitution multiplies by the pivot
den(lambda_n - lambda_i) and divides out gcds, in the manner of Bareiss's
fraction-free elimination, Math. Comp. 22, 1968).  Every check is an
identity homogeneous in P_n, in l and lambda_n, and in the moments:
l P = lambda P, 8A P'(1) = lambda P(1), <P_m, P_n> = 0.  Multiplying one
by the nonzero integers den, c_n or D (the moment scale) maps true to true
and false to false, so each verdict on the integers is the verdict on the
rationals.

Sign convention of the boundary identity: evaluating the expression at the
endpoints (where the top coefficients vanish) gives

    +8A P'(1)  = lambda_n P(1)      and      -8A P'(-1) = lambda_n P(-1),

i.e. matched signs at u = +1 and opposite at u = -1.  This pairing is
fixed empirically by P_1 = u and is asserted exactly for all n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, perm
from operator import mul

from .expressions import DiffExpr, LegendreType
from .symplectic import GknError

N_MAX = 24  # coefficient bit-growth guard

IDENTITY = ((1, 0), (0, 1))  # B of the negative control


class LegendreError(GknError):
    pass


def lt_eigenvalue(n: int, A: Fraction) -> Fraction:
    """n(n+1)(n^2 + n + 4A - 2), for A a Fraction or an int."""
    num, den = A.numerator, A.denominator
    return Fraction(n * (n + 1) * ((n * n + n - 2) * den + 4 * num), den)


def _cleared(x: Fraction, den: int) -> int:
    """den * x, which must be an integer, without rational arithmetic."""
    q, r = divmod(den * x.numerator, x.denominator)
    if r:
        raise LegendreError(f"{den} does not clear {x}")
    return q


def _strip(coeffs) -> tuple[int, ...]:
    """Coefficients without trailing zeros, so that equal polynomials compare equal."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def scaled_terms(expr: DiffExpr) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """(den, terms): den*l as (order k, integer coefficients of den*c_k) pairs.

    den is the lcm of the denominators of `coefficient_polys()`, the least
    positive integer that clears them.
    """
    terms = [(k, [Fraction(ci) for ci in c.coeffs]) for k, c in expr.coefficient_polys()]
    den = lcm(*(ci.denominator for _, c in terms for ci in c))
    return den, tuple((k, tuple(_cleared(ci, den) for ci in c)) for k, c in terms)


def expression_matrix(terms, n_max: int) -> list[list[int]]:
    """L with l(u^j) = sum_i L[i][j] u^i for j <= n_max, upper triangular.

    `terms` are (k, coefficients of c_k) pairs, as `scaled_terms` gives them
    for den*l.  Column j is sum_k c_k(u) j!/(j-k)! u^(j-k), so no polynomial
    products are formed.  Raises if the expression maps some u^j to a
    polynomial of higher degree.
    """
    L = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    for j in range(n_max + 1):
        col: dict[int, int] = {}
        for k, c in terms:
            if k > j:
                continue  # the k-th derivative of u^j vanishes
            fall = perm(j, k)
            for i, ci in enumerate(c):
                col[i + j - k] = col.get(i + j - k, 0) + ci * fall
        for i, v in col.items():
            if i > j and v != 0:
                raise LegendreError(f"the expression maps u^{j} to degree {i}")
            if i <= j:
                L[i][j] = v
    return L


def apply_terms(terms, q) -> tuple[int, ...]:
    """den*l q for the integer polynomial q (ascending coefficients), from `scaled_terms`."""
    out = [0] * (len(q) + max(len(c) - 1 - k for k, c in terms))
    for k, c in terms:
        for j in range(k, len(q)):
            if q[j]:
                f = q[j] * perm(j, k)
                for i, ci in enumerate(c):
                    if ci:
                        out[i + j - k] += ci * f
    return _strip(out)


def endpoint_values(q) -> tuple[int, int, int, int]:
    """(q(-1), q(1), q'(-1), q'(1)) of the polynomial with coefficients q."""
    even, odd = sum(q[0::2]), sum(q[1::2])
    d_even = sum(j * q[j] for j in range(2, len(q), 2))
    d_odd = sum(j * q[j] for j in range(1, len(q), 2))
    return even - odd, even + odd, d_odd - d_even, d_odd + d_even


@dataclass(frozen=True)
class IntegerBasis:
    """q_0..q_n with q_n = c_n P_n: primitive integer vectors, deg q_n = n, c_n > 0.

    `terms` is den*l as `scaled_terms` gives it.
    """

    A: Fraction
    den: int
    terms: tuple
    vectors: tuple[tuple[int, ...], ...]


def operator_basis(A: Fraction, n_max: int) -> IntegerBasis:
    """Primitive integer eigenvectors q_0..q_n_max of the point-mass expression.

    q_n solves (den L - den lambda_n) q = 0 by fraction-free
    back-substitution: row i gives q_i = s / d with s = sum_(j>i) den L[i][j] q_j
    and pivot d = den(lambda_n - lambda_i), positive because the eigenvalues
    strictly increase for A > 0.  The entries above i are multiplied by
    d / gcd(s, d), and q_i is s / gcd(s, d).
    """
    A = Fraction(A)
    if n_max > N_MAX:
        raise LegendreError(f"n_max capped at {N_MAX}")
    den, terms = scaled_terms(LegendreType(A))
    L = expression_matrix(terms, n_max)
    above = [[(j, L[i][j]) for j in range(i + 1, n_max + 1) if L[i][j]] for i in range(n_max + 1)]
    vectors = []
    for n in range(n_max + 1):
        lam = L[n][n]
        q = [0] * n + [1]
        for i in range(n - 1, -1, -1):
            s = sum(v * q[j] for j, v in above[i] if j <= n)
            if not s:
                continue
            d = lam - L[i][i]
            g = gcd(s, d)
            f = d // g
            for j in range(i + 1, n + 1):
                q[j] *= f
            q[i] = s // g
        g = gcd(*q)
        vectors.append(tuple(c // g for c in q))
    return IntegerBasis(A, den, terms, tuple(vectors))


def _moments(A: Fraction, count: int) -> list[int]:
    """D m_0..D m_(count-1), D = num(A) lcm(1..count), of Lebesgue measure on
    [-1, 1] plus 1/A at each endpoint: m_k = 2/(k+1) + 2/A for even k, else 0."""
    span = lcm(*range(1, count + 1))
    inner, atoms = 2 * A.numerator * span, 2 * A.denominator * span
    return [inner // (k + 1) + atoms if k % 2 == 0 else 0 for k in range(count)]


def extended_gram(basis: IntegerBasis) -> list[list[int]]:
    """D times the Gram matrix of the eigenvectors (q_n, (q_n(-1), q_n(1))) in H + W.

    D = num(A) lcm(1..2d+1) for the top degree d clears the moments.  The W
    Gram carries the atom weights, so the extended inner product is the
    Hankel moment form.  h_m = H q_m is formed once per m, and each entry is
    then one dot product <q_m, q_n> = q_n . h_m.
    """
    vecs = basis.vectors
    degree = max(len(q) for q in vecs) - 1
    mom = _moments(basis.A, 2 * degree + 1)
    G = [[0] * len(vecs) for _ in vecs]
    for m, qm in enumerate(vecs):
        h = [sum(map(mul, qm, mom[i:])) for i in range(degree + 1)]
        for n in range(m, len(vecs)):
            G[m][n] = G[n][m] = sum(map(mul, vecs[n], h))
    return G


def exact_suite(basis: IntegerBasis, eigenvalues, control_B=IDENTITY) -> dict[str, bool]:
    """The verdicts of the exact suite on the basis, by check name.

    `eigenvalues` are the claimed lambda_0..lambda_n, as `lt_eigenvalue`
    gives them.  For each n, den*l q_n, q_n(+-1) and q_n'(+-1) are formed
    once.  The eigen relation applies den*l from `coefficient_polys()`, not
    from the matrix the basis was solved with.  The extended action is
    (l q, B a - Omega q) with a = (q(-1), q(1)) and
    Omega q = (8A q'(-1), -8A q'(1)); the model's B is 0, and the negative
    control `control_B` must break every eigenvector, q_0 = 1 (where
    Omega q = 0 and lambda_0 = 0) included.
    """
    den = basis.den
    w8 = _cleared(8 * basis.A, den)
    (b00, b01), (b10, b11) = control_B
    eig = bnd = ext = control = True
    for q, lam in zip(basis.vectors, eigenvalues, strict=True):
        lam = _cleared(lam, den)
        eig_n = apply_terms(basis.terms, q) == _strip(lam * c for c in q)
        qm, qp, dqm, dqp = endpoint_values(q)
        lam_a = (lam * qm, lam * qp)
        omega = (w8 * dqm, -w8 * dqp)
        bnd_n = (-omega[0], -omega[1]) == lam_a
        eig &= eig_n
        bnd &= bnd_n
        # with the model's B = 0 the W component -Omega q = lambda a is the boundary identity
        ext &= eig_n and bnd_n
        # den (B a - Omega q), the W component of the control's action, a = (q(-1), q(1))
        w_n = (den * (b00 * qm + b01 * qp) - omega[0], den * (b10 * qm + b11 * qp) - omega[1])
        control &= not (eig_n and w_n == lam_a)
    gram = extended_gram(basis)
    orth = all(gram[m][n] == 0 for m in range(len(gram)) for n in range(m + 1, len(gram)))
    return {
        "eigenvalue_formula_exact": eig,
        "boundary_identity_exact": bnd,
        "extended_eigen_relation_exact": ext,
        "extended_orthogonality_exact": orth,
        "nonzero_B_breaks_eigenvectors": control,
    }
