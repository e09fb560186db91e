"""Supported differential expressions and their boundary (trace) models.

Every supported expression l x = sum_j c_j x^(j) determines a trace layout
-- endpoint values and derivatives, left endpoint first, derivatives
ascending, named by `DiffExpr.labels` -- together with a skew-Hermitian
matrix S on trace vectors that reproduces the Green's-formula boundary
terms.  `boundary_form` derives S for every kind from the coefficients
alone, by Lagrange's identity, and refuses it unless it is skew-Hermitian
and nondegenerate.  The minimal domain of each supported kind is exactly
{zero traces}, so the trace space is a finite model of the boundary space.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .polynomials import Poly, count_real_roots, poly_from_json
from .symplectic import TOL_SKEW, GknError, SymplecticError, nondegenerate


class ExpressionError(GknError):
    """Unsupported expression input."""


# ---------------------------------------------------------------------------
# expression kinds


def _prime(end: str, k: int) -> str:
    if k <= 3:
        ticks = "'" * k
        return f"x{ticks}({end})"
    return f"x^({k})({end})"


class DiffExpr:
    """Base of the expression kinds; each kind states its own facts.

    A kind gives its JSON `kind` tag, its interval (`a`, `b`), the endpoint
    names its trace labels use (`ends`), `traces_per_endpoint` and
    `coefficient_polys`.  Everything else is derived: the ODE
    l x = sum_j c_j x^(j), its Green's-formula form (`boundary_form`) and
    the deficiency index.
    """

    ends = ("a", "b")

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return (self.a, self.b)

    def labels(self) -> tuple[str, ...]:
        return tuple(_prime(e, k) for e in self.ends for k in range(self.traces_per_endpoint))

    @classmethod
    def from_json(cls, data: dict) -> "DiffExpr":
        return cls(*(Fraction(data[f.name]) for f in fields(cls)))

    @property
    def order(self) -> int:
        return max(j for j, _ in self.coefficient_polys())

    @property
    def deficiency(self) -> int:
        """def(T0): the minimal domain is {zero traces}, so the form has dimension 2 * def."""
        return self.traces_per_endpoint

    def constant_coefficients(self) -> dict[int, float | complex]:
        """{j: c_j} of l x = sum_j c_j x^(j), each c_j a float when real.

        Raises unless every c_j is constant.
        """
        coeffs = {}
        for j, c in self.coefficient_polys():
            if c.degree > 0:
                raise ExpressionError(f"coefficient of x^({j}) is not constant")
            z = complex(c(0))
            coeffs[j] = z.real if z.imag == 0 else z
        return coeffs

    def exponents(self, sign: int) -> list[complex]:
        """The mu with exp(mu u) solving l x = sign * i x: roots of sum_j c_j mu^j - sign * i."""
        c = self.constant_coefficients()
        p = [c.get(j, 0) for j in range(max(c), -1, -1)]
        p[-1] -= sign * 1j
        return list(np.roots(p))


@dataclass(frozen=True)
class FirstOrderI(DiffExpr):
    """i x'(u) on [0, 1]."""

    kind = "first_order_i"
    a, b = Fraction(0), Fraction(1)
    ends = ("0", "1")
    traces_per_endpoint = 1

    def coefficient_polys(self) -> list[tuple[int, Poly]]:
        return [(1, Poly([1j]))]


@dataclass(frozen=True)
class Fourier(DiffExpr):
    """-x''(u) on a compact interval [a, b]."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(1)

    kind = "fourier"
    traces_per_endpoint = 2

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if not self.a < self.b:
            raise ExpressionError("need a < b")

    def coefficient_polys(self) -> list[tuple[int, Poly]]:
        return [(2, Poly([-1]))]


@dataclass(frozen=True)
class LegendreType(DiffExpr):
    """(u^2-1)^2 x'''' + 8u(u^2-1)x''' + (4A+12)(u^2-1)x'' + 8Au x' on [-1, 1].

    Fourth order, but the trace model keeps only (x, x') at each endpoint:
    the leading coefficient has double zeros at the endpoints, so for smooth
    data the boundary terms close on those four traces alone, which
    `boundary_form` checks exactly.  The deficiency index 2 agrees with the
    endpoint classification (limit-3 at both ends).
    """

    A: Fraction = Fraction(1)

    kind = "legendre_type"
    a, b = Fraction(-1), Fraction(1)
    ends = ("-1", "1")
    traces_per_endpoint = 2

    def __post_init__(self):
        object.__setattr__(self, "A", Fraction(self.A))
        if not self.A > 0:
            raise ExpressionError("parameter A must be positive")

    def coefficient_polys(self) -> list[tuple[int, Poly]]:
        A = self.A
        u = Poly.x()
        w = u * u - Poly.const(1)  # u^2 - 1
        return [
            (4, w * w),
            (3, u.scale(8) * w),
            (2, w.scale(4 * A + 12)),
            (1, u.scale(8 * A)),
        ]


@dataclass(frozen=True)
class GeneralEvenOrder(DiffExpr):
    """sum_j (-1)^j (q_j(u) x^(j))^(j) with real polynomial q_j, on [a, b].

    `qs[j]` is the coefficient polynomial of the j-th term; the order of the
    expression is 2 * (len(qs) - 1).  Refused unless every q_j is real, so
    that the expression is formally symmetric (q_0 never enters the boundary
    form, so no later gate would see a non-real one), and q_n has no root on
    [a, b], counted exactly: then the expression is regular on a compact
    interval, every classical solution of l x = +-i x is square integrable
    and the deficiency index is the full trace count per endpoint.
    """

    qs: tuple[Poly, ...]
    a: Fraction = Fraction(0)
    b: Fraction = Fraction(1)

    kind = "general_even_order"

    def __post_init__(self):
        object.__setattr__(self, "qs", tuple(self.qs))
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if not self.a < self.b:
            raise ExpressionError("need a < b")
        if len(self.qs) < 2 or self.qs[-1].is_zero():
            raise ExpressionError("leading coefficient q_n must not vanish identically")
        for j, q in enumerate(self.qs):
            if any(c.imag for c in q.coeffs):
                raise ExpressionError(f"q_{j} is not a real polynomial: every q_j must be real")
        roots = count_real_roots(self.qs[-1], self.a, self.b)
        if roots:
            raise ExpressionError(
                f"leading coefficient q_n vanishes at {roots} point(s) of [a, b]; the "
                f"expression is singular there"
            )

    @property
    def traces_per_endpoint(self) -> int:
        return 2 * (len(self.qs) - 1)

    @classmethod
    def from_json(cls, data: dict) -> "GeneralEvenOrder":
        qs = tuple(poly_from_json(q) for q in data["qs"])
        return cls(qs, Fraction(data["a"]), Fraction(data["b"]))

    def coefficient_polys(self) -> list[tuple[int, Poly]]:
        acc: dict[int, Poly] = {}
        for j, q in enumerate(self.qs):
            # d^j/du^j (q x^(j)) = sum_i C(j,i) q^(i) x^(2j-i)
            for i in range(j + 1):
                term = q.deriv(i).scale((-1) ** j * comb(j, i))
                m = 2 * j - i
                acc[m] = acc.get(m, Poly()) + term
        return [(m, p) for m, p in sorted(acc.items()) if not p.is_zero()]


EXPRESSION_KINDS = {k.kind: k for k in (FirstOrderI, Fourier, LegendreType, GeneralEvenOrder)}


# ---------------------------------------------------------------------------
# boundary forms


def _bracket(polys: list[tuple[int, Poly]], m: int, e: Fraction) -> list[list]:
    """The m x m matrix E with [x, y](e) = sum_{r,s} conj(y^(r)(e)) E[r][s] x^(s)(e).

    Lagrange's bracket [x, y] = sum_j sum_{i<j} (-1)^i (c_j conj(y))^(i)
    x^(j-1-i), expanded by Leibniz; exact when the c_j and e are.
    """
    E = [[0] * m for _ in range(m)]
    for j, c in polys:
        # one Taylor shift of c to e: then t[k] = c^(k)(e) / k!
        t = list(c.coeffs)
        for i in range(j):
            for k in range(len(t) - 2, i - 1, -1):
                t[k] += e * t[k + 1]
        t += [0] * (j - len(t))
        for i in range(j):
            for r in range(i + 1):
                if t[i - r] != 0:
                    E[r][j - 1 - i] += (-1) ** i * comb(i, r) * factorial(i - r) * t[i - r]
    return E


def boundary_form(expr: DiffExpr) -> np.ndarray:
    """The skew-Hermitian matrix S with y* S x = <l x, y> - <x, l y> on traces.

    By Lagrange's identity y* S x = [x, y](b) - [x, y](a), taken exactly
    and rounded last.  A kind keeping d < m traces per endpoint needs every
    term on x^(s) or y^(r) with r or s >= d to vanish exactly there; one
    keeping all m needs c_m(a), c_m(b) != 0, or S is degenerate and refused
    (`GeneralEvenOrder` refuses a c_m with a root on [a, b] before that).
    """
    d = expr.traces_per_endpoint
    polys = expr.coefficient_polys()
    m = max(j for j, _ in polys)
    blocks = []
    for e in expr.interval:
        E = _bracket(polys, m, e)
        if any(E[r][s] != 0 for r in range(m) for s in range(m) if max(r, s) >= d):
            raise ExpressionError(
                f"the boundary terms at u = {e} do not close on the {d} traces "
                f"kept per endpoint of an order-{m} expression"
            )
        blocks.append([row[:d] for row in E[:d]])
    # the left endpoint enters with a minus sign; negating exact zeros keeps +0.0
    rows = [[-v for v in row] + [0] * d for row in blocks[0]] + [[0] * d + row for row in blocks[1]]
    S = np.array([[complex(v) for v in row] for row in rows])
    skew = np.abs(S + S.conj().T).max()
    if skew > TOL_SKEW * (1.0 + np.abs(S).max()):
        raise SymplecticError(f"matrix is not skew-Hermitian: residual {skew:.3e}")
    if not nondegenerate(S):
        sv = np.linalg.svd(S, compute_uv=False)
        c_m = dict(polys)[m]
        ends = " and ".join(f"{float(abs(c_m(e))):.3e} at u = {e}" for e in expr.interval)
        raise SymplecticError(
            f"boundary form is degenerate: smallest/largest singular value = "
            f"{sv[-1]:.3e}/{sv[0]:.3e}; |c_{m}|, the leading coefficient, is {ends}"
        )
    return S
