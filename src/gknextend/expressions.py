"""Supported differential expressions and their boundary (trace) models.

Every supported expression determines a trace layout -- endpoint values and
derivatives, left endpoint first, derivatives ascending -- together with a
skew-Hermitian form on trace vectors that reproduces the Green's-formula
boundary terms.  The minimal domain of each supported kind is exactly
{zero traces}, so the trace space is a finite model of the boundary space.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import comb

import numpy as np

from .polynomials import Poly, poly_from_json, poly_to_json
from .symplectic import GknError, SkewForm


class ExpressionError(GknError):
    """Unsupported expression input."""


# ---------------------------------------------------------------------------
# expression kinds


def _prime(end: str, k: int) -> str:
    if k <= 3:
        ticks = "'" * k
        return f"x{ticks}({end})"
    return f"x^({k})({end})"


# Largest |Re(mu u)| for which exp(mu u) is evaluated: a quarter of the
# float exponent range, so that squared norms of the deficiency solutions,
# scaled by coefficients and quadrature weights, stay finite too.
EXP_REACH = 0.25 * float(np.log(np.finfo(float).max))


class DiffExpr:
    """Base of the expression kinds; each kind states its own facts.

    A kind gives its JSON `kind` tag, its interval (`a`, `b`), the endpoint
    names its trace labels use (`ends`), `traces_per_endpoint`, the
    deficiency index `deficiency` (the number of boundary conditions a
    self-adjoint restriction needs), `coefficient_polys` and the
    `boundary_matrix` of its Green's-formula form.  Everything about the
    ODE l x = sum_j c_j x^(j) itself is derived from `coefficient_polys`.
    """

    ends = ("a", "b")

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return (self.a, self.b)

    def labels(self) -> tuple[str, ...]:
        return tuple(_prime(e, k) for e in self.ends for k in range(self.traces_per_endpoint))

    def to_json(self) -> dict:
        return {"kind": self.kind, **{f.name: str(getattr(self, f.name)) for f in fields(self)}}

    @classmethod
    def from_json(cls, data: dict) -> "DiffExpr":
        return cls(*(Fraction(data[f.name]) for f in fields(cls)))

    @property
    def order(self) -> int:
        return max(j for j, _ in self.coefficient_polys())

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

    def symbol(self, mu: complex) -> complex:
        """l exp(mu u) = symbol(mu) exp(mu u)."""
        return sum(c * mu**j for j, c in self.constant_coefficients().items())

    def exponents(self, sign: int) -> list[complex]:
        """The mu with exp(mu u) solving l x = sign * i x: roots of symbol(mu) - sign * i."""
        c = self.constant_coefficients()
        p = [c.get(j, 0) for j in range(max(c), -1, -1)]
        p[-1] -= sign * 1j
        return list(np.roots(p))

    def deficiency_solutions(self, sign: int) -> list["ExpSolution"]:
        """Solutions of l x = sign * i x for the constant-coefficient kinds.

        Raises when |Re(mu u)| can exceed EXP_REACH on the interval.
        """
        if sign not in (+1, -1):
            raise ExpressionError("sign must be +1 or -1")
        mus = self.exponents(sign)
        reach = max(abs(float(self.a)), abs(float(self.b))) * max(abs(mu.real) for mu in mus)
        if reach > EXP_REACH:
            raise ExpressionError(
                f"the deficiency solutions exp(mu u) do not fit a float on [a, b]: "
                f"|Re mu| max(|a|, |b|) = {reach:.3g} exceeds {EXP_REACH:.0f}"
            )
        return [ExpSolution(self, mu, sign) for mu in mus]


@dataclass(frozen=True)
class FirstOrderI(DiffExpr):
    """i x'(u) on [0, 1]."""

    kind = "first_order_i"
    a, b = Fraction(0), Fraction(1)
    ends = ("0", "1")
    traces_per_endpoint = 1
    deficiency = 1

    def coefficient_polys(self) -> list[tuple[int, Poly]]:
        return [(1, Poly([1j]))]

    def boundary_matrix(self) -> np.ndarray:
        return np.diag([-1j, 1j])


@dataclass(frozen=True)
class Fourier(DiffExpr):
    """-x''(u) on a compact interval [a, b]."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(1)

    kind = "fourier"
    traces_per_endpoint = 2
    deficiency = 2

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if not self.a < self.b:
            raise ExpressionError("need a < b")

    def coefficient_polys(self) -> list[tuple[int, Poly]]:
        return [(2, Poly([-1]))]

    def boundary_matrix(self) -> np.ndarray:
        return _endpoint_blocks(1)


@dataclass(frozen=True)
class LegendreType(DiffExpr):
    """(u^2-1)^2 x'''' + 8u(u^2-1)x''' + (4A+12)(u^2-1)x'' + 8Au x' on [-1, 1].

    Fourth order, but the trace model keeps only (x, x') at each endpoint:
    the leading coefficient has double zeros at the endpoints, so for smooth
    data the boundary terms close on those four traces alone.  The
    deficiency index is a configured constant from the endpoint
    classification (limit-3 at both ends).
    """

    A: Fraction = Fraction(1)

    kind = "legendre_type"
    a, b = Fraction(-1), Fraction(1)
    ends = ("-1", "1")
    traces_per_endpoint = 2
    deficiency = 2

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

    def boundary_matrix(self) -> np.ndarray:
        return _endpoint_blocks(8)


@dataclass(frozen=True)
class GeneralEvenOrder(DiffExpr):
    """sum_j (-1)^j (q_j(u) x^(j))^(j) with real polynomial q_j, on [a, b].

    `qs[j]` is the coefficient polynomial of the j-th term; the order of the
    expression is 2 * (len(qs) - 1).  Regular on a compact interval, so
    every classical solution of l x = +-i x is square integrable and the
    deficiency index is the full trace count per endpoint.
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

    @property
    def n(self) -> int:
        return len(self.qs) - 1

    @property
    def traces_per_endpoint(self) -> int:
        return 2 * self.n

    deficiency = traces_per_endpoint

    def to_json(self) -> dict:
        qs = [poly_to_json(q) for q in self.qs]
        return {"kind": self.kind, "qs": qs, "a": str(self.a), "b": str(self.b)}

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

    def boundary_matrix(self) -> np.ndarray:
        """Exact integration by parts against Hermite probe polynomials.

        The boundary functional is trace-determined, so probing a trace
        basis determines it completely.
        """
        if self.n > 2:
            raise ExpressionError("boundary form supported for order <= 4 only")
        if not all(q.is_exact() for q in self.qs):
            raise ExpressionError("boundary form needs exact rational coefficients")
        if self.qs[-1](self.a) == 0 or self.qs[-1](self.b) == 0:
            raise ExpressionError(
                "leading coefficient vanishes at an endpoint; the expression "
                "is singular there and the full-trace boundary form degenerates"
            )
        basis = _hermite_probe_basis(self)
        m = len(basis)
        S = np.zeros((m, m))
        for k, ek in enumerate(basis):
            lek = apply_expr(self, ek)
            for j, ej in enumerate(basis):
                lej = apply_expr(self, ej)
                val = (lek * ej - ek * lej).integral(self.a, self.b)
                S[j, k] = float(val)
        return S


EXPRESSION_KINDS = {k.kind: k for k in (FirstOrderI, Fourier, LegendreType, GeneralEvenOrder)}


def apply_expr(expr: DiffExpr, p: Poly) -> Poly:
    """Apply the expression to a polynomial, exactly when inputs are exact."""
    out = Poly()
    for j, c in expr.coefficient_polys():
        out = out + c * p.deriv(j)
    return out


# ---------------------------------------------------------------------------
# trace vectors


@dataclass(frozen=True)
class TraceVector:
    """Endpoint data in the fixed layout of the expression kind.

    Values may be exact scalars (Fraction) or complex floats; `as_array`
    gives the float view used by the numerical layers.
    """

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.array([complex(v) for v in self.values], dtype=complex)


def trace_of_poly(expr: DiffExpr, p: Poly) -> TraceVector:
    a, b = expr.interval
    d = expr.traces_per_endpoint
    vals = [p.deriv(k)(a) for k in range(d)] + [p.deriv(k)(b) for k in range(d)]
    return TraceVector(tuple(vals))


# ---------------------------------------------------------------------------
# boundary forms


@dataclass(frozen=True)
class BoundaryForm:
    """Trace layout plus the skew form realizing the Green's-formula terms."""

    expr: DiffExpr
    form: SkewForm
    labels: tuple[str, ...]

    @property
    def arity(self) -> int:
        return self.form.dim


_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _endpoint_blocks(c: float) -> np.ndarray:
    """c J at the left endpoint's (x, x') and -c J = c J^T at the right one's."""
    S = np.zeros((4, 4))
    S[0:2, 0:2] = c * _J2
    S[2:4, 2:4] = c * _J2.T
    return S


def _solve_exact(A: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over Fractions (small systems only)."""
    n = len(A)
    M = [row[:] + [rhs[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ExpressionError("singular probe system")
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def _hermite_probe_basis(expr: GeneralEvenOrder) -> list[Poly]:
    """Polynomials e_j of degree 4n-1 with trace(e_j) = j-th unit vector."""
    a, b = expr.interval
    d = expr.traces_per_endpoint
    m = 2 * d
    rows: list[list[Fraction]] = []
    for end in (a, b):
        for r in range(d):
            row = []
            for col in range(m):
                if col < r:
                    row.append(Fraction(0))
                else:
                    fall = 1
                    for t in range(r):
                        fall *= col - t
                    row.append(Fraction(fall) * end ** (col - r))
            rows.append(row)
    basis = []
    for j in range(m):
        rhs = [Fraction(1) if i == j else Fraction(0) for i in range(m)]
        basis.append(Poly(_solve_exact(rows, rhs)))
    return basis


def boundary_form(expr: DiffExpr) -> BoundaryForm:
    """Skew form S with y* S x = <l x, y> - <x, l y> on traces."""
    return BoundaryForm(expr, SkewForm(expr.boundary_matrix(), nondegenerate=True), expr.labels())


def green_defect(expr: DiffExpr, p: Poly, q: Poly) -> complex:
    """<l p, q> - <p, l q> by exact polynomial quadrature over the interval.

    Independent of `boundary_form`; used to validate it.  Conjugation of the
    second slot is honoured for complex coefficient polynomials.
    """
    a, b = expr.interval
    qbar = Poly([c.conjugate() if isinstance(c, complex) else c for c in q.coeffs])
    lp = apply_expr(expr, p)
    lq_bar = Poly(
        [c.conjugate() if isinstance(c, complex) else c for c in apply_expr(expr, q).coeffs]
    )
    val = (lp * qbar - p * lq_bar).integral(a, b)
    return complex(val)


# ---------------------------------------------------------------------------
# deficiency solutions (closed form, regular kinds)


@dataclass(frozen=True)
class ExpSolution:
    """x(u) = exp(mu u), a classical solution of l x = sign * i x."""

    expr: DiffExpr
    mu: complex
    sign: int

    def value(self, u):
        return np.exp(self.mu * np.asarray(u, dtype=float))

    def apply(self, u):
        """l x sampled at u, using the exact exponential derivatives."""
        return self.expr.symbol(self.mu) * self.value(u)

    def trace(self) -> TraceVector:
        a, b = self.expr.interval
        d = self.expr.traces_per_endpoint
        vals = [self.mu**k * np.exp(self.mu * float(a)) for k in range(d)]
        vals += [self.mu**k * np.exp(self.mu * float(b)) for k in range(d)]
        return TraceVector(tuple(complex(v) for v in vals))
