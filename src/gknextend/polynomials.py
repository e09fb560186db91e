"""Dense univariate polynomials over exact rationals (or complex floats).

A polynomial is a tuple of ascending coefficients, `c[k] * u**k`, with
trailing zeros stripped.  When every coefficient is a `Fraction` all
operations stay exact; complex or float coefficients are tolerated and
simply propagate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction, float, complex]


def _norm_coeff(c: Scalar) -> Scalar:
    if isinstance(c, int):
        return Fraction(c)
    return c


class Poly:
    """Immutable dense polynomial in one variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def const(c: Scalar) -> "Poly":
        return Poly([c])

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        out: list = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def scale(self, s: Scalar) -> "Poly":
        s = _norm_coeff(s)
        return Poly([s * c for c in self.coeffs])

    def deriv(self, order: int = 1) -> "Poly":
        p = self
        for _ in range(order):
            p = Poly([(i + 1) * c for i, c in enumerate(p.coeffs[1:])])
        return p

    def __call__(self, u: Scalar) -> Scalar:
        u = _norm_coeff(u)
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


def poly_from_json(data: Sequence) -> Poly:
    coeffs: list = []
    for c in data:
        if isinstance(c, str):
            coeffs.append(Fraction(c))
        elif isinstance(c, (list, tuple)):
            coeffs.append(complex(c[0], c[1]))
        else:
            coeffs.append(c)
    return Poly(coeffs)


def _divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of p by a nonzero q, exact over the rationals."""
    r = list(p.coeffs)
    n = len(q.coeffs) - 1
    quot = [0] * max(len(r) - n, 0)
    for i in range(len(r) - 1 - n, -1, -1):
        quot[i] = r[i + n] / q.coeffs[-1]
        for j, c in enumerate(q.coeffs):
            r[i + j] -= quot[i] * c
    return Poly(quot), Poly(r[:n])


def _remainders(p: Poly, q: Poly) -> list[Poly]:
    """p, q and Euclid's negated remainders, up to the last nonzero one: gcd(p, q)."""
    chain = [p, q]
    while not chain[-1].is_zero():
        chain.append(-_divmod(chain[-2], chain[-1])[1])
    return chain[:-1]


def count_real_roots(p: Poly, a: Scalar, b: Scalar) -> int:
    """Distinct roots of a nonzero real p in [a, b], exactly (floats convert exactly).

    p / gcd(p, p') has them all simple; on its Sturm sequence the sign
    variations drop by one at each root in (a, b] (Basu, Pollack & Roy,
    *Algorithms in Real Algebraic Geometry*, ch. 2).
    """
    p = Poly([Fraction(c.real) for c in p.coeffs])
    s = _divmod(p, _remainders(p, p.deriv())[-1])[0]
    chain = _remainders(s, s.deriv())
    a, b = Fraction(a), Fraction(b)

    def variations(u: Fraction) -> int:
        signs = [v > 0 for v in (q(u) for q in chain) if v != 0]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return variations(a) - variations(b) + (s(a) == 0)
