import random
from fractions import Fraction

import numpy as np
import pytest

from gknextend.expressions import (
    DiffExpr,
    ExpressionError,
    FirstOrderI,
    Fourier,
    GeneralEvenOrder,
    LegendreType,
    boundary_form,
)
from gknextend.polynomials import Poly, count_real_roots, poly_from_json
from gknextend.symplectic import SymplecticError

from conftest import apply_expr, form_eval, green_defect, poly_to_json, random_rational_poly, trace_of_poly


class TestApply:
    def test_constant_annihilated(self):
        assert apply_expr(LegendreType(1), Poly([1])).is_zero()

    def test_linear_eigenfunction(self):
        # each term differentiates u away except the first-derivative one
        for A in (Fraction(1), Fraction(5, 2)):
            out = apply_expr(LegendreType(A), Poly([0, 1]))
            assert out == Poly([0, 8 * A])

    def test_fourier_on_square(self):
        assert apply_expr(Fourier(0, 1), Poly([0, 0, 1])) == Poly([-2])

    def test_first_order_complex_coefficients(self):
        out = apply_expr(FirstOrderI(), Poly([0, 0, 1]))
        assert out.coeffs == (0j, 2j)

    def test_general_even_order_matches_nested_form(self):
        # -(q1 y')' with q1 = u: expanded -u y'' - y' (on [1, 2], where q1 has no root)
        geo = GeneralEvenOrder((Poly([0]), Poly([0, 1])), 1, 2)
        p = Poly([1, 2, 3, 4])
        expected = Poly([0, -1]) * p.deriv(2) + Poly([-1]) * p.deriv(1)
        assert apply_expr(geo, p) == expected


class TestTraces:
    def test_constant_fourier(self):
        tv = trace_of_poly(Fourier(0, 1), Poly([1]))
        assert tv == (1, 0, 1, 0)

    def test_linear_legendre(self):
        tv = trace_of_poly(LegendreType(1), Poly([-1, 1]))
        assert tv == (-2, 1, 0, 1)

    def test_monic_degree_one_under_point_mass(self):
        from conftest import gram_schmidt

        basis = gram_schmidt(Fraction(1), 1)
        assert basis[1] == Poly([0, 1])
        tv = trace_of_poly(LegendreType(1), basis[1])
        assert tv == (-1, 1, 1, 1)

    def test_derivative_traces_match_finite_differences(self, rng):
        h = 1e-6
        for expr in (Fourier(0, 1), LegendreType(2)):
            for _ in range(5):
                p = random_rational_poly(rng, 6)
                tv = np.array(trace_of_poly(expr, p), dtype=complex)
                a, b = (float(v) for v in expr.interval)
                fd_a = (float(p(a + h)) - float(p(a))) / h
                fd_b = (float(p(b)) - float(p(b - h))) / h
                scale = 1 + abs(tv[1]) + abs(tv[3])
                assert abs(fd_a - tv[1].real) <= 1e-5 * scale
                assert abs(fd_b - tv[3].real) <= 1e-5 * scale


# the hand-written boundary matrices the derived forms must reproduce bit for bit
FIRST_ORDER_S = np.diag([-1j, 1j])
FOURIER_S = np.array(
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float
)
LEGENDRE_S = 8 * FOURIER_S

# order 6 with a q_0 term and non-constant q_j, exact and in floats
ORDER_SIX_QS = (Poly([2, 1]), Poly([1, 0, Fraction(1, 3)]), Poly([3]), Poly([2, Fraction(1, 2)]))
ORDER_SIX = GeneralEvenOrder(ORDER_SIX_QS, Fraction(-1, 2), 1)
ORDER_SIX_FLOAT = GeneralEvenOrder(
    tuple(Poly([0.1 * float(c) + 0.3 for c in q.coeffs]) for q in ORDER_SIX_QS), -0.5, 1.25
)


class UnclosedFourthOrder(DiffExpr):
    """x'''' on [0, 1] keeping only x and x' per endpoint: its boundary terms do not close."""

    kind = "unclosed_fourth_order"
    a, b = Fraction(0), Fraction(1)
    traces_per_endpoint = 2

    def coefficient_polys(self):
        return [(4, Poly([1]))]


class Derivative(DiffExpr):
    """x' on [0, 1]: not formally symmetric, so its boundary terms are Hermitian, not skew."""

    kind = "derivative"
    a, b = Fraction(0), Fraction(1)
    traces_per_endpoint = 1

    def coefficient_polys(self):
        return [(1, Poly([1]))]


def random_complex_poly(rng, degree):
    return Poly(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))


class TestBoundaryForm:
    @pytest.mark.parametrize(
        "expr, reference",
        [
            (FirstOrderI(), FIRST_ORDER_S),
            (Fourier(0, 1), FOURIER_S),
            (Fourier(-1, 2), FOURIER_S),
            (Fourier(Fraction(1, 4), Fraction(3, 5)), FOURIER_S),
            (LegendreType(1), LEGENDRE_S),
            (LegendreType(Fraction(5, 2)), LEGENDRE_S),
            (LegendreType(100000), LEGENDRE_S),
        ],
        ids=["first_order", "fourier_01", "fourier_m12", "fourier_q", "legendre_1",
             "legendre_5_2", "legendre_1e5"],
    )
    def test_derived_form_equals_the_hand_written_matrix(self, expr, reference):
        S = boundary_form(expr)
        assert S.tobytes() == np.asarray(reference, dtype=complex).tobytes()

    def test_legendre_against_worked_brackets(self):
        A = 4.0
        sA = np.sqrt(A)
        S = boundary_form(LegendreType(4))
        x = np.array([0.3, -1.2, 0.7, 2.5])
        t1 = np.array([sA, 0, 0, 0])
        t2 = np.array([0, 0, sA, 0])
        assert abs(form_eval(S, x, t1) - 8 * sA * x[1]) < 1e-12
        assert abs(form_eval(S, x, t2) + 8 * sA * x[3]) < 1e-12

    @pytest.mark.parametrize(
        "expr",
        [
            Fourier(0, 1),
            Fourier(-1, 2),
            LegendreType(Fraction(5, 2)),
            GeneralEvenOrder((Poly([1]), Poly([0, 1]), Poly([1, 0, Fraction(1, 2)])), 0, 1),
            ORDER_SIX,
            ORDER_SIX_FLOAT,
        ],
        ids=["fourier_01", "fourier_m12", "legendre", "order_four", "order_six", "order_six_float"],
    )
    def test_green_identity_random_polynomials(self, expr, rng):
        S = boundary_form(expr)
        for _ in range(6):
            p = random_rational_poly(rng, 8)
            q = random_rational_poly(rng, 8)
            lhs = green_defect(expr, p, q)
            rhs = form_eval(
                S,
                np.array(trace_of_poly(expr, p), dtype=complex),
                np.array(trace_of_poly(expr, q), dtype=complex),
            )
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_green_identity_complex_first_order(self, rng):
        expr = FirstOrderI()
        S = boundary_form(expr)
        for _ in range(6):
            p, q = random_complex_poly(rng, 6), random_complex_poly(rng, 6)
            lhs = green_defect(expr, p, q)
            rhs = form_eval(
                S,
                np.array(trace_of_poly(expr, p), dtype=complex),
                np.array(trace_of_poly(expr, q), dtype=complex),
            )
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    @pytest.mark.parametrize(
        "a, b", [(0, 1), (-1, 2), (Fraction(1, 4), Fraction(3, 5))]
    )
    def test_fourier_is_general_even_order_with_unit_q1(self, a, b):
        fourier = Fourier(a, b)
        geo = GeneralEvenOrder((Poly(), Poly([1])), a, b)
        closed, probed = boundary_form(fourier), boundary_form(geo)
        assert closed.tobytes() == probed.tobytes()
        assert fourier.labels() == geo.labels()
        assert fourier.coefficient_polys() == geo.coefficient_polys()
        assert fourier.deficiency == geo.deficiency

    def test_singular_endpoint_rejected(self):
        u = Poly.x()
        w = Poly([1]) - u * u
        with pytest.raises(ExpressionError, match="singular"):
            GeneralEvenOrder((Poly([0]), Poly([8]) + w.scale(4), w * w), -1, 1)

    def test_dropped_traces_must_close(self):
        with pytest.raises(ExpressionError, match="do not close"):
            boundary_form(UnclosedFourthOrder())

    def test_non_skew_form_refused(self):
        with pytest.raises(SymplecticError, match="not skew-Hermitian: residual 2.000e"):
            boundary_form(Derivative())

    def test_degenerate_form_names_the_leading_coefficient(self):
        # q_1 = u - (1 + 1e-9): its root lies just right of b, so c_2 = -q_1 is
        # 2 at u = -1 and only 1e-9 at u = 1, and S is numerically degenerate
        geo = GeneralEvenOrder((Poly([0]), Poly([-1 - Fraction(1, 10**9), 1])), -1, 1)
        with pytest.raises(SymplecticError) as e:
            boundary_form(geo)
        assert str(e.value) == (
            "boundary form is degenerate: smallest/largest singular value = "
            "1.000e-09/2.000e+00; |c_2|, the leading coefficient, is 2.000e+00 at "
            "u = -1 and 1.000e-09 at u = 1"
        )


class TestSingularLeadingCoefficient:
    @pytest.mark.parametrize(
        "qs, a, b",
        [
            ((Poly([0]), Poly([0, 1])), -1, 1),
            ((Poly([0.0]), Poly([-0.25, 0.0, 1.0])), -1, 1),
            ((Poly([1]), Poly([1]), Poly([1]), Poly([0, 1])), -1, 1),
            ((Poly([1]), Poly([Fraction(-1, 2), 1])), Fraction(1, 2), 1),  # a root at a
        ],
        ids=["exact", "float", "order_six", "at_endpoint"],
    )
    def test_root_on_interval_refused(self, qs, a, b):
        with pytest.raises(ExpressionError, match="singular"):
            GeneralEvenOrder(qs, a, b)

    @pytest.mark.parametrize(
        "q",
        [Poly([-1 - Fraction(1, 10**9), 1]), Poly([-1.0000001, 1.0])],
        ids=["exact", "float"],
    )
    def test_root_just_outside_builds(self, q):
        assert GeneralEvenOrder((Poly([1]), q), -1, 1).qs[-1] == q

    @pytest.mark.parametrize(
        "qs, a, b, j",
        [
            ((Poly([1j]), Poly([1])), 0, 1, 0),  # -x'' + i x: q_0 enters no bracket
            ((Poly([1]), Poly([2 + 2j, 1 + 1j])), -3, 0, 1),  # (1 + i)(u + 2), a root at -2
            ((Poly([1]), Poly([1, 1j])), -1, 1, 1),  # 1 + i u, no real root
            ((Poly([1]), Poly([1, 0.5]), Poly([2, 1e-300j])), -1, 1, 2),
        ],
        ids=["q0_i", "q1_root_on_interval", "q1_root_outside", "q2_tiny_imag"],
    )
    def test_non_real_coefficient_refused(self, qs, a, b, j):
        with pytest.raises(ExpressionError, match=f"q_{j} is not a real polynomial"):
            GeneralEvenOrder(qs, a, b)

    def test_real_coefficients_held_as_complex_build(self):
        # a coefficient read from JSON as [re, 0] is complex with zero imaginary part
        q = Poly([complex(1, 0), complex(0.5, 0)])
        assert GeneralEvenOrder((Poly([1]), q), -1, 1).qs[-1] == q

    def test_root_count_matches_factored_polynomials(self):
        rng = random.Random(5)
        for _ in range(300):
            roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
            p = Poly([rng.choice([1, 2, 3]), 0, 1])  # no real root of its own
            for r in roots:
                p = p * Poly([-r, 1])
            a = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            b = a + Fraction(rng.randint(0, 8), rng.randint(1, 3))
            assert count_real_roots(p, a, b) == len({r for r in roots if a <= r <= b})


class TestDeficiency:
    def test_indices(self):
        assert LegendreType(1).deficiency == 2
        assert FirstOrderI().deficiency == 1
        assert Fourier(0, 1).deficiency == 2
        geo = GeneralEvenOrder((Poly([1]), Poly([0, 1]), Poly([1])), 0, 1)
        assert geo.deficiency == 4

    def test_first_order_exponent(self):
        # e^(sign u) solves i x' = sign i x
        for sign in (+1, -1):
            assert FirstOrderI().exponents(sign) == [sign]

    def test_fourier_exponents(self):
        # -x'' = sign i x: mu^2 = -sign i, one root per trace at an endpoint
        for sign in (+1, -1):
            mus = Fourier(0, 1).exponents(sign)
            assert len(mus) == 2
            for mu in mus:
                assert abs(mu**2 + sign * 1j) < 1e-15

    def test_legendre_unsupported(self):
        with pytest.raises(ExpressionError, match="not constant"):
            LegendreType(1).exponents(+1)


class TestSerialization:
    def test_poly_round_trip(self):
        p = Poly([Fraction(1, 3), 2, Fraction(-7, 5)])
        assert poly_from_json(poly_to_json(p)) == p

    def test_complex_poly_round_trip(self):
        p = Poly([1 + 2j, 0.5])
        assert poly_from_json(poly_to_json(p)) == p

    def test_trace_arity(self):
        assert boundary_form(FirstOrderI()).shape == (2, 2)
        assert boundary_form(Fourier(0, 1)).shape == (4, 4)
        assert boundary_form(LegendreType(1)).shape == (4, 4)
