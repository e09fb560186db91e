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
    apply_expr,
    boundary_form,
    green_defect,
)
from gknextend.polynomials import Poly, poly_from_json, poly_to_json

from conftest import form_eval, random_rational_poly, trace_of_poly


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
        # -(q1 y')' with q1 = u: expanded -u y'' - y'
        geo = GeneralEvenOrder((Poly([0]), Poly([0, 1])), 0, 1)
        p = Poly([1, 2, 3, 4])
        expected = Poly([0, -1]) * p.deriv(2) + Poly([-1]) * p.deriv(1)
        assert apply_expr(geo, p) == expected


class TestTraces:
    def test_constant_fourier(self):
        tv = trace_of_poly(Fourier(0, 1), Poly([1]))
        assert tv.values == (1, 0, 1, 0)

    def test_linear_legendre(self):
        tv = trace_of_poly(LegendreType(1), Poly([-1, 1]))
        assert tv.values == (-2, 1, 0, 1)

    def test_monic_degree_one_under_point_mass(self):
        from conftest import gram_schmidt

        basis = gram_schmidt(Fraction(1), 1)
        assert basis[1] == Poly([0, 1])
        tv = trace_of_poly(LegendreType(1), basis[1])
        assert tv.values == (-1, 1, 1, 1)

    def test_derivative_traces_match_finite_differences(self, rng):
        h = 1e-6
        for expr in (Fourier(0, 1), LegendreType(2)):
            for _ in range(5):
                p = random_rational_poly(rng, 6)
                tv = trace_of_poly(expr, p).as_array()
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
        S = boundary_form(expr).form.matrix
        assert S.tobytes() == np.asarray(reference, dtype=complex).tobytes()

    def test_legendre_against_worked_brackets(self):
        A = 4.0
        sA = np.sqrt(A)
        bf = boundary_form(LegendreType(4))
        x = np.array([0.3, -1.2, 0.7, 2.5])
        t1 = np.array([sA, 0, 0, 0])
        t2 = np.array([0, 0, sA, 0])
        assert abs(form_eval(bf.form, x, t1) - 8 * sA * x[1]) < 1e-12
        assert abs(form_eval(bf.form, x, t2) + 8 * sA * x[3]) < 1e-12

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
        bf = boundary_form(expr)
        for _ in range(6):
            p = random_rational_poly(rng, 8)
            q = random_rational_poly(rng, 8)
            lhs = green_defect(expr, p, q)
            rhs = form_eval(
                bf.form,
                trace_of_poly(expr, p).as_array(),
                trace_of_poly(expr, q).as_array(),
            )
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_green_identity_complex_first_order(self, rng):
        expr = FirstOrderI()
        bf = boundary_form(expr)
        for _ in range(6):
            p, q = random_complex_poly(rng, 6), random_complex_poly(rng, 6)
            lhs = green_defect(expr, p, q)
            rhs = form_eval(
                bf.form,
                trace_of_poly(expr, p).as_array(),
                trace_of_poly(expr, q).as_array(),
            )
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    @pytest.mark.parametrize(
        "a, b", [(0, 1), (-1, 2), (Fraction(1, 4), Fraction(3, 5))]
    )
    def test_fourier_is_general_even_order_with_unit_q1(self, a, b):
        fourier = Fourier(a, b)
        geo = GeneralEvenOrder((Poly(), Poly([1])), a, b)
        closed, probed = boundary_form(fourier), boundary_form(geo)
        assert closed.form.matrix.tobytes() == probed.form.matrix.tobytes()
        assert closed.labels == probed.labels
        assert fourier.coefficient_polys() == geo.coefficient_polys()
        assert fourier.deficiency == geo.deficiency

    def test_singular_endpoint_rejected(self):
        u = Poly.x()
        w = Poly([1]) - u * u
        geo = GeneralEvenOrder((Poly([0]), Poly([8]) + w.scale(4), w * w), -1, 1)
        with pytest.raises(ExpressionError, match="singular"):
            boundary_form(geo)

    def test_dropped_traces_must_close(self):
        with pytest.raises(ExpressionError, match="do not close"):
            boundary_form(UnclosedFourthOrder())


class TestDeficiency:
    def test_indices(self):
        assert LegendreType(1).deficiency == 2
        assert FirstOrderI().deficiency == 1
        assert Fourier(0, 1).deficiency == 2
        geo = GeneralEvenOrder((Poly([1]), Poly([0, 1]), Poly([1])), 0, 1)
        assert geo.deficiency == 4

    def test_first_order_solution(self):
        sols = FirstOrderI().deficiency_solutions(+1)
        assert len(sols) == 1 == FirstOrderI().deficiency
        assert sols[0].mu == 1.0  # e^u solves i x' = i x
        u = np.linspace(0, 1, 7)
        assert np.abs(sols[0].apply(u) - 1j * sols[0].value(u)).max() < 1e-14

    def test_fourier_solution_count_and_relation(self):
        for sign in (+1, -1):
            sols = Fourier(0, 1).deficiency_solutions(sign)
            assert len(sols) == 2
            u = np.linspace(0, 1, 7)
            for s in sols:
                assert np.abs(s.apply(u) - sign * 1j * s.value(u)).max() < 1e-13
                assert abs(s.mu**2 + sign * 1j) < 1e-15

    def test_legendre_unsupported(self):
        with pytest.raises(ExpressionError):
            LegendreType(1).deficiency_solutions(+1)


class TestSerialization:
    def test_poly_round_trip(self):
        p = Poly([Fraction(1, 3), 2, Fraction(-7, 5)])
        assert poly_from_json(poly_to_json(p)) == p

    def test_complex_poly_round_trip(self):
        p = Poly([1 + 2j, 0.5])
        assert poly_from_json(poly_to_json(p)) == p

    def test_trace_arity(self):
        assert boundary_form(FirstOrderI()).arity == 2
        assert boundary_form(Fourier(0, 1)).arity == 4
        assert boundary_form(LegendreType(1)).arity == 4
