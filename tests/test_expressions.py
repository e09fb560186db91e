from fractions import Fraction

import numpy as np
import pytest

from gknextend.expressions import (
    ExpressionError,
    FirstOrderI,
    Fourier,
    GeneralEvenOrder,
    LegendreType,
    apply_expr,
    boundary_form,
    green_defect,
    trace_of_poly,
)
from gknextend.polynomials import Poly, poly_from_json, poly_to_json

from conftest import form_eval, random_rational_poly


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


class TestBoundaryForm:
    def test_first_order_matrix(self):
        bf = boundary_form(FirstOrderI())
        assert np.allclose(bf.form.matrix, np.diag([-1j, 1j]))

    def test_legendre_against_worked_brackets(self):
        A = 4.0
        sA = np.sqrt(A)
        bf = boundary_form(LegendreType(4))
        x = np.array([0.3, -1.2, 0.7, 2.5])
        t1 = np.array([sA, 0, 0, 0])
        t2 = np.array([0, 0, sA, 0])
        assert abs(form_eval(bf.form, x, t1) - 8 * sA * x[1]) < 1e-12
        assert abs(form_eval(bf.form, x, t2) + 8 * sA * x[3]) < 1e-12

    def test_fourier_closed_form_equals_integration_by_parts(self):
        bf_closed = boundary_form(Fourier(0, 1))
        geo = GeneralEvenOrder((Poly([0]), Poly([1])), 0, 1)
        bf_ibp = boundary_form(geo)
        assert np.abs(bf_closed.form.matrix - bf_ibp.form.matrix).max() < 1e-12

    def test_green_identity_random_polynomials(self, rng):
        geo = GeneralEvenOrder((Poly([1]), Poly([0, 1]), Poly([1, 0, Fraction(1, 2)])), 0, 1)
        for expr in (Fourier(0, 1), Fourier(-1, 2), geo):
            bf = boundary_form(expr)
            for _ in range(6):
                p = random_rational_poly(rng, 6)
                q = random_rational_poly(rng, 6)
                lhs = green_defect(expr, p, q)
                rhs = form_eval(
                    bf.form,
                    trace_of_poly(expr, p).as_array(),
                    trace_of_poly(expr, q).as_array(),
                )
                assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_green_identity_legendre_polynomials(self, rng):
        expr = LegendreType(Fraction(5, 2))
        bf = boundary_form(expr)
        for _ in range(6):
            p = random_rational_poly(rng, 6)
            q = random_rational_poly(rng, 6)
            lhs = green_defect(expr, p, q)
            rhs = form_eval(
                bf.form,
                trace_of_poly(expr, p).as_array(),
                trace_of_poly(expr, q).as_array(),
            )
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    @pytest.mark.parametrize(
        "a, b", [(0, 1), (-1, 2), (Fraction(1, 4), Fraction(3, 5))]
    )
    def test_fourier_is_general_even_order_with_unit_q1(self, a, b):
        # the probe form costs 3-6 ms per build against 0.03-0.05 ms for the
        # closed form (Xeon, one thread), so Fourier keeps its closed form
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

    def test_order_six_rejected(self):
        geo = GeneralEvenOrder((Poly([1]), Poly([1]), Poly([1]), Poly([1])), 0, 1)
        with pytest.raises(ExpressionError, match="order"):
            boundary_form(geo)


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
