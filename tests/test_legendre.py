import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gknextend import catalog
from gknextend.cli import run
from gknextend.expressions import GeneralEvenOrder, LegendreType, apply_expr
from gknextend.legendre import (
    IDENTITY,
    IntegerBasis,
    LegendreError,
    _cleared,
    apply_terms,
    endpoint_values,
    exact_suite,
    expression_matrix,
    extended_gram,
    lt_eigenvalue,
    operator_basis,
    scaled_terms,
)
from gknextend.polynomials import Poly

from conftest import (
    extended_eigen_check,
    fraction_suite,
    gram_schmidt,
    mu_inner,
    random_rational_poly,
    reference_eigenvalue,
)

A_VALUES = (Fraction(1), Fraction(5, 2), Fraction(10))
I2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
ZERO = ((0, 0), (0, 0))

# the A of every `exact_legendre` op of benchmark seeds 1-3, as the CLI reads them
# from JSON (binary floats), and three exact values far apart
BENCHMARK_A = (1.91, 2.67, 1.49, 3.01, 3.19, 3.13, 1.03, 3.37, 1.57)
BASIS_A = tuple(Fraction(a) for a in BENCHMARK_A) + (Fraction(1, 7), Fraction(1), Fraction(10**5))


def image(basis, n):
    return apply_expr(LegendreType(basis.A), basis[n])


def suite(basis, control_B=IDENTITY) -> dict:
    """The exact suite on the basis, with the eigenvalues the formula claims."""
    eigenvalues = [lt_eigenvalue(n, basis.A) for n in range(len(basis.vectors))]
    return exact_suite(basis, eigenvalues, control_B)


def monic(q) -> tuple:
    """The integer vector q scaled to leading coefficient 1."""
    return tuple(Fraction(c, q[-1]) for c in q)


def with_vector(basis, n, q) -> IntegerBasis:
    """The basis with q in place of q_n."""
    vectors = basis.vectors[:n] + (tuple(q),) + basis.vectors[n + 1:]
    return IntegerBasis(basis.A, basis.den, basis.terms, vectors)


def moment_scale(A, degree) -> int:
    """D = num(A) lcm(1..2d+1), the scale of `extended_gram` for top degree d."""
    return A.numerator * math.lcm(*range(1, 2 * degree + 2))


class TestMuInner:
    """The reference inner product the operator basis is checked against."""

    def test_constants(self):
        assert mu_inner(Poly([1]), Poly([1]), Fraction(1)) == 4

    def test_odd_pairing_vanishes(self):
        assert mu_inner(Poly([1]), Poly([0, 1]), Fraction(3)) == 0

    def test_linear_norm(self):
        assert mu_inner(Poly([0, 1]), Poly([0, 1]), Fraction(1)) == Fraction(8, 3)

    def test_rejects_floats(self):
        with pytest.raises(LegendreError):
            mu_inner(Poly([0.5]), Poly([1]), Fraction(1))


class TestGramSchmidt:
    """The reference basis: monic orthogonal polynomials of the point-mass measure."""

    def test_first_three_polynomials(self):
        basis = gram_schmidt(Fraction(1), 2)
        assert basis[0] == Poly([1])
        assert basis[1] == Poly([0, 1])
        assert basis[2] == Poly([Fraction(-2, 3), 0, 1])

    def test_degree_and_monic(self):
        basis = gram_schmidt(Fraction(5, 2), 8)
        for n, p in enumerate(basis.polys):
            assert p.degree == n
            assert p.coeffs[-1] == 1

    @pytest.mark.parametrize("A", A_VALUES)
    def test_exact_orthogonality(self, A):
        basis = gram_schmidt(A, 12)
        for m in range(13):
            for n in range(m + 1, 13):
                assert mu_inner(basis[m], basis[n], A) == 0


class TestOperatorBasis:
    @pytest.mark.parametrize("A", BASIS_A, ids=str)
    def test_equals_reference_basis(self, A):
        basis = operator_basis(A, 24)
        for q, p in zip(basis.vectors, gram_schmidt(A, 24).polys):
            assert monic(q) == p.coeffs
            assert math.gcd(*q) == 1 and q[-1] > 0

    def test_cap(self):
        with pytest.raises(LegendreError):
            operator_basis(Fraction(1), 30)

    @pytest.mark.parametrize(
        "A, den",
        [(Fraction(7, 3), 3), (Fraction(1, 4), 1), (Fraction(3, 8), 2), (Fraction(5, 16), 4)],
    )
    def test_den_is_the_least_common_denominator(self, A, den):
        # the coefficients 4A + 12 and 8A: A = 1/4 needs no scaling at all
        assert scaled_terms(LegendreType(A))[0] == den

    @pytest.mark.parametrize("A", A_VALUES + (Fraction(1, 4), Fraction(7, 3)))
    def test_matrix_is_triangular_with_the_eigenvalues_on_its_diagonal(self, A):
        den, terms = scaled_terms(LegendreType(A))
        L = expression_matrix(terms, 24)
        for j in range(25):
            assert L[j][j] == den * lt_eigenvalue(j, A)
            assert all(L[i][j] == 0 for i in range(j + 1, 25))

    def test_matrix_columns_are_images_of_monomials(self):
        expr = LegendreType(Fraction(7, 3))
        den, terms = scaled_terms(expr)
        L = expression_matrix(terms, 10)
        for j in range(11):
            col = apply_expr(expr, Poly([0] * j + [1])).scale(den)
            assert Poly([L[i][j] for i in range(11)]) == col
            assert Poly(apply_terms(terms, (0,) * j + (1,))) == col

    @pytest.mark.parametrize(
        "qs",
        [
            (Poly([0, 0, 1]), Poly([1])),  # u^2 x - x'': a degree-2 multiplier
            (Poly([0]), Poly([0, 0, 0, 1])),  # -(u^3 x')' = -u^3 x'' - 3u^2 x'
        ],
    )
    def test_degree_raising_expression_is_refused(self, qs):
        with pytest.raises(LegendreError, match="degree"):
            expression_matrix(scaled_terms(GeneralEvenOrder(qs, 1, 2))[1], 4)


class TestEigenCheck:
    def test_constant(self):
        basis = operator_basis(Fraction(1), 2)
        assert basis.vectors[0] == (1,)
        assert apply_terms(basis.terms, basis.vectors[0]) == ()

    def test_linear(self):
        for A in A_VALUES:
            basis = operator_basis(A, 2)
            assert basis.vectors[1] == (0, 1)
            assert apply_terms(basis.terms, basis.vectors[1]) == (0, _cleared(8 * A, basis.den))

    def test_quadratic(self):
        for A in A_VALUES:
            basis = operator_basis(A, 2)
            lam = _cleared(24 * A + 24, basis.den)
            q2 = basis.vectors[2]
            assert apply_terms(basis.terms, q2) == tuple(lam * c for c in q2)

    @pytest.mark.parametrize("A", A_VALUES)
    def test_formula_through_degree_twelve(self, A):
        basis = gram_schmidt(A, 12)
        q = operator_basis(A, 12)
        for n in range(13):
            lam = reference_eigenvalue(n, A)
            assert image(basis, n) == basis[n].scale(lam)
            qn = q.vectors[n]
            assert Poly(apply_terms(q.terms, qn)) == Poly(_cleared(lam, q.den) * c for c in qn)
        assert suite(q)["eigenvalue_formula_exact"]

    def test_tampered_basis_reports_coefficient(self):
        basis = operator_basis(Fraction(1), 3)
        wrong = with_vector(basis, 1, (1, 7))  # 7(u + 1/7)
        img = apply_terms(wrong.terms, wrong.vectors[1])
        # l(7u + 1) = 56u against lambda_1 (7u + 1) = 56u + 8: only coefficient 0 differs
        assert tuple(i - 8 * c for i, c in zip(img, wrong.vectors[1])) == (-8, 0)
        verdicts = suite(wrong)
        assert not verdicts["eigenvalue_formula_exact"]
        assert not verdicts["extended_eigen_relation_exact"]
        assert not verdicts["extended_orthogonality_exact"]


class TestBoundaryIdentity:
    def test_trivial_constant(self):
        assert suite(operator_basis(Fraction(1), 0))["boundary_identity_exact"]

    @pytest.mark.parametrize("A", A_VALUES)
    def test_exact_through_degree_twelve(self, A):
        basis = operator_basis(A, 12)
        assert suite(basis)["boundary_identity_exact"]
        w8 = _cleared(8 * A, basis.den)
        for n in range(13):
            qm, qp, dqm, dqp = endpoint_values(basis.vectors[n])
            lam = _cleared(lt_eigenvalue(n, A), basis.den)
            assert w8 * dqp == lam * qp and -w8 * dqm == lam * qm

    def test_endpoint_values(self):
        # q = 3 - u + 2u^2 + 5u^3: q(-1) = 1, q(1) = 9, q'(-1) = 10, q'(1) = 18
        assert endpoint_values((3, -1, 2, 5)) == (1, 9, 10, 18)
        assert endpoint_values(()) == (0, 0, 0, 0)

    def test_opposite_pairing_fails(self):
        # the empirical sign resolution: swapping the endpoint signs breaks q_1
        A = Fraction(1)
        basis = operator_basis(A, 1)
        qm, qp, dqm, dqp = endpoint_values(basis.vectors[1])
        w8, lam = _cleared(8 * A, basis.den), _cleared(lt_eigenvalue(1, A), basis.den)
        assert -w8 * dqp != lam * qp
        assert w8 * dqm != lam * qm
        # the library's pairing holds on the same vector, and fails on a
        # tampered one whose endpoint derivatives keep their values
        assert suite(basis)["boundary_identity_exact"]
        assert not suite(with_vector(basis, 1, (1, 1)))["boundary_identity_exact"]


class TestExtendedChecks:
    def test_constant_eigenvector(self):
        assert suite(operator_basis(Fraction(1), 0))["extended_eigen_relation_exact"]

    @pytest.mark.parametrize("A", A_VALUES)
    def test_exact_eigenvectors(self, A):
        assert all(suite(operator_basis(A, 10)).values())

    def test_identity_b_breaks_every_eigenvector(self):
        # P_0 included: a = (1, 1), Omega P_0 = 0 and lambda_0 = 0, so B a = a != 0
        basis = gram_schmidt(Fraction(1), 10)
        for n in range(11):
            assert not extended_eigen_check(basis, n, image(basis, n), I2)

    @pytest.mark.parametrize("n_max", [0, 1, 10])
    def test_do_nothing_control_reads_false(self, n_max):
        # B = 0 breaks nothing, so the control check must fail, at n_max 0 too
        basis = operator_basis(Fraction(5, 2), n_max)
        assert suite(basis, ZERO)["nonzero_B_breaks_eigenvectors"] is False
        assert suite(basis, IDENTITY)["nonzero_B_breaks_eigenvectors"] is True

    def test_control_at_n_max_zero_in_the_report(self):
        report = run({"example": "legendre_type", "n_max": 0}, "legendre")
        assert report["status"] == "pass"
        assert {c["name"]: c["pass"] for c in report["checks"]}["nonzero_B_breaks_eigenvectors"]

    def test_orthogonality_values(self):
        gram = extended_gram(operator_basis(Fraction(1), 3))
        assert gram[0][1] == 0
        assert gram[1][2] == 0
        assert gram[2][2] > 0

    def test_extended_inner_equals_measure_inner(self):
        for A in A_VALUES:
            basis = operator_basis(A, 6)
            gram, D = extended_gram(basis), moment_scale(A, 6)
            polys = [Poly(q) for q in basis.vectors]
            for m, p in enumerate(polys):
                for n, q in enumerate(polys):
                    assert gram[m][n] == D * mu_inner(p, q, A)

    @pytest.mark.parametrize("A", A_VALUES + (Fraction(1, 7),))
    def test_moment_form_equals_measure_inner_on_random_polynomials(self, A, rng):
        polys = [random_rational_poly(rng, int(d)) for d in rng.integers(0, 9, size=6)]
        # clear each polynomial's denominators: the Gram scales by the products
        vecs = [
            tuple(int(c * math.lcm(*(c.denominator for c in p.coeffs))) for c in p.coeffs)
            for p in polys
        ]
        gram = extended_gram(IntegerBasis(A, 1, (), tuple(vecs)))
        D = moment_scale(A, max(len(v) for v in vecs) - 1)
        for m, p in enumerate(vecs):
            for n, q in enumerate(vecs):
                assert gram[m][n] == D * mu_inner(Poly(p), Poly(q), A)

    @pytest.mark.parametrize("coeff", [0, 1, 2])
    def test_perturbed_coefficient_breaks_orthogonality(self, coeff):
        basis = operator_basis(Fraction(5, 2), 10)
        q6 = list(basis.vectors[6])
        q6[coeff] += 1
        wrong = with_vector(basis, 6, q6)
        gram = extended_gram(wrong)
        pairs = [(m, n) for m in range(11) for n in range(11) if m != n]
        # only the pairs holding the perturbed q_6 lose orthogonality
        assert any(gram[m][n] for m, n in pairs if 6 in (m, n))
        assert not any(gram[m][n] for m, n in pairs if 6 not in (m, n))
        verdicts = suite(wrong)
        assert not verdicts["extended_orthogonality_exact"]
        assert not verdicts["eigenvalue_formula_exact"]


class TestAgreementSweep:
    """The integer suite against the Fraction reference on seeded (A, n_max) pairs."""

    PAIRS = 200

    @staticmethod
    def draws(seed: int):
        rng = random.Random(seed)
        for i in range(TestAgreementSweep.PAIRS):
            # log-uniform over [1e-3, 1e12], alternating with short decimals
            A = 10 ** rng.uniform(-3, 12) if i % 2 else rng.randrange(1, 1000) / 100
            yield A, rng.randint(0, 24)

    def test_verdicts_eigenvalues_and_basis_match_reference(self):
        for A, n_max in self.draws(18):
            exact = catalog._exact(A)
            cfg = {"example": "legendre_type", "params": {"A": A}, "n_max": n_max}
            report = run(cfg, "legendre")
            verdicts = {c["name"]: c["pass"] for c in report["checks"]}
            assert verdicts == fraction_suite(exact, n_max), (A, n_max)
            assert report["legendre_eigenvalues"] == [
                str(reference_eigenvalue(n, exact)) for n in range(n_max + 1)
            ], (A, n_max)
            reference = gram_schmidt(exact, n_max)
            for n, q in enumerate(operator_basis(exact, n_max).vectors):
                assert monic(q) == reference[n].coeffs, (A, n_max, n)


class TestConsistencyWithFloatModel:
    def test_gkn_pipeline_admits_eigenvectors(self):
        # derived constraint rows annihilate every (P_n, (P_n(-1), P_n(1)))
        from gknextend.catalog import build_example

        entry = build_example("legendre_type", {"A": 1.0})
        bc = entry.boundary_conditions()
        basis = operator_basis(Fraction(1), 8)
        from conftest import trace_of_poly

        for n in range(9):
            p = Poly(monic(basis.vectors[n]))
            tr = np.array(trace_of_poly(LegendreType(Fraction(1)), p), dtype=complex)
            vec = np.concatenate([tr, [complex(p(Fraction(-1))), complex(p(Fraction(1)))]])
            assert np.abs(bc.canonical @ vec).max() < 1e-9

    def test_exact_omega_matches_float_omega(self):
        from gknextend.catalog import build_example
        from conftest import trace_of_poly

        entry = build_example("legendre_type", {"A": 2.0})
        basis = operator_basis(Fraction(2), 6)
        w8 = _cleared(16, basis.den)
        for n in range(7):
            q = basis.vectors[n]
            _, _, dqm, dqp = endpoint_values(q)
            # Omega of the monic P_n = q_n / c_n, with c_n the leading coefficient of q_n
            scale = basis.den * q[-1]
            exact = np.array([float(Fraction(w8 * dqm, scale)), float(Fraction(-w8 * dqp, scale))])
            tr = np.array(trace_of_poly(LegendreType(Fraction(2)), Poly(monic(q))), dtype=complex)
            assert np.abs(entry.model.Omega @ tr - exact).max() < 1e-9
