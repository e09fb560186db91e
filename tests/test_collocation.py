import numpy as np
import pytest

from gknextend.collocation import make_grid


class TestGrid:
    def test_nodes_ascending_with_exact_endpoints(self):
        g = make_grid(32, -1.0, 2.5)
        assert g.nodes[0] == -1.0 and g.nodes[-1] == 2.5
        assert np.all(np.diff(g.nodes) > 0)

    @pytest.mark.parametrize("N", [32, 64])
    def test_first_derivative_of_monomials(self, N):
        g = make_grid(N, 0.0, 1.0)
        for m in range(1, 6):
            u = g.nodes**m
            du = g.diff(1) @ u
            assert np.abs(du - m * g.nodes ** (m - 1)).max() < 1e-10

    def test_higher_derivatives(self):
        # repeated differentiation amplifies roundoff roughly like N^(2k) eps
        g = make_grid(48, -1.0, 1.0)
        u = g.nodes**5
        assert np.abs(g.diff(2) @ u - 20 * g.nodes**3).max() < 1e-8
        assert np.abs(g.diff(4) @ u - 120 * g.nodes).max() < 1e-4

    def test_gram_is_exact_for_polynomial_samples(self, rng):
        g = make_grid(24, 0.0, 2.0)
        for _ in range(5):
            pc = rng.standard_normal(8)
            qc = rng.standard_normal(8)
            p = np.polynomial.Polynomial(pc)
            q = np.polynomial.Polynomial(qc)
            exact = (p * q).integ()(2.0) - (p * q).integ()(0.0)
            got = (p(g.nodes).conj() @ g.gram @ q(g.nodes)).real
            assert abs(got - exact) < 1e-12 * (1 + abs(exact))

    def test_gram_positive_definite(self):
        g = make_grid(32, 0.0, 1.0)
        assert np.linalg.eigvalsh(g.gram).min() > 0

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            make_grid(4, 0.0, 1.0)
