import numpy as np
import pytest

from conftest import direct_grid
from gknextend import cli
from gknextend.catalog import build_example
from gknextend.collocation import (
    _reference_grid,
    make_grid,
    reference_chebyshev,
    reference_diff_rinv,
    reference_diff_similar,
)
from gknextend.spectral import discretize, trace_rows


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
            du = g.D1 @ u
            assert np.abs(du - m * g.nodes ** (m - 1)).max() < 1e-10

    def test_higher_derivatives(self):
        # repeated differentiation amplifies roundoff roughly like N^(2k) eps;
        # the assembly applies D_k as h^-k (D_k R_ref^-1)_ref R_ref
        g = make_grid(48, -1.0, 1.0)
        u = g.nodes**5

        def diff(k):
            return reference_diff_rinv(g.N, k) @ (g.gram_factor @ u) / g.h**k

        assert np.abs(diff(2) - 20 * g.nodes**3).max() < 1e-8
        assert np.abs(diff(4) - 120 * g.nodes).max() < 1e-4

    @pytest.mark.parametrize("N", [16, 64, 256])
    @pytest.mark.parametrize("name", ["fourier_3_3", "first_order", "legendre_type"])
    def test_trace_rows_are_endpoint_rows_of_the_powers(self, name, N):
        # x^(k) at a, then at b, for k below the traces per endpoint
        expr = build_example(name).model.expr
        a, b = (float(v) for v in expr.interval)
        _, D, _ = direct_grid(N, a, b)
        powers = [np.eye(N + 1), *D]
        d = expr.traces_per_endpoint
        want = np.array([powers[k][idx] for idx in (0, N) for k in range(d)])
        got = trace_rows(make_grid(N, a, b), expr)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-12 * np.abs(want).max(axis=1))

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


class TestReferenceGrid:
    """make_grid scales a per-N reference on [-1, 1]; direct_grid builds on [a, b]."""

    @pytest.mark.parametrize("interval", [(0.0, 1.0), (100.0, 101.0), (0.0, 1e-3), (-1.0, 99.0)])
    @pytest.mark.parametrize("N", [8, 16, 64, 256, 257])
    def test_agrees_with_direct_build(self, N, interval):
        a, b = interval
        g = make_grid(N, a, b)
        nodes, D, _ = direct_grid(N, a, b)
        assert g.nodes[0] == a and g.nodes[-1] == b
        for got, want in ((g.nodes, nodes), (g.D1, D[0])):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # The interpolant Gram depends on b - a only.  Built directly on
        # [100, 101], it loses digits to the cancellation in (Gauss point -
        # node) at an offset of 100 (3.7e-12 relative at N = 256), so it is
        # compared with the direct build on the centred interval of equal length.
        h = (b - a) / 2
        want = direct_grid(N, -h, h)[2]
        assert np.abs(g.gram - want).max() <= 1e-12 * np.abs(want).max()

    def test_returned_arrays_do_not_alias_the_reference(self):
        def arrays(g):
            return (g.nodes, g.D1, g.gram)

        before = arrays(make_grid(32, 0.0, 1.0))
        for m in arrays(make_grid(32, 0.0, 1.0)):
            m[...] = np.nan
        for x, y in zip(before, arrays(make_grid(32, 0.0, 1.0))):
            assert np.array_equal(x, y)

    def test_reference_is_read_only(self):
        for m in _reference_grid(32):
            assert not m.flags.writeable

    def test_built_once_per_N(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"example": "fourier_3_3", "grid_N": 48}')
        _reference_grid.cache_clear()
        for _ in range(2):
            assert cli.main(["spectrum", "--config", str(path)]) == 0
        info = _reference_grid.cache_info()
        # one build; read again by the second run's grid, by the one right
        # factor (D_2 R_ref^-1) the first run builds from its d/dt and by the
        # probe's Chebyshev columns the first run builds
        assert (info.misses, info.hits) == (1, 3)

    @pytest.mark.parametrize("order", range(5))
    def test_right_factor_times_gram_factor_is_the_reference_power(self, order):
        # on [-1, 1] (h = 1) the D_order of a direct build is the reference one
        g = make_grid(48, -1.0, 1.0)
        F = reference_diff_rinv(48, order)
        assert not F.flags.writeable
        assert F is reference_diff_rinv(48, order)
        D = [np.eye(49), *direct_grid(48, -1.0, 1.0)[1]][order]
        assert np.abs(F @ g.gram_factor - D).max() <= 1e-12 * np.abs(D).max()

    @pytest.mark.parametrize("order", range(5))
    def test_similar_factor_is_gram_factor_times_right_factor(self, order):
        g = make_grid(48, -1.0, 1.0)
        G = reference_diff_similar(48, order)
        assert not G.flags.writeable
        assert G is reference_diff_similar(48, order)
        want = g.gram_factor @ reference_diff_rinv(48, order)
        assert np.abs(G - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("N, degree", [(16, 16), (48, 24), (256, 24)])
    def test_chebyshev_columns_are_the_probe_polynomials(self, N, degree):
        # T_j of the affine coordinate of any grid of this N, and their image
        # under the Gram factor, cached read-only
        V, RV = reference_chebyshev(N, degree)
        assert all(x is y for x, y in zip(reference_chebyshev(N, degree), (V, RV)))
        assert not (V.flags.writeable or RV.flags.writeable)
        g = make_grid(N, 2.0, 5.0)
        t = (2 * g.nodes - g.a - g.b) / (g.b - g.a)
        want = np.polynomial.chebyshev.chebvander(t, degree)
        assert np.abs(V - want).max() <= 1e-13 * degree**2
        assert np.abs(RV - g.gram_factor @ want).max() <= 1e-13 * degree**2 * np.abs(RV).max()

    def test_right_factors_built_only_for_the_orders_used(self):
        # a constant coefficient reads R_ref D_j R_ref^-1 alone, and D_j R_ref^-1
        # is kept only for the variable ones
        reference_diff_rinv.cache_clear()
        reference_diff_similar.cache_clear()
        for name, a, right, similar in (
            ("fourier_3_3", 0.0, set(), {2}),
            ("first_order", 0.0, set(), {1, 2}),
            ("legendre_type", -1.0, {1, 2, 3, 4}, {1, 2}),
        ):
            entry = build_example(name)
            discretize(entry.model, make_grid(40, a, 1.0))
            assert reference_diff_rinv.cache_info().currsize == len(right)
            assert reference_diff_similar.cache_info().currsize == len(similar)
        # and the cached orders are those: reading them again builds nothing
        for factor, orders in ((reference_diff_rinv, right), (reference_diff_similar, similar)):
            misses = factor.cache_info().misses
            for order in orders:
                factor(40, order)
            assert factor.cache_info().misses == misses
