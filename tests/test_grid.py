import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gpdwell.grid import Grid, TrapConfig, integrate, make_grid, potential, quartic_rescale


class TestMakeGrid:
    def test_basic(self):
        grid = make_grid(5.0, 10)
        assert grid.delta == 1.0
        assert np.array_equal(grid.nodes, np.arange(-5.0, 6.0))

    def test_origin_is_a_node(self):
        grid = make_grid(10.0, 2000)
        assert grid.delta == pytest.approx(0.01)
        assert grid.nodes[1000] == 0.0

    def test_rejects_odd_d(self):
        with pytest.raises(ValueError, match="even"):
            make_grid(5.0, 9)

    def test_rejects_nonpositive_l(self):
        for L in (0.0, -1.0, np.nan, np.inf):  # and non-finite
            with pytest.raises(ValueError):
                make_grid(L, 10)

    @pytest.mark.parametrize("L", [1e-300, 1e300])
    def test_rejects_spacing_without_finite_inverse_square(self, L):
        # delta * delta underflows to 0 at L = 1e-300 and overflows to inf at L = 1e300
        with pytest.raises(ValueError, match=re.escape(f"L={L} ")):
            make_grid(L, 400)

    @pytest.mark.parametrize("D", [10.5, 10.0, np.float64(10.0), True, "10", None])
    def test_rejects_non_integer_d(self, D):
        # make_grid used to truncate 10.5 to 10, and Grid took 10.0 and failed only at assembly
        for build in (make_grid, Grid):
            with pytest.raises(ValueError, match="D must be an integer"):
                build(6.0, D)

    def test_numpy_integer_d_is_the_same_grid(self):
        grid = make_grid(6.0, np.int64(400))
        assert type(grid.D) is int and grid == make_grid(6.0, 400)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            make_grid(5.0, 6)

    def test_grid_is_a_value(self):
        # the nodes array is derived from (L, D) and takes no part in equality
        assert make_grid(6, 400) == make_grid(6.0, 400)
        assert hash(make_grid(6, 400)) == hash(make_grid(6.0, 400))
        assert len({make_grid(6, 400), make_grid(6.0, 400)}) == 1
        assert make_grid(6.0, 400) != make_grid(5.0, 400)
        assert make_grid(6.0, 400) != make_grid(6.0, 402)

    @given(st.integers(min_value=4, max_value=500), st.floats(min_value=0.1, max_value=50.0))
    def test_nodes_symmetric_and_increasing(self, half_d, L):
        grid = make_grid(L, 2 * half_d)
        assert np.all(np.diff(grid.nodes) > 0)
        assert grid.nodes[grid.D // 2] == 0.0
        assert np.array_equal(grid.nodes, -grid.nodes[::-1])
        assert grid.delta == pytest.approx(2 * L / (2 * half_d), rel=1e-15)


class TestPotential:
    def test_origin_is_local_max(self):
        assert potential(0.0, 2.0) == 0.0

    def test_value(self):
        assert potential(1.0, 2.0) == -1.0

    def test_minimum(self):
        a = 5.0
        assert potential(np.sqrt(a / 2), a) == pytest.approx(-a**2 / 4)

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False),
           st.floats(min_value=0.1, max_value=20))
    @example(6.369407558257155, 1.0)  # x**4 differed in the last bit for +x and -x
    def test_even(self, x, a):
        assert potential(x, a) == potential(-x, a)

    @pytest.mark.parametrize("grid_name", ["grid4000", "grid1200"])
    @pytest.mark.parametrize("a", [0.5, 1.0, 5.0, 12.0])
    def test_even_on_grid_interior(self, grid_name, a, request):
        # the array path taken by the operator and the effective potential
        v = potential(request.getfixturevalue(grid_name).interior, a)
        assert np.array_equal(v, v[::-1])


class TestTrapConfig:
    def test_validation(self):
        for kwargs in ({"a": 0.0}, {"a": 1.0, "beta": -0.1}, {"a": np.nan}, {"a": np.inf},
                       {"a": 1.0, "beta": np.nan}, {"a": 1.0, "beta": np.inf}):
            with pytest.raises(ValueError):
                TrapConfig(**kwargs)


class TestSzymanzikRescale:
    def test_identity_at_b_one(self):
        (a, b, m), scale = quartic_rescale(3.0, 1.0, 0.7, -1.2)
        assert (a, b, m) == (3.0, 0.7, -1.2)
        assert scale == 1.0

    def test_example(self):
        (a, beta, mu), scale = quartic_rescale(4.0, 8.0, 2.0, 2.0)
        assert a == pytest.approx(1.0)
        assert beta == pytest.approx(1.0)
        assert mu == pytest.approx(1.0)
        assert scale == pytest.approx(8.0 ** (1 / 6))

    def test_rejects_nonpositive_b(self):
        for b in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                quartic_rescale(1.0, b, 1.0, 1.0)


class TestIntegrate:
    def test_constant(self):
        grid = make_grid(5.0, 10)
        assert integrate(grid, np.ones(11)) == pytest.approx(10.0)

    def test_odd_function_leaves_endpoint(self):
        # pairs cancel for alpha = 1..D-1; the lone right endpoint survives
        grid = make_grid(5.0, 10)
        assert integrate(grid, grid.nodes) == pytest.approx(grid.delta * grid.L)

    def test_x_squared_against_analytic(self):
        grid = make_grid(1.0, 1000)
        assert integrate(grid, grid.nodes**2) == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_length_mismatch(self):
        grid = make_grid(5.0, 10)
        with pytest.raises(ValueError):
            integrate(grid, np.ones(10))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=5, max_size=5))
    def test_even_dirichlet_reversal_invariance(self, half):
        grid = make_grid(5.0, 10)
        samples = np.array([0.0] + half + half[::-1][1:] + [0.0])
        assert integrate(grid, samples) == pytest.approx(
            integrate(grid, samples[::-1]), rel=1e-12, abs=1e-9
        )

    @pytest.mark.parametrize("f,exact", [
        (lambda x: x**2, 2.0 / 3.0),
        (lambda x: np.exp(-(x**2)), 1.4936482656248540),  # sqrt(pi)*erf(1)
    ])
    def test_first_order_convergence(self, f, exact):
        errors = []
        for D in (100, 200, 400):
            grid = make_grid(1.0, D)
            errors.append(abs(integrate(grid, f(grid.nodes)) - exact))
        assert errors[1] <= 0.6 * errors[0]
        assert errors[2] <= 0.6 * errors[1]


def test_grid_is_frozen():
    grid = make_grid(5.0, 10)
    with pytest.raises(Exception):
        grid.L = 6.0
