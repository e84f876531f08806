import numpy as np
import pytest

import gpdwell.wigner
from gpdwell.grid import TrapConfig, make_grid
from gpdwell.scf import solve_state
from gpdwell.wigner import momentum_cells, negativity, wigner_transform

from oracles import wigner_cosine_sum, wigner_point_quadrature, x_marginal


def _normalized(grid, values):
    norm = np.sqrt(grid.delta * np.sum(values[1:] ** 2))
    return values / norm


def _gaussian(grid, sigma=1.0):
    psi = np.exp(-grid.nodes**2 / (4.0 * sigma**2))
    psi[0] = psi[-1] = 0.0
    return _normalized(grid, psi)


def _hermite1(grid):
    psi = grid.nodes * np.exp(-grid.nodes**2 / 2.0)
    psi[0] = psi[-1] = 0.0
    return _normalized(grid, psi)


class TestWignerTransform:
    def test_gaussian_is_nonnegative(self):
        grid = make_grid(12.0, 1200)
        field = wigner_transform(grid, _gaussian(grid))
        assert negativity(field) <= 1e-3

    def test_normalization(self):
        grid = make_grid(12.0, 1200)
        field = wigner_transform(grid, _gaussian(grid))
        assert field.phase_space_integral() == pytest.approx(1.0, abs=1e-3)

    def test_position_marginal_matches_density(self):
        grid = make_grid(12.0, 1200)
        psi = _gaussian(grid, sigma=0.8)
        field = wigner_transform(grid, psi)
        marg = x_marginal(field)
        assert np.max(np.abs(marg - psi**2)) <= 1e-12

    def test_odd_state_negative_at_origin(self):
        grid = make_grid(12.0, 1200)
        field = wigner_transform(grid, _hermite1(grid))
        mid = grid.D // 2
        p0 = field.values.shape[1] // 2
        assert field.values[mid, p0] < 0.0
        assert field.values[mid, p0] == pytest.approx(-1.0 / np.pi, abs=1e-3)

    def test_agrees_with_direct_quadrature(self):
        grid = make_grid(12.0, 1200)
        psi = _hermite1(grid)
        field = wigner_transform(grid, psi)
        mid = grid.D // 2
        p0 = field.values.shape[1] // 2
        for i, j in [(mid, p0), (mid + 120, p0 + 3), (mid - 240, p0 + 10)]:
            x = grid.nodes[i]
            p = field.p_nodes[j]
            ref = wigner_point_quadrature(grid, psi, x, p)
            assert field.values[i, j] == pytest.approx(ref, abs=5e-4)

    def test_even_state_symmetry(self):
        # W is even in p, and in x for either parity, in bits and not only in
        # value (which takes -0.0 for 0.0): the CLI writes each mirrored half-row
        # of the Wigner table from one set of strings
        grid = make_grid(12.0, 1200)
        states = [(grid, _gaussian(grid)), (grid, _hermite1(grid))]
        for a, beta, n in [(2.0, 0.0, 0), (2.0, 0.0, 1), (5.0, 0.5, 2), (1.0, 1.0, 3)]:
            state = solve_state(grid, TrapConfig(a=a, beta=beta), n).state
            states.append((state.grid, state.psi))
        for state_grid, psi in states:
            bits = wigner_transform(state_grid, psi).values.view(np.int64)
            np.testing.assert_array_equal(bits, bits[::-1, :])
            np.testing.assert_array_equal(bits, bits[:, ::-1])

    @pytest.mark.parametrize("P", [None, 1200])
    @pytest.mark.parametrize("state", ["gaussian", 0, 1])
    def test_matches_cosine_sum(self, state, P):
        grid = make_grid(12.0, 1200)
        if state == "gaussian":
            psi = _gaussian(grid)
        else:
            psi = solve_state(grid, TrapConfig(a=2.0, beta=0.0), state).state.psi
        field = wigner_transform(grid, psi, P=P)
        np.testing.assert_allclose(field.values, wigner_cosine_sum(grid, psi, P=P),
                                   rtol=0.0, atol=1e-13)

    def test_sign_flip_invariance(self):
        grid = make_grid(12.0, 600)
        psi = _hermite1(grid)
        f1 = wigner_transform(grid, psi)
        f2 = wigner_transform(grid, -psi)
        np.testing.assert_array_equal(f1.values, f2.values)

    def test_momentum_grid_spans_one_period(self):
        grid = make_grid(12.0, 1200)
        p = wigner_transform(grid, _gaussian(grid)).p_nodes
        np.testing.assert_array_equal(p, -p[::-1])
        assert p[-1] == pytest.approx(np.pi / (2.0 * grid.delta), rel=1e-15)

    def test_default_P_when_half_D_is_odd(self):
        # D = 402: P is 202, the smallest even integer >= D/2, not D // 2 = 201
        grid = make_grid(12.0, 402)
        psi = _hermite1(grid)
        field = wigner_transform(grid, psi)
        assert field.p_nodes.size == 203
        np.testing.assert_allclose(field.values, wigner_cosine_sum(grid, psi, P=202),
                                   rtol=0.0, atol=1e-13)
        assert field.phase_space_integral() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(x_marginal(field), psi**2, rtol=0.0, atol=1e-12)

    def test_parameter_validation(self):
        grid = make_grid(12.0, 600)
        psi = _gaussian(grid)
        with pytest.raises(ValueError):
            wigner_transform(grid, psi, P=0)
        with pytest.raises(ValueError):
            wigner_transform(grid, psi[1:])
        with pytest.raises(ValueError):
            wigner_transform(grid, np.zeros_like(psi))

    def test_size_cap_before_any_allocation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gpdwell.wigner, "sliding_window_view",
                            lambda *args: calls.append(args))
        grid = make_grid(12.0, 400)
        with pytest.raises(ValueError, match="401000401 values"):  # the (401, 10^6 + 1) field
            wigner_transform(grid, _gaussian(grid), P=1_000_000)
        assert calls == []

    def test_size_cap_counts_the_largest_array(self):
        assert momentum_cells(1200) == 600  # a 1201 x 601 field, a 1201 x 1200 correlation
        assert momentum_cells(7070) == 3536  # 3536 correlation columns fold unpadded
        for D, P in ((7072, None), (40000, None), (40000, 2)):  # the correlation is too large
            with pytest.raises(ValueError, match="more than 50000000"):
                momentum_cells(D, P)


class TestNegativity:
    def test_zero_for_nonnegative_field(self):
        grid = make_grid(12.0, 600)
        field = wigner_transform(grid, _gaussian(grid))
        assert negativity(field) >= 0.0
        assert negativity(field) <= 1e-3

    def test_positive_for_excited_state(self):
        grid = make_grid(12.0, 1200)
        field = wigner_transform(grid, _hermite1(grid))
        assert negativity(field) > 0.1

    def test_momentum_refinement_drift(self):
        grid = make_grid(12.0, 1200)
        result = solve_state(grid, TrapConfig(a=2.0, beta=0.0), 0)
        coarse = negativity(wigner_transform(grid, result.state.psi))
        fine = negativity(wigner_transform(grid, result.state.psi,
                                           P=2 * (grid.D // 2)))
        assert abs(fine - coarse) <= 1e-3

    def test_ground_state_baseline(self):
        grid = make_grid(12.0, 1200)
        result = solve_state(grid, TrapConfig(a=2.0, beta=0.0), 0)
        delta = negativity(wigner_transform(grid, result.state.psi))
        assert delta == pytest.approx(0.087267, abs=1e-3)

    def test_monotone_in_beta_shallow_well(self):
        grid = make_grid(12.0, 1200)
        vals = []
        for beta in (0.0, 0.25, 0.5):
            r = solve_state(grid, TrapConfig(a=2.0, beta=beta), 0)
            vals.append(negativity(wigner_transform(grid, r.state.psi)))
        assert vals[0] < vals[1] < vals[2]

    def test_monotone_in_beta_deep_well(self):
        grid = make_grid(12.0, 1200)
        vals = []
        for beta in (0.0, 0.25, 0.5):
            r = solve_state(grid, TrapConfig(a=5.0, beta=beta), 0)
            vals.append(negativity(wigner_transform(grid, r.state.psi)))
        assert vals[0] > vals[1] > vals[2]
