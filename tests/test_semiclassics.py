import numpy as np
import pytest
from oracles import rk4_vector

from gpdwell.grid import TrapConfig, make_grid, potential
from gpdwell.scf import solve_spectrum, solve_state
from gpdwell.semiclassics import (
    ClassicalTrajectory,
    TurningPointError,
    classical_trajectory,
    effective_potential,
    lyapunov_exponent,
    transmission,
    turning_points,
)


def _energy(a, x, p):
    return 0.5 * p**2 + potential(x, a)


class TestTurningPoints:
    def test_bare_well_closed_form(self):
        # -a x^2 + x^4 = mu has inner roots x = +-sqrt((a - sqrt(a^2+4mu))/2).
        grid = make_grid(6.0, 4000)
        a, mu = 2.0, -0.5
        veff = potential(grid.nodes, a)
        pair = turning_points(grid, veff, mu)
        root = np.sqrt((a - np.sqrt(a**2 + 4.0 * mu)) / 2.0)
        assert pair.x1 == pytest.approx(-root, abs=1e-5)
        assert pair.x2 == pytest.approx(root, abs=1e-5)

    def test_symmetric(self):
        grid = make_grid(6.0, 4000)
        veff = potential(grid.nodes, 5.0)
        pair = turning_points(grid, veff, -2.0)
        assert pair.x1 == pytest.approx(-pair.x2, abs=1e-12)

    def test_submerged_barrier_degenerate(self):
        grid = make_grid(6.0, 1000)
        veff = potential(grid.nodes, 2.0)
        pair = turning_points(grid, veff, 0.5)
        assert pair.degenerate
        assert pair.x1 == 0.0 == pair.x2

    def test_mu_below_potential(self):
        grid = make_grid(6.0, 1000)
        veff = potential(grid.nodes, 2.0)
        with pytest.raises(TurningPointError):
            turning_points(grid, veff, -2.0)

    def test_effective_potential_raises_barrier(self, grid4000, ground_a5_b03):
        state = ground_a5_b03.state
        veff = effective_potential(grid4000, TrapConfig(a=5.0, beta=0.3), state.psi)
        bare = potential(grid4000.nodes, 5.0)
        assert np.all(veff >= bare)
        assert veff[grid4000.D // 2] > bare[grid4000.D // 2]


class TestTransmission:
    def test_unity_above_barrier(self, grid4000):
        result = solve_state(grid4000, TrapConfig(a=1.0, beta=0.0), 3)
        assert result.state.mu > 0
        assert transmission(result.state) == 1.0

    def test_in_unit_interval(self, grid4000, ground_a5_b03):
        t = transmission(ground_a5_b03.state)
        assert 0.0 < t < 1.0

    def test_decreases_with_barrier_height(self, grid4000):
        ts = []
        for a in (3.0, 4.0, 5.0):
            r = solve_state(grid4000, TrapConfig(a=a, beta=0.0), 0)
            ts.append(transmission(r.state))
        assert ts[0] > ts[1] > ts[2]

    def test_splitting_tracks_tunneling_rate(self):
        # The ratio (E1 - E0)/sqrt(T0) varies by less than a factor of 3
        # across well depths, the semiclassical link between the doublet
        # gap and the barrier transparency.
        grid = make_grid(6.0, 2000)
        ratios = []
        for a in (3.0, 4.0, 5.0):
            rs = solve_spectrum(grid, TrapConfig(a=a, beta=0.0), 2)
            gap = rs[1].state.energy - rs[0].state.energy
            t = transmission(rs[0].state)
            ratios.append(gap / np.sqrt(t))
        assert max(ratios) / min(ratios) < 3.0


class TestClassicalTrajectory:
    def test_stays_at_minimum(self):
        a = 2.0
        xmin = np.sqrt(a / 2.0)
        traj = classical_trajectory(a, xmin, 0.0, 1e-3, 5.0)
        assert np.max(np.abs(traj.points[:, 0] - xmin)) <= 1e-10
        assert np.max(np.abs(traj.points[:, 1])) <= 1e-10

    def test_energy_conservation(self):
        traj = classical_trajectory(2.0, 1.3, 0.4, 1e-4, 10.0)
        e = _energy(2.0, traj.points[:, 0], traj.points[:, 1])
        assert np.max(np.abs(e - traj.energy)) <= 1e-8

    def test_negative_energy_confined_to_one_well(self):
        traj = classical_trajectory(2.0, 1.2, 0.0, 1e-4, 20.0)
        assert traj.energy < 0.0
        assert np.min(traj.points[:, 0]) > 0.0

    def test_positive_energy_crosses_origin(self):
        traj = classical_trajectory(2.0, 1.0, 1.5, 1e-4, 20.0)
        assert traj.energy > 0.0
        assert np.min(traj.points[:, 0]) < 0.0 < np.max(traj.points[:, 0])

    def test_reflection_symmetry(self):
        fwd = classical_trajectory(3.0, -0.9, 0.2, 1e-4, 5.0)
        mirror = classical_trajectory(3.0, 0.9, -0.2, 1e-4, 5.0)
        np.testing.assert_allclose(fwd.points, -mirror.points, atol=1e-12)

    def test_forward_backward_return(self):
        # Run to time T, then launch from the endpoint with reversed
        # momentum: after another T the trajectory must sit at the start
        # with reversed momentum.
        fwd = classical_trajectory(2.0, 1.1, 0.3, 1e-4, 3.0)
        xT, pT = fwd.points[-1]
        back = classical_trajectory(2.0, xT, -pT, 1e-4, 3.0)
        assert back.points[-1, 0] == pytest.approx(1.1, abs=1e-8)
        assert back.points[-1, 1] == pytest.approx(-0.3, abs=1e-8)

    @pytest.mark.parametrize("a, x0, p0, dt, t_max", [
        (10.0, 1.5, 0.0, 1e-4, 2.0),  # the benchmark orbit, shortened
        (2.0, -0.7, 1.3, 1e-3, 20.0),  # above the separatrix
        (3, 1, 0, 1e-3, 5.0),  # integer inputs
    ])
    def test_bitwise_vector_rk4(self, a, x0, p0, dt, t_max):
        traj = classical_trajectory(a, x0, p0, dt, t_max)
        ref = rk4_vector(a, x0, p0, dt, len(traj.times) - 1)
        assert traj.points.dtype == ref.dtype and traj.points.shape == ref.shape
        assert traj.points.tobytes() == ref.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            classical_trajectory(2.0, 1.0, 0.0, -1e-3, 1.0)
        with pytest.raises(ValueError):
            classical_trajectory(2.0, 1.0, 0.0, 1e-12, 1e3)


class TestLyapunov:
    @pytest.mark.parametrize("a", [0.5, 2.0, 10.0])
    def test_value(self, a):
        assert lyapunov_exponent(a) == pytest.approx(np.sqrt(2.0 * a))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lyapunov_exponent(0.0)

    def test_matches_linearized_growth(self):
        # Near the hyperbolic point a tiny displacement grows like
        # exp(sqrt(2a) t) while it stays in the linear regime.
        a = 2.0
        lam = np.sqrt(2.0 * a)
        traj = classical_trajectory(a, 1e-8, lam * 1e-8, 1e-5, 1.0)
        x = np.abs(traj.points[:, 0])
        rate = np.polyfit(traj.times, np.log(x), 1)[0]
        assert rate == pytest.approx(np.sqrt(2.0 * a), rel=1e-3)
