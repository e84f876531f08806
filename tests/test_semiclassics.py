import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import rk4_vector, turning_points

from gpdwell.grid import TrapConfig, make_grid, potential
from gpdwell.scf import solve_spectrum, solve_state
from gpdwell.semiclassics import (
    MAX_STEPS,
    ClassicalTrajectory,
    TurningPointError,
    _barrier_edge,
    classical_trajectory,
    kept_steps,
    lyapunov_exponent,
    transmission,
)


def _energy(a, x, p):
    return 0.5 * p**2 + potential(x, a)


class TestTurningPoints:
    def test_bare_well_closed_form(self):
        # -a x^2 + x^4 = mu has inner roots x = +-sqrt((a - sqrt(a^2+4mu))/2).
        grid = make_grid(6.0, 4000)
        a, mu = 2.0, -0.5
        x2 = _barrier_edge(grid, potential(grid.nodes, a), mu)
        root = np.sqrt((a - np.sqrt(a**2 + 4.0 * mu)) / 2.0)
        assert x2 == pytest.approx(root, abs=1e-5)

    def test_symmetric(self):
        grid = make_grid(6.0, 4000)
        veff = potential(grid.nodes, 5.0)
        x1, x2 = turning_points(grid, veff, -2.0)
        assert x1 == -x2 == -_barrier_edge(grid, veff, -2.0)

    @settings(max_examples=200, deadline=None)
    @given(half=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=40),
           mu=st.floats(-10.0, 10.0))
    def test_edge_matches_two_sided_scan(self, half, mu):
        # For any even veff, the one-sided edge gives the two-sided pair bitwise.
        half = np.array(half)
        veff = np.concatenate([half[:0:-1], half])  # mirror image about x = 0
        grid = make_grid(6.0, veff.size - 1)
        if mu < veff.min():
            with pytest.raises(TurningPointError):
                _barrier_edge(grid, veff, mu)
            return
        x2 = _barrier_edge(grid, veff, mu)
        assert turning_points(grid, veff, mu) == (-x2, x2)

    def test_submerged_barrier_degenerate(self):
        grid = make_grid(6.0, 1000)
        assert _barrier_edge(grid, potential(grid.nodes, 2.0), 0.5) == 0.0

    def test_mu_below_potential(self):
        grid = make_grid(6.0, 1000)
        veff = potential(grid.nodes, 2.0)
        with pytest.raises(TurningPointError):
            _barrier_edge(grid, veff, -2.0)

    def test_solved_barrier_is_even(self, ground_a5_b03):
        # The interaction raises the barrier, and keeps it bitwise even.
        state = ground_a5_b03.state
        bare = potential(state.grid.nodes, 5.0)
        veff = bare + 0.3 * state.psi**2
        assert np.all(veff >= bare)
        assert veff[state.grid.D // 2] > bare[state.grid.D // 2]
        assert np.array_equal(veff, veff[::-1])
        x2 = _barrier_edge(state.grid, veff, state.mu)
        assert turning_points(state.grid, veff, state.mu) == (-x2, x2)
        assert 0.0 < x2


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

    @pytest.mark.parametrize("stride", [1, 3, 10, 1000])
    def test_stride_keeps_every_stride_th_point(self, stride):
        # the rows the whole run would give at 0, stride, 2 stride, ... and the last, bitwise
        full = classical_trajectory(2.0, -0.7, 1.3, 1e-3, 2.0)
        kept = classical_trajectory(2.0, -0.7, 1.3, 1e-3, 2.0, stride)
        rows = kept_steps(2000, stride)
        assert kept.points.tobytes() == full.points[rows].tobytes()
        assert kept.times.tobytes() == full.times[rows].tobytes()
        assert kept.energy == full.energy

    def test_stride_that_does_not_divide_keeps_the_last_step(self):
        # 10 steps at stride 3 keep steps 0, 3, 6, 9 and 10
        full = classical_trajectory(10.0, 1.5, 0.0, 1e-4, 0.001)
        kept = classical_trajectory(10.0, 1.5, 0.0, 1e-4, 0.001, 3)
        assert kept.times.tobytes() == (1e-4 * np.array([0, 3, 6, 9, 10])).tobytes()
        assert kept.points[-1].tobytes() == full.points[-1].tobytes()

    def test_peak_memory_is_the_kept_points(self):
        # 10^5 steps at stride 10: the points held were 97 bytes a step when every
        # step was kept, 9.7 MB here; the output arrays are 240 KB
        import tracemalloc

        tracemalloc.start()
        try:
            traj = classical_trajectory(10.0, 1.5, 0.0, 1e-4, 10.0, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.times) == 10_001
        assert peak < 2 * (traj.points.nbytes + traj.times.nbytes)

    def test_validation(self):
        with pytest.raises(ValueError):
            classical_trajectory(2.0, 1.0, 0.0, 1e-3, 1.0, 0)
        with pytest.raises(ValueError):
            classical_trajectory(2.0, 1.0, 0.0, -1e-3, 1.0)
        with pytest.raises(ValueError):
            classical_trajectory(2.0, 1.0, 0.0, 1e-12, 1e3)

    @pytest.mark.parametrize("x0, dt, reached", [
        (1.5, 0.5, 3.0),  # x**3 raises OverflowError
        (4e102, 1e-4, 0.0),  # x**3 is finite, 4 x**3 is inf: inf and nan follow silently
    ])
    def test_overflow_refused_with_the_time_reached(self, x0, dt, reached):
        with pytest.raises(ValueError, match=re.escape(
                f"overflowed after t = {reached:g}; use a smaller time step dt")):
            classical_trajectory(10.0, x0, 0.0, dt, 100 * dt)

    @pytest.mark.parametrize("x0, dt, reached", [(1.5, 0.5, 3.0), (4e102, 1e-4, 0.0)])
    @pytest.mark.parametrize("stride", [4, 7, 1000])
    def test_overflow_time_does_not_depend_on_the_stride(self, x0, dt, reached, stride):
        # the step is found inside the block of steps between kept points
        with pytest.raises(ValueError, match=re.escape(f"overflowed after t = {reached:g};")):
            classical_trajectory(10.0, x0, 0.0, dt, 100 * dt, stride)

    def test_overflow_in_the_last_short_block(self):
        # 7 steps at stride 4 keep steps 0, 4 and 7; step 7 overflows
        with pytest.raises(ValueError, match=re.escape("overflowed after t = 3;")):
            classical_trajectory(10.0, 1.5, 0.0, 0.5, 3.5, 4)


class TestKeptSteps:
    @settings(max_examples=200, deadline=None)
    @given(steps=st.integers(0, 10_000), stride=st.integers(1, 20_000))
    @example(steps=0, stride=5)
    @example(steps=10, stride=3)
    def test_start_every_stride_th_step_and_the_last(self, steps, stride):
        kept = kept_steps(steps, stride)
        gaps = np.diff(kept)
        assert kept.dtype.kind == "i"
        assert kept[0] == 0 and kept[-1] == steps
        assert np.all(gaps > 0)
        assert np.all(gaps[:-1] == stride)
        assert np.all(gaps[-1:] <= stride)

    @pytest.mark.parametrize("steps, stride", [
        (-1, 1), (2.5, 1), (10.0, 1), (MAX_STEPS + 1, 1), ("10", 1),
        (10, 0), (10, -1), (10, 1.5),
    ])
    def test_refusals(self, steps, stride):
        with pytest.raises(ValueError, match="must be an integer"):
            kept_steps(steps, stride)


class TestLyapunov:
    @pytest.mark.parametrize("a", [0.5, 2.0, 10.0])
    def test_value(self, a):
        assert lyapunov_exponent(a) == pytest.approx(np.sqrt(2.0 * a))

    def test_rejects_nonpositive(self):
        for a in (0.0, -1.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                lyapunov_exponent(a)

    def test_matches_linearized_growth(self):
        # Near the hyperbolic point a tiny displacement grows like
        # exp(sqrt(2a) t) while it stays in the linear regime.
        a = 2.0
        lam = np.sqrt(2.0 * a)
        traj = classical_trajectory(a, 1e-8, lam * 1e-8, 1e-5, 1.0)
        x = np.abs(traj.points[:, 0])
        rate = np.polyfit(traj.times, np.log(x), 1)[0]
        assert rate == pytest.approx(np.sqrt(2.0 * a), rel=1e-3)
