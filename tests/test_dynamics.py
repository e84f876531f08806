import numpy as np
import pytest
from oracles import crank_nicolson_banded

import gpdwell.dynamics
from gpdwell.dynamics import (
    FotocSeries,
    coherent_state,
    default_fit_window,
    fotoc,
    growth_rate,
    propagate,
)
from gpdwell.grid import TrapConfig, integrate, make_grid
from gpdwell.hamiltonian import assemble
from gpdwell.scf import solve_state
from gpdwell.semiclassics import lyapunov_exponent


@pytest.fixture(scope="module")
def grid_dyn():
    return make_grid(6.0, 1200)


@pytest.fixture(scope="module")
def separatrix_run(grid_dyn):
    """Packet seeded at the unstable point of a deep well, evolved to t=0.6."""
    packet = coherent_state(grid_dyn, 0.0, 0.0)
    times, snaps = propagate(grid_dyn, 10.0, packet, dt=1e-4, steps=6000, snapshot_stride=20)
    return times, snaps, fotoc(grid_dyn, times, snaps)


class TestCoherentState:
    def test_normalized(self, grid_dyn):
        p = coherent_state(grid_dyn, 1.0, 0.5)
        assert integrate(grid_dyn, np.abs(p) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_variances_at_default_width(self, grid_dyn):
        from gpdwell.dynamics import _moments

        p = coherent_state(grid_dyn, 0.0, 0.0)
        var_x, var_p = _moments(grid_dyn, p)
        assert var_x == pytest.approx(0.5, abs=1e-3)
        assert var_p == pytest.approx(0.5, abs=1e-3)

    def test_momentum_boost(self, grid_dyn):
        from gpdwell.dynamics import _moments

        p = coherent_state(grid_dyn, 0.0, 2.0)
        dpsi = np.zeros_like(p)
        dpsi[:-1] = np.diff(p) / grid_dyn.delta
        ep = integrate(grid_dyn, (-1j * np.conj(p) * dpsi).real)
        assert ep == pytest.approx(2.0, abs=1e-2)

    def test_rejects_center_outside_box(self, grid_dyn):
        with pytest.raises(ValueError):
            coherent_state(grid_dyn, 7.0, 0.0)

    def test_rejects_wide_packet_near_wall(self, grid_dyn):
        with pytest.raises(ValueError, match="tail"):
            coherent_state(grid_dyn, 5.5, 0.0)


class TestPropagate:
    def test_norm_conserved(self, separatrix_run, grid_dyn):
        _, snaps, _ = separatrix_run
        norms = [integrate(grid_dyn, np.abs(psi) ** 2) for psi in snaps]
        assert np.max(np.abs(np.array(norms) - 1.0)) <= 1e-6

    def test_snapshot_times(self, separatrix_run):
        times, _, _ = separatrix_run
        assert times[0] == 0.0
        assert times[1] == pytest.approx(20 * 1e-4)
        assert times[-1] == pytest.approx(0.6)

    def test_kept_times_end_on_the_last_step(self, grid_dyn):
        packet = coherent_state(grid_dyn, 0.0, 0.0)
        times, snaps = propagate(grid_dyn, 2.0, packet, dt=0.01, steps=10, snapshot_stride=4)
        np.testing.assert_array_equal(times, 0.01 * np.array([0, 4, 8, 10]))
        assert snaps.shape == (4, grid_dyn.D + 1)
        full = propagate(grid_dyn, 2.0, packet, dt=0.01, steps=10)[1]
        np.testing.assert_array_equal(snaps, full[[0, 4, 8, 10]])

    def test_rejects_wrong_length_before_any_step(self, grid_dyn, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped")

        monkeypatch.setattr(gpdwell.dynamics, "zgttrs", no_step)
        packet = coherent_state(grid_dyn, 0.0, 0.0)
        for psi0 in (packet[1:-1], np.append(packet, 0.0), packet[None, :]):
            with pytest.raises(ValueError, match="shape"):
                propagate(grid_dyn, 2.0, psi0, dt=0.01, steps=10)

    def test_eigenstate_is_stationary(self):
        grid = make_grid(6.0, 600)
        result = solve_state(grid, TrapConfig(a=2.0, beta=0.0), 0)
        psi0 = result.state.psi
        _, snaps = propagate(grid, 2.0, psi0, dt=1e-4, steps=500)
        overlap = abs(integrate(grid, (np.conj(snaps[-1]) * psi0)))
        assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_rejects_nonpositive_dt(self, grid_dyn):
        packet = coherent_state(grid_dyn, 0.0, 0.0)
        with pytest.raises(ValueError):
            propagate(grid_dyn, 2.0, packet, dt=0.0, steps=10)

    def test_rejects_nonpositive_snapshot_stride(self, grid_dyn):
        packet = coherent_state(grid_dyn, 0.0, 0.0)
        for stride in (0, -1):
            with pytest.raises(ValueError):
                propagate(grid_dyn, 2.0, packet, dt=0.01, steps=10, snapshot_stride=stride)

    def test_rejects_nonfinite_dt(self, grid_dyn):
        packet = coherent_state(grid_dyn, 0.0, 0.0)
        for dt in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                propagate(grid_dyn, 2.0, packet, dt=dt, steps=10)

    def test_snapshot_memory_bounded(self, grid_dyn, monkeypatch):
        # The start and ceil(10 / 4) = 3 snapshots of D + 1 values each
        packet = coherent_state(grid_dyn, 0.0, 0.0)
        monkeypatch.setattr(gpdwell.dynamics, "MAX_STEPS", 4 * (grid_dyn.D + 1))
        _, snaps = propagate(grid_dyn, 2.0, packet, dt=0.01, steps=10, snapshot_stride=4)
        assert len(snaps) == 4
        monkeypatch.setattr(gpdwell.dynamics, "MAX_STEPS", 4 * (grid_dyn.D + 1) - 1)
        with pytest.raises(ValueError, match="snapshots"):
            propagate(grid_dyn, 2.0, packet, dt=0.01, steps=10, snapshot_stride=4)

    def test_bitwise_per_step_banded_solve(self, grid_dyn):
        packet = coherent_state(grid_dyn, 0.4, -0.7)
        op = assemble(grid_dyn, TrapConfig(a=10.0, beta=0.0), np.zeros(grid_dyn.D - 1))
        ref = crank_nicolson_banded(op, packet[1:-1], 1e-3, 200, one_solve=True)
        _, snaps = propagate(grid_dyn, 10.0, packet, dt=1e-3, steps=200)
        assert len(snaps) == 201
        for snap, psi in zip(snaps[1:], ref):
            assert snap[1:-1].tobytes() == psi.tobytes()
            assert snap[0] == snap[-1] == 0.0

    def test_one_solve_matches_two_term_step(self, grid_dyn):
        packet = coherent_state(grid_dyn, 0.4, -0.7)
        op = assemble(grid_dyn, TrapConfig(a=10.0, beta=0.0), np.zeros(grid_dyn.D - 1))
        ref = crank_nicolson_banded(op, packet[1:-1], 1e-3, 200)
        _, snaps = propagate(grid_dyn, 10.0, packet, dt=1e-3, steps=200)
        assert np.max(np.abs(snaps[1:, 1:-1] - np.array(ref))) <= 1e-12


class TestFotoc:
    def test_initial_value(self, separatrix_run):
        *_, series = separatrix_run
        # Var_x + Var_p = 1/2 + 1/2 at t=0 for a minimal packet.
        assert series.F[0] == pytest.approx(1.0, abs=1e-3)

    def test_monotone_ingredients(self, separatrix_run):
        *_, series = separatrix_run
        assert np.all(series.var_x >= 0.0)
        assert np.all(series.var_p >= 0.0)
        np.testing.assert_allclose(series.F, series.var_x + series.var_p)

    def test_needs_enough_snapshots(self, grid_dyn):
        packet = coherent_state(grid_dyn, 0.0, 0.0)
        times, snaps = propagate(grid_dyn, 2.0, packet, dt=1e-4, steps=5)
        with pytest.raises(ValueError, match="snapshots"):
            fotoc(grid_dyn, times, snaps)

    def test_growth_rate_near_lyapunov(self, separatrix_run):
        *_, series = separatrix_run
        window = default_fit_window(series)
        fit = growth_rate(series, window)
        lam = lyapunov_exponent(10.0)
        assert 0.75 * lam <= fit.rate <= 2.5 * lam
        assert fit.r2 >= 0.98
        assert fit.window == window

    def test_window_validation(self, separatrix_run):
        *_, series = separatrix_run
        with pytest.raises(ValueError):
            growth_rate(series, (-1.0, 0.5))
        with pytest.raises(ValueError):
            growth_rate(series, (0.1, 0.1001))

    def test_no_window_in_flat_series(self):
        times = np.linspace(0.0, 1.0, 20)
        flat = FotocSeries(times=times, F=np.ones(20), var_x=np.full(20, 0.5),
                           var_p=np.full(20, 0.5))
        with pytest.raises(ValueError, match="window"):
            default_fit_window(flat)
