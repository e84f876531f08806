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
    snaps = propagate(grid_dyn, 10.0, packet, dt=1e-4, steps=6000, snapshot_stride=20)
    return snaps, fotoc(snaps)


class TestCoherentState:
    def test_normalized(self, grid_dyn):
        p = coherent_state(grid_dyn, 1.0, 0.5)
        assert integrate(grid_dyn, np.abs(p.values) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_variances_at_default_width(self, grid_dyn):
        from gpdwell.dynamics import _moments

        p = coherent_state(grid_dyn, 0.0, 0.0)
        var_x, var_p = _moments(grid_dyn, p.values)
        assert var_x == pytest.approx(0.5, abs=1e-3)
        assert var_p == pytest.approx(0.5, abs=1e-3)

    def test_momentum_boost(self, grid_dyn):
        from gpdwell.dynamics import _moments

        p = coherent_state(grid_dyn, 0.0, 2.0)
        dpsi = np.zeros_like(p.values)
        dpsi[:-1] = np.diff(p.values) / grid_dyn.delta
        ep = integrate(grid_dyn, (-1j * np.conj(p.values) * dpsi).real)
        assert ep == pytest.approx(2.0, abs=1e-2)

    def test_rejects_center_outside_box(self, grid_dyn):
        with pytest.raises(ValueError):
            coherent_state(grid_dyn, 7.0, 0.0)

    def test_rejects_wide_packet_near_wall(self, grid_dyn):
        with pytest.raises(ValueError, match="tail"):
            coherent_state(grid_dyn, 5.5, 0.0, width=2.0)


class TestPropagate:
    def test_norm_conserved(self, separatrix_run, grid_dyn):
        snaps, _ = separatrix_run
        norms = [integrate(grid_dyn, np.abs(s.values) ** 2) for s in snaps]
        assert np.max(np.abs(np.array(norms) - 1.0)) <= 1e-6

    def test_snapshot_times(self, separatrix_run):
        snaps, _ = separatrix_run
        assert snaps[0].time == 0.0
        assert snaps[1].time == pytest.approx(20 * 1e-4)
        assert snaps[-1].time == pytest.approx(0.6)

    def test_eigenstate_is_stationary(self):
        grid = make_grid(6.0, 600)
        result = solve_state(grid, TrapConfig(a=2.0, beta=0.0), 0)
        packet0 = np.asarray(result.state.psi, dtype=complex)
        snaps = propagate(grid, 2.0, type(coherent_state(grid, 0.0, 0.0))(
            values=packet0, grid=grid), dt=1e-4, steps=500)
        overlap = abs(integrate(grid, (np.conj(snaps[-1].values) * packet0)))
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
        assert len(propagate(grid_dyn, 2.0, packet, dt=0.01, steps=10, snapshot_stride=4)) == 4
        monkeypatch.setattr(gpdwell.dynamics, "MAX_STEPS", 4 * (grid_dyn.D + 1) - 1)
        with pytest.raises(ValueError, match="snapshots"):
            propagate(grid_dyn, 2.0, packet, dt=0.01, steps=10, snapshot_stride=4)

    def test_bitwise_per_step_banded_solve(self, grid_dyn):
        packet = coherent_state(grid_dyn, 0.4, -0.7)
        op = assemble(grid_dyn, TrapConfig(a=10.0, beta=0.0), np.zeros(grid_dyn.D - 1))
        ref = crank_nicolson_banded(op, packet.values[1:-1], 1e-3, 200)
        snaps = propagate(grid_dyn, 10.0, packet, dt=1e-3, steps=200)
        assert len(snaps) == 201
        for snap, psi in zip(snaps[1:], ref):
            assert snap.values[1:-1].tobytes() == psi.tobytes()
            assert snap.values[0] == snap.values[-1] == 0.0


class TestFotoc:
    def test_initial_value(self, separatrix_run):
        _, series = separatrix_run
        # Var_x + Var_p = 1/2 + 1/2 at t=0 for a minimal packet.
        assert series.F[0] == pytest.approx(1.0, abs=1e-3)

    def test_monotone_ingredients(self, separatrix_run):
        _, series = separatrix_run
        assert np.all(series.var_x >= 0.0)
        assert np.all(series.var_p >= 0.0)
        np.testing.assert_allclose(series.F, series.var_x + series.var_p)

    def test_needs_enough_snapshots(self, grid_dyn):
        packet = coherent_state(grid_dyn, 0.0, 0.0)
        snaps = propagate(grid_dyn, 2.0, packet, dt=1e-4, steps=5)
        with pytest.raises(ValueError, match="snapshots"):
            fotoc(snaps)

    def test_growth_rate_near_lyapunov(self, separatrix_run):
        _, series = separatrix_run
        window = default_fit_window(series)
        fit = growth_rate(series, window)
        lam = lyapunov_exponent(10.0)
        assert 0.75 * lam <= fit.rate <= 2.5 * lam
        assert fit.r2 >= 0.98
        assert fit.window == window

    def test_window_validation(self, separatrix_run):
        _, series = separatrix_run
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
