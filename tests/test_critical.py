import numpy as np
import pytest

import gpdwell.critical
from gpdwell.critical import curvature_at_origin, find_critical_a, fit_quadratic
from gpdwell.grid import TrapConfig, make_grid
from gpdwell.scf import solve_state
from gpdwell.semiclassics import transmission


@pytest.fixture(scope="module")
def grid_crit():
    # Coarser than production resolution but fine enough to pin a_c to ~1e-3.
    return make_grid(6.0, 1000)


def _curvature(grid, a, beta):
    """Ground-state curvature at the origin."""
    return curvature_at_origin(solve_state(grid, TrapConfig(a=a, beta=beta), 0).state)


class TestCurvatureSign:
    def test_shallow_well_single_peak(self, grid_crit):
        assert _curvature(grid_crit, 1.0, 0.0) < 0.0

    def test_deep_well_central_dip(self, grid_crit):
        assert _curvature(grid_crit, 3.0, 0.0) > 0.0

    def test_interaction_shifts_threshold(self, grid_crit):
        # At a=1.7 the linear ground state still peaks at the origin, but
        # repulsion pushes it over the threshold.
        assert _curvature(grid_crit, 1.7, 0.0) < 0.0
        assert _curvature(grid_crit, 1.7, 1.0) > 0.0


class TestFindCriticalA:
    def test_linear_reference_point(self, grid_crit):
        res = find_critical_a(0.0, grid=grid_crit)
        assert res.a_c == pytest.approx(1.7616, abs=0.01)
        assert abs(res.E_c) <= 0.01

    def test_interacting_point(self, grid_crit):
        res = find_critical_a(1.0, grid=grid_crit)
        assert res.a_c < 1.7616
        assert res.E_c == pytest.approx(0.2696, rel=0.15)

    def test_bracket_width_respected(self, grid_crit):
        res = find_critical_a(0.0, grid_crit, bracket=(1.0, 2.5), tol=1e-3)
        assert 1.0 < res.a_c < 2.5

    def test_few_solves_none_repeated(self, grid_crit, monkeypatch):
        solves = []
        solve_state = gpdwell.critical.solve_state

        def recording(grid, trap, n, *args):
            result = solve_state(grid, trap, n, *args)
            solves.append((trap.a, result))
            return result

        monkeypatch.setattr(gpdwell.critical, "solve_state", recording)
        res = find_critical_a(1.0, tol=1e-4, grid=grid_crit)
        assert len(solves) <= 8
        at_ac = [r for a, r in solves if a == res.a_c]
        assert len(at_ac) == 1  # E_c and the curvature come from the search's own solve
        assert res.E_c == at_ac[0].state.energy
        assert len({a for a, _ in solves}) == len(solves)

    def test_few_scf_iterations_near_critical(self, monkeypatch):
        # Guards the work count, not seconds: the plain fixed point took 565.
        iterations = []
        solve_state = gpdwell.critical.solve_state

        def recording(*args):
            result = solve_state(*args)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr(gpdwell.critical, "solve_state", recording)
        find_critical_a(4.0, tol=1e-4, grid=make_grid(6.0, 600))
        assert sum(iterations) <= 100

    def test_sign_change_within_tol(self, grid_crit):
        tol = 1e-3
        res = find_critical_a(0.5, tol=tol, grid=grid_crit)
        below = _curvature(grid_crit, res.a_c - tol, 0.5)
        above = _curvature(grid_crit, res.a_c + tol, 0.5)
        assert below < 0.0 < above
        assert res.curvature_at_ac == pytest.approx(0.0, abs=min(-below, above))

    def test_bad_bracket_rejected(self, grid_crit):
        with pytest.raises(ValueError, match="bracket"):
            find_critical_a(0.0, bracket=(3.0, 0.5), grid=grid_crit)
        with pytest.raises(ValueError, match="sign"):
            find_critical_a(0.0, bracket=(2.5, 3.0), grid=grid_crit)

    def test_tol_below_float_spacing_ends(self, monkeypatch):
        # The least Brent step used to round away below one ulp of a, and the
        # search solved the same a forever; the floor 4 eps max|a| stops it.
        grid = make_grid(6.0, 400)
        floor = 4.0 * np.finfo(float).eps * 3.0  # the default bracket's ends are 0.5, 3
        at_floor = find_critical_a(0.0, grid, tol=floor)
        solves = []
        solve_state = gpdwell.critical.solve_state

        def bounded(*args):
            solves.append(args)
            if len(solves) > 100:
                raise AssertionError("more than 100 solves")
            return solve_state(*args)

        monkeypatch.setattr(gpdwell.critical, "solve_state", bounded)
        assert find_critical_a(0.0, grid, tol=1e-20).a_c == at_floor.a_c

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_tol_rejected_before_any_solve(self, tol, monkeypatch):
        # Only at beta < 1: with tol <= 0 at beta >= 1 the search used not to stop.
        solves = []
        solve_state = gpdwell.critical.solve_state

        def recording(*args):
            solves.append(args)
            return solve_state(*args)

        monkeypatch.setattr(gpdwell.critical, "solve_state", recording)
        with pytest.raises(ValueError, match="tol"):
            find_critical_a(0.0, tol=tol, grid=make_grid(6.0, 200))
        assert solves == []


class TestSubmergedBarrier:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0, 4.0])
    def test_barrier_appears_at_a_c(self, grid4000, beta):
        # one quantity, beta psi(0)^2 - mu, decides a_c and whether a WKB barrier stands
        tol = 1e-4
        res = find_critical_a(beta, grid4000, tol=tol)
        below, above = (solve_state(grid4000, TrapConfig(a=a, beta=beta), 0).state
                        for a in (res.a_c - tol, res.a_c + tol))
        assert transmission(below) == 1.0
        assert transmission(above) < 1.0

    def test_curvature_is_the_stencil(self, grid4000):
        # psi''(0) from the equation at x = 0 against the 3-point stencil
        for a, beta in ((1.0, 0.0), (1.76, 1.0), (2.5, 4.0)):
            state = solve_state(grid4000, TrapConfig(a=a, beta=beta), 0).state
            mid, psi = grid4000.D // 2, state.psi
            stencil = (psi[mid + 1] - 2.0 * psi[mid] + psi[mid - 1]) / grid4000.delta**2
            assert curvature_at_origin(state) == pytest.approx(stencil, abs=1e-8)


class TestFitQuadratic:
    def test_recovers_exact_polynomial(self):
        beta = np.linspace(0.0, 4.0, 9)
        pts = [(b, 1.7616 - 0.1513 * b + 0.0061 * b**2) for b in beta]
        fit = fit_quadratic(pts)
        assert fit.c0 == pytest.approx(1.7616, abs=1e-10)
        assert fit.c1 == pytest.approx(-0.1513, abs=1e-10)
        assert fit.c2 == pytest.approx(0.0061, abs=1e-10)
        assert fit.residual_rms <= 1e-12

    def test_callable_evaluation(self):
        pts = [(b, 2.0 + b) for b in (0.0, 1.0, 2.0, 3.0)]
        fit = fit_quadratic(pts)
        assert fit(1.5) == pytest.approx(3.5, abs=1e-9)
        np.testing.assert_allclose(fit(np.array([0.0, 2.0])), [2.0, 4.0], atol=1e-9)

    def test_residual_reported(self):
        rng = np.random.default_rng(7)
        beta = np.linspace(0.0, 4.0, 20)
        noise = 0.01 * rng.standard_normal(20)
        pts = list(zip(beta, 1.0 - 0.2 * beta + noise))
        fit = fit_quadratic(pts)
        assert 0.0 < fit.residual_rms < 0.02

    def test_input_validation(self):
        with pytest.raises(ValueError, match="4 points"):
            fit_quadratic([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        with pytest.raises(ValueError, match="degenerate"):
            fit_quadratic([(1.0, 1.0), (1.0, 1.1), (2.0, 2.0), (2.0, 2.1)])
