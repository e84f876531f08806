import numpy as np
import pytest

import gpdwell.critical
import gpdwell.scf
from gpdwell.critical import NoSignChange, curvature_at_origin, find_critical_a, fit_quadratic
from gpdwell.grid import TrapConfig, make_grid
from gpdwell.scf import ScfConfig, solve_state
from gpdwell.semiclassics import transmission

from test_scf import assert_own_eigenpair, miss_next_certificate


@pytest.fixture(scope="module")
def grid_crit():
    # Coarser than production resolution but fine enough to pin a_c to ~1e-3.
    return make_grid(6.0, 1000)


@pytest.fixture(scope="module")
def grid600():
    return make_grid(6.0, 600)


def _curvature(grid, a, beta, cfg=None):
    """Ground-state curvature at the origin."""
    return curvature_at_origin(solve_state(grid, TrapConfig(a=a, beta=beta), 0, cfg).state)


def _record_solves(monkeypatch):
    """(a, result) of every solve find_critical_a makes from here on."""
    solves = []
    solve_state = gpdwell.critical.solve_state

    def recording(grid, trap, n, cfg=None):
        result = solve_state(grid, trap, n, cfg)
        solves.append((trap.a, result))
        return result

    monkeypatch.setattr(gpdwell.critical, "solve_state", recording)
    return solves


def _bisected_root(grid, beta, bracket=(1.0, 2.0)):
    """a_c in bracket by plain bisection on the curvature of cold solves at SCF tol 1e-12."""
    (lo, hi), cfg = bracket, ScfConfig(tol=1e-12)
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _curvature(grid, mid, beta, cfg) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


# the bordered run's A^-1 [r, w, x^2 w] = [z, y, q], each broken so that its first step fails
_BROKEN_SOLVES = {
    "singular A": lambda z, y, q: None,
    "singular 2x2": lambda z, y, q: [z, y, 0.0 * q],  # m12 = m22 = 0, so det = 0
    "non-finite step": lambda z, y, q: [z, y, np.full_like(q, np.nan)],
    # m11 = w.y = 0 and da = w.z / w.q leaves the bracket: no step at fixed a
    "no fixed-a step": lambda z, y, q: [z, 0.0 * y, 1e-6 * q],
}


def _fell_back(solves, bracket=(0.5, 3.0)):
    """Whether the bisection ran: its solves of both bracket ends come first."""
    return [a for a, _ in solves[:2]] == list(bracket)


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
        assert res.state.trap.a == pytest.approx(1.7616, abs=0.01)
        assert abs(res.state.energy) <= 0.01

    def test_interacting_point(self, grid_crit):
        res = find_critical_a(1.0, grid=grid_crit)
        assert res.state.trap.a < 1.7616
        assert res.state.energy == pytest.approx(0.2696, rel=0.15)

    def test_bracket_width_respected(self, grid_crit):
        res = find_critical_a(0.0, grid_crit, bracket=(1.0, 2.5), tol=1e-3)
        assert 1.0 < res.state.trap.a < 2.5

    def test_few_solves_none_repeated(self, grid_crit, monkeypatch):
        # the Newton run on (w, mu, a) needs no solve, and certifies its own last point
        solves = _record_solves(monkeypatch)
        res = find_critical_a(1.0, tol=1e-4, grid=grid_crit)
        assert solves == []
        assert res.converged and res.state.grid == grid_crit
        assert 0.5 < res.state.trap.a < 3.0

    def test_few_scf_iterations_near_critical(self, monkeypatch):
        # Guards the work count, not seconds: the plain fixed point took 565. The
        # Newton run's own points count as the result's iterations.
        iterations = []
        solve_state = gpdwell.critical.solve_state

        def recording(*args):
            result = solve_state(*args)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr(gpdwell.critical, "solve_state", recording)
        res = find_critical_a(4.0, tol=1e-4, grid=make_grid(6.0, 600))
        assert 0 < res.iterations + sum(iterations) <= 100

    def test_sign_change_within_tol(self, grid_crit):
        tol = 1e-3
        res = find_critical_a(0.5, tol=tol, grid=grid_crit)
        below = _curvature(grid_crit, res.state.trap.a - tol, 0.5)
        above = _curvature(grid_crit, res.state.trap.a + tol, 0.5)
        assert below < 0.0 < above
        assert curvature_at_origin(res.state) == pytest.approx(0.0, abs=min(-below, above))

    def test_bad_bracket_rejected(self, grid_crit, monkeypatch):
        with pytest.raises(ValueError, match="sign"):
            find_critical_a(0.0, bracket=(2.5, 3.0), grid=grid_crit)
        # refused as scan-critical --bracket refuses them, before any solve: a bracket end
        # at a <= 0 or at inf is no trap the search or its bisection could solve
        solves = _record_solves(monkeypatch)
        bare_starts = []
        monkeypatch.setattr(gpdwell.critical, "_bare_start",
                            lambda *args: bare_starts.append(args))
        for bracket in [(3.0, 0.5), (-1.0, 3.0), (0.0, 3.0), (-2.0, 0.5), (0.5, np.inf),
                        (np.nan, 3.0)]:
            with pytest.raises(ValueError, match="bracket"):
                find_critical_a(1.0, bracket=bracket, grid=grid_crit)
        assert solves == [] and bare_starts == []

    def test_tol_below_float_spacing_ends(self, monkeypatch):
        # The bisection halves the bracket only while a float lies strictly between
        # its ends, so a tol below one ulp of a ends there.
        monkeypatch.setattr(gpdwell.critical, "NEWTON_STEPS", 1)  # forces the bisection
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
        a_c = find_critical_a(0.0, grid, tol=1e-20).state.trap.a
        assert a_c == pytest.approx(at_floor.state.trap.a, abs=floor)
        assert len(solves) > 50  # halved down to one ulp of a

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


class TestBorderedNewton:
    @pytest.mark.parametrize("beta", [0.0, 1.0, 4.0])
    def test_root_to_scf_precision(self, grid600, beta):
        a_c = find_critical_a(beta, grid600).state.trap.a
        assert a_c == pytest.approx(_bisected_root(grid600, beta), abs=1e-8)
        assert _curvature(grid600, a_c - 1e-6, beta) < 0.0 < _curvature(grid600, a_c + 1e-6, beta)

    def test_newton_path_certifies_its_own_last_point(self, grid4000, monkeypatch):
        # no solve_state call: each run's last point is certified on its own operator, and
        # the result counts the run's Newton points, 40 over the default 9-point scan
        solves = _record_solves(monkeypatch)
        points, newton_point = [], gpdwell.critical._newton_point

        def counting(*args):
            points.append(args)
            return newton_point(*args)

        monkeypatch.setattr(gpdwell.critical, "_newton_point", counting)
        total = 0
        for beta in np.arange(9) * 0.5:
            points.clear()
            res = find_critical_a(beta, grid4000)
            assert res.converged and res.iterations == len(points) > 1
            assert res.residual <= ScfConfig().tol * (1.0 + abs(res.state.mu))
            assert_own_eigenpair(res)
            total += res.iterations
        assert solves == [] and total == 40

    @pytest.mark.parametrize("beta, bracket", [(10.0, (0.5, 3.0)), (6.0, (1.0, 2.5))])
    def test_root_near_a_bracket_end_without_fallback(self, grid600, monkeypatch, beta,
                                                      bracket):
        # Newton's first two steps in a would leave the bracket; each takes scf's step at
        # fixed a and moves a half way to the end, and the run still ends at the root
        solves = _record_solves(monkeypatch)
        a_c = find_critical_a(beta, grid600, bracket).state.trap.a
        assert solves == []
        assert min(a_c - bracket[0], bracket[1] - a_c) < 0.25 * (bracket[1] - bracket[0])
        assert _curvature(grid600, a_c - 1e-6, beta) < 0.0 < _curvature(grid600, a_c + 1e-6, beta)

    @pytest.mark.parametrize("force", ["step budget", "certificate miss", *_BROKEN_SOLVES])
    def test_forced_fallback_reaches_the_same_root(self, grid_crit, monkeypatch, force):
        tol = 1e-4
        newton = find_critical_a(1.0, grid_crit, tol=tol)
        solves = _record_solves(monkeypatch)
        if force == "step budget":
            monkeypatch.setattr(gpdwell.critical, "NEWTON_STEPS", 3)
        elif force == "certificate miss":  # the first certificate is that of the last point
            miss_next_certificate(monkeypatch)
        else:
            jacobian_solve, broken = gpdwell.critical._jacobian_solve, _BROKEN_SOLVES[force]
            monkeypatch.setattr(gpdwell.critical, "_jacobian_solve",
                                lambda *args: broken(*jacobian_solve(*args)))
        res = find_critical_a(1.0, grid_crit, tol=tol)
        assert _fell_back(solves)
        assert res.state.trap.a == pytest.approx(newton.state.trap.a, abs=tol)
        [at_ac] = [result for a, result in solves if a == res.state.trap.a]
        assert res is at_ac  # the bisection's solve at a_c
        assert len({a for a, _ in solves}) == len(solves)  # none repeated

    def test_final_solve_growing_the_domain_falls_back(self, monkeypatch):
        # at L = 2.5 the walls bias the Newton run's certified last point, so the run
        # fails; the bisection's solves grow L to 3.75, and its root is that of the grown grid
        tol = 1e-4
        leaks, wall_test = [], gpdwell.critical._leaks

        def recording(state, cfg):
            leaks.append(wall_test(state, cfg))
            return leaks[-1]

        monkeypatch.setattr(gpdwell.critical, "_leaks", recording)
        solves = _record_solves(monkeypatch)
        res = find_critical_a(0.0, make_grid(2.5, 400), tol=tol)
        assert leaks == [True]
        assert solves[0][1].state.grid.L == 3.75
        assert _fell_back(solves)
        [at_ac] = [result for a, result in solves if a == res.state.trap.a]
        assert res is at_ac
        grown = find_critical_a(0.0, make_grid(3.75, 400))
        assert res.state.trap.a == pytest.approx(grown.state.trap.a, abs=tol)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_final_solve_on_another_state_falls_back(self, grid600, monkeypatch, beta):
        # Started from the second even pair, the run meets g = 0 on that excited state
        # near a = 4.3; its last point misses the ground pair's certificate there
        tol = 1e-4
        bare_start = gpdwell.scf._bare_start
        monkeypatch.setattr(gpdwell.critical, "_bare_start",
                            lambda grid, a, parity, index: bare_start(grid, a, parity, 1))
        certificates, certified = [], gpdwell.critical.certified

        def recording(op, mu, residual, index):
            certificates.append((index, certified(op, mu, residual, index),
                                 certified(op, mu, residual, 1)))
            return certificates[-1][1]

        monkeypatch.setattr(gpdwell.critical, "certified", recording)
        solves = _record_solves(monkeypatch)
        bracket = (1.0, 10.0)
        res = find_critical_a(beta, grid600, bracket, tol)
        [(index, ground, excited)] = certificates
        assert index == 0 and not ground and excited  # the excited pair, not the ground pair
        assert _fell_back(solves, bracket)
        assert res.state.trap.a == pytest.approx(_bisected_root(grid600, beta), abs=tol)

    @pytest.mark.parametrize("beta, bracket", [(12.0, (0.6, 3.0)), (16.0, (0.5, 3.0)),
                                               (9.0, (0.5, 2.0))])
    def test_root_near_the_low_end_without_fallback(self, grid1200, monkeypatch, beta,
                                                    bracket):
        # the roots lie near the low end; the steps in a that would leave the bracket
        # there move w and mu by scf's step at fixed a, so they keep up with a
        monkeypatch.setattr(gpdwell.critical, "_bisection",
                            lambda *args: pytest.fail("fell back"))
        a_c = find_critical_a(beta, grid1200, bracket).state.trap.a
        assert a_c == pytest.approx(_bisected_root(grid1200, beta, bracket), abs=1e-8)

    def test_bracket_without_root_raises_after_the_run(self, grid600, monkeypatch):
        # the start, the bare ground pair, is solved at a = 2.75 and its step in a leaves
        # (2.5, 3) below, toward the root near 1.76: the run stops there
        solves = _record_solves(monkeypatch)
        jacobian_solves = []
        jacobian_solve = gpdwell.critical._jacobian_solve

        def counting(*args):
            jacobian_solves.append(args)
            return jacobian_solve(*args)

        monkeypatch.setattr(gpdwell.critical, "_jacobian_solve", counting)
        with pytest.raises(NoSignChange):
            find_critical_a(0.0, grid600, (2.5, 3.0))
        assert [a for a, _ in solves] == [2.5, 3.0]  # only the two ends
        assert len(jacobian_solves) <= 2


class TestSubmergedBarrier:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0, 4.0])
    def test_barrier_appears_at_a_c(self, grid4000, beta):
        # one quantity, beta psi(0)^2 - mu, decides a_c and whether a WKB barrier stands
        tol = 1e-4
        res = find_critical_a(beta, grid4000, tol=tol)
        below, above = (solve_state(grid4000, TrapConfig(a=a, beta=beta), 0).state
                        for a in (res.state.trap.a - tol, res.state.trap.a + tol))
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

    def test_callable_evaluation(self):
        pts = [(b, 2.0 + b) for b in (0.0, 1.0, 2.0, 3.0)]
        fit = fit_quadratic(pts)
        np.testing.assert_allclose([fit.c0, fit.c1, fit.c2], [2.0, 1.0, 0.0], atol=1e-9)

    def test_residual_reported(self):
        rng = np.random.default_rng(7)
        beta = np.linspace(0.0, 4.0, 20)
        noise = 0.01 * rng.standard_normal(20)
        pts = list(zip(beta, 1.0 - 0.2 * beta + noise))
        fit = fit_quadratic(pts)
        coeffs = [fit.c0, fit.c1, fit.c2]
        # the least-squares solution of the noisy points, near the noiseless line
        np.testing.assert_allclose(coeffs, np.polyfit(beta, 1.0 - 0.2 * beta + noise, 2)[::-1],
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(coeffs, [1.0, -0.2, 0.0], atol=0.02)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="4 points"):
            fit_quadratic([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        with pytest.raises(ValueError, match="degenerate"):
            fit_quadratic([(1.0, 1.0), (1.0, 1.1), (2.0, 2.0), (2.0, 2.1)])
