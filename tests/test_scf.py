import dataclasses
import math

import numpy as np
import pytest

import gpdwell.eigensolver
import gpdwell.scf
from gpdwell.eigensolver import Eigenpair, count_below, fix_sign, lowest_eigenpairs
from gpdwell.grid import TrapConfig, integrate, make_grid
from gpdwell.hamiltonian import block_vector, unfold
from gpdwell.scf import (
    DomainTooSmall,
    MaxIterationsExceeded,
    ScfConfig,
    solve_spectrum,
    solve_state,
)

from oracles import assemble, block_operator, sturm_count


def miss_next_certificate(monkeypatch):
    """Make the next Sturm count, the first of the next certificate, answer -1.

    The next certificate to run is that of a solve's first rung, Newton at beta from
    the bare pair, so that solve climbs the ladder, whose later certificates are
    counted truly.
    """
    calls = []

    def lying(op, x):
        calls.append(x)
        return -1 if len(calls) == 1 else count_below(op, x)

    monkeypatch.setattr(gpdwell.eigensolver, "count_below", lying)


def assert_own_eigenpair(result):
    """The oracle's check that mu is eigenvalue n // 2 of the block of its own H[psi^2].

    That eigenvalue lies within the residual of mu, and no other does.
    """
    state, (index, parity) = result.state, divmod(result.state.n, 2)
    w = block_vector(state.psi[1:-1], parity)
    op = block_operator(state.grid, state.trap, w * w, parity)
    h = max(result.residual, 1e-12 * (1.0 + abs(state.mu)))
    assert sturm_count(op.diag, op.offdiag, state.mu - h) == index
    assert sturm_count(op.diag, op.offdiag, state.mu + h) == index + 1


def assert_same_state(result, newton):
    """result, a solve past its first rung, holds the Newton path's state to 1e-9 (1 + |mu|)."""
    assert result.converged and result.eigensolves == 0
    scale = 1e-9 * (1.0 + abs(newton.state.mu))
    assert result.state.mu == pytest.approx(newton.state.mu, rel=0, abs=scale)
    assert result.state.energy == pytest.approx(newton.state.energy, rel=0, abs=scale)
    assert_own_eigenpair(result)


class TestScfConfig:
    def test_defaults(self):
        cfg = ScfConfig()
        assert cfg.tol == 1e-9
        assert cfg.max_iter == 500

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": -1e-6}, {"tol": float("nan")},
        {"max_iter": 0}, {"max_iter": -1}, {"tol": float("inf")},
        {"max_iter": 2.5}, {"max_iter": float("nan")}, {"max_iter": float("inf")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScfConfig(**kwargs)


class TestLinearLimit:
    def test_beta_zero_converges_at_first_recheck(self):
        # the first followed pair already meets the residual stop
        grid = make_grid(6.0, 800)
        result = solve_state(grid, TrapConfig(a=3.0, beta=0.0), 0)
        assert result.converged
        assert result.iterations == 1

    def test_beta_zero_mu_equals_linear_eigenvalue(self):
        grid = make_grid(6.0, 800)
        trap = TrapConfig(a=3.0, beta=0.0)
        result = solve_state(grid, trap, 1)
        op = assemble(grid, trap, np.zeros(grid.D - 1))
        linear = lowest_eigenpairs(op, 2, grid)[1].value
        assert result.state.mu == pytest.approx(linear, rel=0, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1])
    def test_recorded_residual_is_the_returned_states(self, n):
        # result.residual belongs to the psi and mu the state carries: that of a
        # freshly composed H[psi^2], whose beta term is not zero past beta = 0
        grid = make_grid(6.0, 800)
        parity = n % 2
        for a, beta in [(3.0, 0.0), (3.0, 0.5), (5.0, 2.0)]:
            trap = TrapConfig(a=a, beta=beta)
            result = solve_state(grid, trap, n)
            w = block_vector(result.state.psi[1:-1], parity)
            r = block_operator(grid, trap, w * w, parity).apply(w) - result.state.mu * w
            residual = np.sqrt(grid.delta * np.dot(r, r))
            assert residual == pytest.approx(result.residual, rel=0.1, abs=0)

    def test_beta_zero_operator_is_bitwise_linear(self):
        grid = make_grid(6.0, 400)
        trap = TrapConfig(a=2.0, beta=0.0)
        dens = np.abs(np.sin(grid.interior))
        op_scf = assemble(grid, trap, dens)
        op_lin = assemble(grid, trap, np.zeros(grid.D - 1))
        assert np.array_equal(op_scf.diag, op_lin.diag)
        assert np.array_equal(op_scf.offdiag, op_lin.offdiag)


class TestConvergedStates:
    def test_a2_ground_has_negative_energy(self, ground_a2_b0):
        # a = 2 sits above the critical depth, so mu and E are both negative
        assert ground_a2_b0.state.mu < 0
        assert ground_a2_b0.state.energy < 0
        assert ground_a2_b0.state.psi[ground_a2_b0.state.grid.D // 2] > 0

    def test_normalization(self, ground_a5_b03):
        state = ground_a5_b03.state
        assert integrate(state.grid, state.psi**2) == pytest.approx(1.0, abs=1e-10)

    def test_boundary_tail(self, ground_a5_b03):
        state = ground_a5_b03.state
        slope = max(abs(state.psi[1]), abs(state.psi[-2])) / state.grid.delta
        assert 0.5 * slope**2 <= ScfConfig().tol * (1.0 + abs(state.mu))

    def test_gp_residual(self, grid4000, ground_a5_b03):
        state = ground_a5_b03.state
        op = assemble(grid4000, state.trap, state.psi[1:-1] ** 2)
        r = op.apply(state.psi[1:-1]) - state.mu * state.psi[1:-1]
        assert np.sqrt(grid4000.delta * np.dot(r, r)) <= 1e-6

    def test_convergence_flags_consistent(self, ground_a5_b03):
        r = ground_a5_b03
        assert r.converged
        assert 0 <= r.eigensolves < r.iterations
        assert r.residual <= ScfConfig().tol * (1.0 + abs(r.state.mu))

    def test_strongly_coupled_cases_converge(self, grid4000):
        # (5, 9) two-cycled and (2, 20) ran out of budget under the plain fixed point
        for a, beta in ((5.0, 9.0), (2.0, 20.0)):
            trap = TrapConfig(a=a, beta=beta)
            state = solve_state(grid4000, trap, 0).state
            op = assemble(grid4000, trap, state.psi[1:-1] ** 2)
            r = op.apply(state.psi[1:-1]) - state.mu * state.psi[1:-1]
            assert np.sqrt(grid4000.delta * np.dot(r, r)) <= 1e-6

    def test_near_critical_converges_in_few_iterations(self, grid4000):
        # the plain fixed point took 119 iterations here
        result = solve_state(grid4000, TrapConfig(a=1.25, beta=4.0), 0)
        assert result.converged
        assert result.iterations <= 20
        assert result.residual <= ScfConfig().tol * (1.0 + abs(result.state.mu))

    def test_state_is_frozen(self, ground_a2_b0):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ground_a2_b0.state.energy = 0.0

    def test_parity_matches_index(self, spectrum_a5_b01):
        for r in spectrum_a5_b01:
            assert r.state.parity == ("even" if r.state.n % 2 == 0 else "odd")

    def test_mu_monotone_in_beta(self, grid4000):
        mus = [
            solve_state(grid4000, TrapConfig(a=2.0, beta=b), 0).state.mu
            for b in (0.0, 0.2, 0.4)
        ]
        assert mus[0] <= mus[1] <= mus[2]


class TestWarmStart:
    def test_fewer_iterations_same_mu(self):
        # a rung starts warm from the pair certified at the rung below: from the state at
        # beta = 3.9, Newton at beta = 4 takes fewer steps than from the bare pair
        grid, cfg = make_grid(6.0, 600), ScfConfig()
        bare, cold_pair = gpdwell.scf._bare_start(grid, 1.25, 0, 0)
        below = solve_state(grid, TrapConfig(a=1.25, beta=3.9), 0).state
        warm_pair = Eigenpair(below.mu, block_vector(below.psi[1:-1], 0))
        _, cold_mu, cold_steps, cold_found = gpdwell.scf._newton(grid, 4.0, bare, cold_pair,
                                                                 0, 0, cfg)
        _, warm_mu, warm_steps, warm_found = gpdwell.scf._newton(grid, 4.0, bare, warm_pair,
                                                                 0, 0, cfg)
        assert cold_found and warm_found
        assert warm_steps < cold_steps
        assert warm_mu == pytest.approx(cold_mu, abs=1e-8)

    def test_domain_growth_starts_cold(self):
        # every grid of a domain growth starts its ladder from its own bare pair, so the
        # grown solve is the solve made directly on the grown grid
        grid = make_grid(2.0, 400)
        trap = TrapConfig(a=2.0, beta=1.0)
        grown = solve_state(grid, trap, 0)
        assert grown.state.grid.L > grid.L
        direct = solve_state(grown.state.grid, trap, 0)
        assert direct.state.grid == grown.state.grid
        assert direct.iterations == grown.iterations
        assert np.array_equal(direct.state.psi, grown.state.psi)
        assert direct.state.mu == grown.state.mu


class TestSpectrum:
    def test_ascending_mu_alternating_parity(self, grid4000):
        results = solve_spectrum(grid4000, TrapConfig(a=5.0, beta=0.0), 4)
        mus = [r.state.mu for r in results]
        assert mus == sorted(mus)
        assert [r.state.parity for r in results] == ["even", "odd", "even", "odd"]

    def test_quasidegenerate_lower_pair(self, spectrum_a5_b01):
        e = [r.state.energy for r in spectrum_a5_b01]
        assert (e[1] - e[0]) < 0.1 * (e[3] - e[2])

    def test_splitting_grows_with_beta(self, grid4000):
        gaps = []
        for beta in (0.0, 0.25, 0.5):
            rs = solve_spectrum(grid4000, TrapConfig(a=2.0, beta=beta), 2)
            gaps.append(rs[1].state.energy - rs[0].state.energy)
        assert gaps[0] < gaps[1] < gaps[2]

    def test_grown_spectrum_shares_one_grid(self):
        # state 3 leaks out of L=3 and grows the domain; the rest must follow
        results = solve_spectrum(make_grid(3.0, 400), TrapConfig(a=5.0), 4)
        assert {r.state.grid.L for r in results} == {4.5}
        assert all(r.converged for r in results)

    @pytest.mark.parametrize("a", [12.0, 16.0])
    def test_deep_well_states_keep_exact_parity(self, grid4000, a):
        # The doublet splittings (1e-10 at a=12, 1e-14 at a=16) are below what
        # a full-size solve resolves; each parity sector is solved on its own.
        results = solve_spectrum(grid4000, TrapConfig(a=a), 4)
        assert [r.state.parity for r in results] == ["even", "odd", "even", "odd"]
        for r in results:
            psi = r.state.psi
            assert np.array_equal(psi, psi[::-1] if r.state.n % 2 == 0 else -psi[::-1])
            right = psi[r.state.grid.D // 2:]  # x >= 0
            assert right[np.argmax(np.abs(right))] > 0

    def test_deep_well_splitting_is_positive(self, grid4000):
        # At a=16 dE is about 1e-14, under one ulp of E ≈ -60: not gated there.
        results = solve_spectrum(grid4000, TrapConfig(a=12.0), 2)
        assert results[1].state.energy - results[0].state.energy > 0

    def test_k_validation(self, grid4000):
        with pytest.raises(ValueError):
            solve_spectrum(grid4000, TrapConfig(a=2.0), 0)


class TestWarmEigenpairs:
    def test_one_eigensolve_per_state(self, spectrum_a5_b01):
        # every pair, the first included, is followed from the shared bare pair
        assert [r.eigensolves for r in spectrum_a5_b01] == [0, 0, 0, 0]
        assert all(r.iterations > 1 for r in spectrum_a5_b01[1:])

    def test_spectrum_work(self, spectrum_a5_b01):
        # 3, 3, 4 and 4 iterations: the start pair's own density is the first input
        assert sum(r.iterations for r in spectrum_a5_b01) <= 14

    def test_failed_certificate_falls_back_to_the_ladder(self, grid4000, monkeypatch):
        # a missed certificate sends the solve up the ladder in beta, which ends at the
        # Newton path's state with no eigensolve
        trap = TrapConfig(a=5.0, beta=0.5)
        newton = solve_state(grid4000, trap, 1)
        miss_next_certificate(monkeypatch)
        result = solve_state(grid4000, trap, 1)
        assert result.iterations > newton.iterations  # Newton's steps run as before the miss
        assert_same_state(result, newton)

    def test_result_does_not_depend_on_the_shared_pairs(self, grid1200):
        cases = [(TrapConfig(a=5.0, beta=0.5), 1), (TrapConfig(a=2.0, beta=1.0), 0),
                 (TrapConfig(a=5.0, beta=0.0), 1), (TrapConfig(a=5.0, beta=2.0), 3)]
        runs = []
        for order in (cases, cases[::-1]):
            gpdwell.scf._bare_start.cache_clear()
            first = {case: solve_state(grid1200, *case) for case in order}
            second = {case: solve_state(grid1200, *case) for case in order}  # cache filled
            runs += [first, second]
        for case in cases:
            ref = runs[0][case]
            for run in runs[1:]:
                r = run[case]
                assert np.array_equal(r.state.psi, ref.state.psi)
                assert (r.state.mu, r.state.energy) == (ref.state.mu, ref.state.energy)
                assert (r.iterations, r.converged, r.residual, r.eigensolves) == (
                    ref.iterations, ref.converged, ref.residual, ref.eigensolves)

    def test_shared_vectors_are_read_only(self, grid1200):
        solve_state(grid1200, TrapConfig(a=5.0, beta=0.3), 2)
        bare, pair = gpdwell.scf._bare_start(grid1200, 5.0, 0, 1)
        for shared in (pair.vector, bare.diag, bare.offdiag):
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared[0] = 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_first_density_is_the_start_pairs_own(self, grid1200, monkeypatch, n):
        # from the bare pair, renormalised and with its own w * w
        index, parity = divmod(n, 2)
        trap = TrapConfig(a=5.0, beta=1.0)
        _, bare_pair = gpdwell.scf._bare_start(grid1200, trap.a, parity, index)  # cached
        densities = []
        original = gpdwell.scf.block_density

        def recording(folded, parity):
            densities.append(folded)
            return original(folded, parity)

        monkeypatch.setattr(gpdwell.scf, "block_density", recording)
        solve_state(grid1200, trap, n)
        unit = bare_pair.vector / np.sqrt(grid1200.delta * np.dot(bare_pair.vector,
                                                                  bare_pair.vector))
        assert np.array_equal(densities[0], unit**2)

    @pytest.mark.parametrize("n", [0, 1])
    def test_one_bare_block_per_solve(self, grid1200, monkeypatch, n):
        # every Newton point of every rung adds beta * rho to the cached bare block, so
        # a solve builds none once the record is cached, nor does one that climbs
        trap = TrapConfig(a=5.0, beta=1.0)
        newton = solve_state(grid1200, trap, n)  # caches the bare record
        builds = []
        original = gpdwell.scf.assemble_block

        def counting(*args):
            builds.append(args)
            return original(*args)

        monkeypatch.setattr(gpdwell.scf, "assemble_block", counting)
        assert solve_state(grid1200, trap, n).iterations > 1 and builds == []
        miss_next_certificate(monkeypatch)
        assert solve_state(grid1200, trap, n).iterations > newton.iterations
        assert builds == []

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_warm_start_without_certificates_reaches_the_same_state(self, grid1200,
                                                                    monkeypatch, n):
        # each rung starts warm from the last certified pair, never from a missed one: after
        # the first rung misses, the next starts from the bare pair again, and the climb
        # ends at the state of the first rung's own Newton run
        index, parity = divmod(n, 2)
        trap = TrapConfig(a=5.0, beta=1.0)
        newton = solve_state(grid1200, trap, n)
        _, bare_pair = gpdwell.scf._bare_start(grid1200, trap.a, parity, index)
        calls, run = [], gpdwell.scf._newton

        def recording(grid, beta, bare, pair, *args):
            calls.append((beta, pair, run(grid, beta, bare, pair, *args)))
            return calls[-1][2]

        monkeypatch.setattr(gpdwell.scf, "_newton", recording)
        miss_next_certificate(monkeypatch)
        result = solve_state(grid1200, trap, n)
        assert [beta for beta, _, _ in calls[:2]] == [trap.beta, trap.beta / 2]
        assert calls[0][1] is bare_pair and calls[1][1] is bare_pair
        for (_, _, (w, mu, _, found)), (_, pair, _) in zip(calls[1:], calls[2:]):
            assert found and pair.vector is w and pair.value == mu
        assert result.iterations == sum(steps for _, _, (_, _, steps, _) in calls)
        assert_same_state(result, newton)
        np.testing.assert_allclose(result.state.psi, newton.state.psi, rtol=0, atol=1e-7)

    def test_same_states_as_the_ladder(self, grid4000, monkeypatch):
        # Newton's states against those the ladder reaches when each solve's first
        # certificate is missed; at beta = 0 there is no rung below to climb from, so
        # a miss there ends the solve after its one Newton point
        cases = [(a, beta, n) for a in (5.0, 12.0) for beta in (0.0, 0.5, 1.0) for n in range(4)]
        cases += [(5.0, 9.0, 0), (2.0, 20.0, 0)]
        for a, b, n in cases:
            trap = TrapConfig(a=a, beta=b)
            newton = solve_state(grid4000, trap, n)
            miss_next_certificate(monkeypatch)
            if b > 0.0:
                assert_same_state(solve_state(grid4000, trap, n), newton)
                continue
            with pytest.raises(MaxIterationsExceeded) as exc:
                solve_state(grid4000, trap, n)
            assert exc.value.result.iterations == newton.iterations == 1
            assert np.array_equal(exc.value.result.state.psi, newton.state.psi)


class TestNewton:
    def test_forced_fallback_returns_the_loops_state(self, monkeypatch):
        # Newton at beta meets the stop at a wrong state of the sector here, so the ladder
        # climbs from beta / 2
        grid = make_grid(6.0, 600)
        trap = TrapConfig(a=5.0, beta=40.0)
        calls = []
        newton = gpdwell.scf._newton

        def recording(grid, beta, *args):
            calls.append((beta, newton(grid, beta, *args)))
            return calls[-1][1]

        monkeypatch.setattr(gpdwell.scf, "_newton", recording)
        result = solve_state(grid, trap, 2)
        _, _, steps, certified = calls[0][1]  # the first rung, at beta from the bare pair
        assert calls[0][0] == trap.beta and not certified
        rungs = [beta for beta, _ in calls[1:]]
        assert rungs[0] == trap.beta / 2 and rungs[-1] == trap.beta and calls[-1][1][3]
        assert result.converged and result.eigensolves == 0
        assert_own_eigenpair(result)
        assert result.state.mu == calls[-1][1][1]
        assert result.iterations == sum(call[1][2] for call in calls)
        # the rungs after the first get what it left of the one budget
        cfg = ScfConfig(max_iter=steps + 2)
        with pytest.raises(MaxIterationsExceeded) as exc:
            solve_state(grid, trap, 2, cfg)
        assert exc.value.result.iterations == cfg.max_iter

    def test_every_newton_point_is_counted(self, monkeypatch):
        # a solve that falls back counts its Newton points and its rungs' alike
        grid = make_grid(6.0, 600)
        points = []
        newton_point = gpdwell.scf._newton_point

        def counting(*args):
            points.append(args[1])
            return newton_point(*args)

        monkeypatch.setattr(gpdwell.scf, "_newton_point", counting)
        result = solve_state(grid, TrapConfig(a=5.0, beta=40.0), 2)
        assert result.converged and len(set(points)) > 1  # the ladder ran
        assert result.iterations == len(points)

    def test_strong_coupling_low_states_solve(self):
        # The fixed-point loop this ladder replaced diverged here: at beta = 200 and 400 it
        # solved 7 and 0 of these 24 states within the default budget
        grid = make_grid(6.0, 600)
        for beta in (200.0, 400.0):
            for a in (0.25, 0.5, 1.0, 1.76, 3.0, 5.0, 8.0, 16.0):
                for n in range(3):
                    result = solve_state(grid, TrapConfig(a=a, beta=beta), n)
                    assert result.converged
                    assert_own_eigenpair(result)

    def test_loose_tolerance_spectra_converge(self):
        # solve --a {0.25, 1, 5, 16} --beta 2 --states 8 --D 400 --scf-tol {0.1, 0.5, 1}: a
        # loose stop meets Newton early, so a rung's certificate sees a wide residual ball;
        # widening the window itself to the stop left 8 of these 12 spectra unsolved
        grid = make_grid(6.0, 400)
        for a in (0.25, 1.0, 5.0, 16.0):
            for tol in (0.1, 0.5, 1.0):
                results = solve_spectrum(grid, TrapConfig(a=a, beta=2.0), 8, ScfConfig(tol=tol))
                assert all(r.converged for r in results), (a, tol)

    def test_state_set_certified_without_fallback(self, grid1200, monkeypatch):
        # each solve is certified at its first rung, Newton at beta from the bare pair
        rungs, newton = [], gpdwell.scf._newton

        def recording(grid, beta, *args):
            rungs.append(beta)
            return newton(grid, beta, *args)

        monkeypatch.setattr(gpdwell.scf, "_newton", recording)
        for a in (0.5, 2.0, 5.0, 12.0):
            for beta in (0.0, 0.5, 4.0, 20.0):
                trap = TrapConfig(a=a, beta=beta)
                for n in range(4):
                    rungs.clear()
                    result = solve_state(grid1200, trap, n)
                    assert result.converged and result.eigensolves == 0 and rungs == [beta]
                    assert_own_eigenpair(result)

    @pytest.mark.parametrize("cached", [False, True])
    def test_certificate_miss_returns_the_loops_result(self, grid1200, monkeypatch, cached):
        # after the first rung misses, the ladder climbs from the bare pair to beta / 2 and
        # from there to beta, each rung the same certified Newton run, whether the bare
        # record was cached before the solve or is made by it
        trap, (index, parity) = TrapConfig(a=5.0, beta=1.0), divmod(1, 2)
        newton = solve_state(grid1200, trap, 1)
        bare, pair = gpdwell.scf._bare_start(grid1200, trap.a, parity, index)
        cfg = ScfConfig()
        w, mu, half_steps, found = gpdwell.scf._newton(grid1200, 0.5, bare, pair, index, parity,
                                                       cfg)
        assert found
        w, mu, steps, found = gpdwell.scf._newton(grid1200, 1.0, bare, Eigenpair(mu, w), index,
                                                  parity, cfg)
        assert found
        if not cached:
            gpdwell.scf._bare_start.cache_clear()
        miss_next_certificate(monkeypatch)
        result = solve_state(grid1200, trap, 1)
        assert result.state.mu == mu
        assert np.array_equal(result.state.psi, np.pad(unfold(fix_sign(w), parity), 1))
        assert result.iterations == newton.iterations + half_steps + steps
        assert_same_state(result, newton)

    def test_singular_jacobian_falls_back_to_the_loop(self, grid1200, monkeypatch):
        # a singular first A stops the first rung at its first point, and the ladder ends
        # at the state Newton finds; with every A singular, each rung stops at its first
        # point and the ladder halves its step until it is at most MIN_RUNG * beta
        trap = TrapConfig(a=5.0, beta=0.5)
        newton = solve_state(grid1200, trap, 1)
        jacobian_solve, calls = gpdwell.scf._jacobian_solve, []

        def singular_first(*args):
            calls.append(args)
            return None if len(calls) == 1 else jacobian_solve(*args)

        monkeypatch.setattr(gpdwell.scf, "_jacobian_solve", singular_first)
        assert_same_state(solve_state(grid1200, trap, 1), newton)
        monkeypatch.setattr(gpdwell.scf, "_jacobian_solve", lambda *args: None)
        with pytest.raises(MaxIterationsExceeded) as exc:
            solve_state(grid1200, trap, 1)
        rungs = int(math.log2(1.0 / gpdwell.scf.MIN_RUNG))  # h = beta, beta / 2 ... beta / 2^19
        assert exc.value.result.iterations == 1 + rungs


class TestFailureModes:
    def test_budget_exhausted_reports_residual(self):
        grid = make_grid(6.0, 2000)
        cfg = ScfConfig(max_iter=2)
        with pytest.raises(MaxIterationsExceeded) as exc:
            solve_state(grid, TrapConfig(a=5.0, beta=9.0), 0, cfg)
        result = exc.value.result
        assert not result.converged
        assert result.iterations == 2
        assert result.residual > cfg.tol * (1.0 + abs(result.state.mu))
        assert np.isfinite(result.state.energy)  # the partial state is complete too
        message = str(exc.value)
        assert message.startswith("SCF did not converge in 2 iterations")
        reported = float(message.split("residual ")[1].split(" >")[0])
        assert reported == pytest.approx(result.residual, rel=1e-3)
        assert reported > cfg.tol

    def test_spectrum_continues_past_failures(self):
        grid = make_grid(6.0, 1000)
        cfg = ScfConfig(max_iter=2)
        results = solve_spectrum(grid, TrapConfig(a=5.0, beta=9.0), 2, cfg)
        assert len(results) == 2
        assert any(not r.converged for r in results)

    def test_domain_enlarged_when_state_leaks(self):
        # a shallow box forces the automatic 1.5x growth
        grid = make_grid(2.0, 400)
        result = solve_state(grid, TrapConfig(a=2.0, beta=0.0), 0)
        assert result.state.grid.L > 2.0
        psi = result.state.psi
        assert max(abs(psi[1]), abs(psi[-2])) <= 1e-3

    @pytest.mark.parametrize("D", [400, 4000])
    def test_wall_slope_grows_domain_at_any_spacing(self, D):
        # psi next to the wall shrinks with delta at a fixed wall slope, so a
        # bound on psi there passed this truncated state at D = 4000
        result = solve_state(make_grid(2.2, D), TrapConfig(a=2.0, beta=0.5), 0)
        assert result.state.grid.L == pytest.approx(3.3)

    def test_grown_domain_matches_wide_box(self):
        trap = TrapConfig(a=2.0, beta=0.5)
        grown = solve_state(make_grid(2.2, 4000), trap, 0).state
        wide = solve_state(make_grid(6.0, 7272), trap, 0).state  # the same delta, to 1e-4
        assert grown.grid.delta == pytest.approx(wide.grid.delta, rel=1e-4)
        assert abs(grown.mu - wide.mu) <= 1e-9

    def test_domain_too_small(self):
        grid = make_grid(0.2, 100)
        with pytest.raises(DomainTooSmall):
            solve_state(grid, TrapConfig(a=2.0, beta=0.0), 0)

    def test_negative_n_rejected(self, grid4000):
        with pytest.raises(ValueError):
            solve_state(grid4000, TrapConfig(a=2.0), -1)
