import dataclasses

import numpy as np
import pytest

import gpdwell.scf
from gpdwell.eigensolver import lowest_eigenpairs, refine_eigenpair
from gpdwell.grid import TrapConfig, integrate, make_grid
from gpdwell.hamiltonian import assemble
from gpdwell.scf import (
    DomainTooSmall,
    MaxIterationsExceeded,
    ScfConfig,
    solve_spectrum,
    solve_state,
)


class TestScfConfig:
    def test_defaults(self):
        cfg = ScfConfig()
        assert cfg.tol == 1e-9
        assert cfg.max_iter == 500

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": -1e-6}, {"tol": float("nan")},
        {"max_iter": 0}, {"max_iter": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScfConfig(**kwargs)


class TestLinearLimit:
    def test_beta_zero_converges_at_first_recheck(self):
        # the first unrefined pair already meets the residual stop
        grid = make_grid(6.0, 800)
        result = solve_state(grid, TrapConfig(a=3.0, beta=0.0), 0)
        assert result.converged
        assert result.iterations == 1

    def test_beta_zero_mu_equals_linear_eigenvalue(self):
        grid = make_grid(6.0, 800)
        trap = TrapConfig(a=3.0, beta=0.0)
        result = solve_state(grid, trap, 1)
        op = assemble(grid, trap, np.zeros(grid.D - 1))
        linear = refine_eigenpair(op, lowest_eigenpairs(op, 2, grid)[1], grid).value
        assert result.state.mu == linear

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
        assert 1 <= r.eigensolves <= r.iterations
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
        grid = make_grid(6.0, 600)
        trap = TrapConfig(a=1.25, beta=4.0)
        near = solve_state(grid, TrapConfig(a=1.26, beta=4.0), 0)
        cold = solve_state(grid, trap, 0)
        warm = solve_state(grid, trap, 0, initial_density=near.state.psi[1:-1] ** 2)
        assert warm.converged
        assert warm.iterations < cold.iterations
        assert warm.state.mu == pytest.approx(cold.state.mu, abs=1e-8)

    def test_wrong_length_rejected(self):
        grid = make_grid(6.0, 400)
        with pytest.raises(ValueError, match="D-1"):
            solve_state(grid, TrapConfig(a=2.0, beta=1.0), 0, initial_density=np.ones(grid.D + 1))

    def test_domain_growth_starts_cold(self):
        grid = make_grid(2.0, 400)
        trap = TrapConfig(a=2.0, beta=1.0)
        cold = solve_state(grid, trap, 0)
        warm = solve_state(grid, trap, 0, initial_density=np.exp(-4.0 * grid.interior**2))
        assert warm.state.grid.L == cold.state.grid.L > grid.L
        assert warm.iterations == cold.iterations
        assert np.array_equal(warm.state.psi, cold.state.psi)


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
        assert [r.eigensolves for r in spectrum_a5_b01] == [1, 1, 1, 1]
        assert all(r.iterations > 1 for r in spectrum_a5_b01[1:])

    def test_failed_certificate_falls_back_to_eigensolve(self, grid4000, monkeypatch):
        monkeypatch.setattr(gpdwell.scf, "follow_eigenpair", lambda *args: None)
        result = solve_state(grid4000, TrapConfig(a=5.0, beta=0.5), 1)
        assert result.iterations > 1
        assert result.eigensolves == result.iterations

    def test_same_states_as_full_eigensolves(self, grid4000, monkeypatch):
        cases = [(a, beta, n) for a in (5.0, 12.0) for beta in (0.0, 0.5, 1.0) for n in range(4)]
        cases += [(5.0, 9.0, 0), (2.0, 20.0, 0)]
        warm = [solve_state(grid4000, TrapConfig(a=a, beta=b), n) for a, b, n in cases]
        monkeypatch.setattr(gpdwell.scf, "follow_eigenpair", lambda *args: None)
        for (a, b, n), w in zip(cases, warm):
            cold = solve_state(grid4000, TrapConfig(a=a, beta=b), n)
            scale = 1e-9 * (1.0 + abs(cold.state.mu))
            assert w.state.mu == pytest.approx(cold.state.mu, abs=scale)
            assert w.state.energy == pytest.approx(cold.state.energy, abs=scale)
            assert abs(w.iterations - cold.iterations) <= 1


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
