import numpy as np
import pytest

from gpdwell.grid import TrapConfig, integrate, make_grid
from gpdwell.observables import energy, overlap_matrix
from gpdwell.scf import StationaryState, solve_spectrum


class TestEnergy:
    def test_equals_mu_at_beta_zero(self, grid4000, ground_a2_b0):
        state = ground_a2_b0.state
        e = energy(grid4000, state.psi, TrapConfig(a=2.0, beta=0.0))
        assert e == pytest.approx(state.mu, abs=1e-6)

    def test_mu_energy_identity(self, grid4000, ground_a5_b03):
        state = ground_a5_b03.state
        trap = TrapConfig(a=5.0, beta=0.3)
        e = energy(grid4000, state.psi, trap)
        quartic = integrate(grid4000, state.psi**4)
        assert e < state.mu
        assert state.mu - e == pytest.approx(0.5 * trap.beta * quartic, abs=1e-6)

    def test_stores_into_state(self, ground_a2_b0):
        # the solver stores the energy of its psi into the state it returns
        state = ground_a2_b0.state
        assert state.energy == energy(state.grid, state.psi, state.trap)

    def test_sign_flip_invariance(self, grid4000, ground_a2_b0):
        psi = ground_a2_b0.state.psi
        trap = TrapConfig(a=2.0, beta=0.0)
        e_plus = energy(grid4000, psi, trap)
        assert energy(grid4000, -psi, trap) == pytest.approx(e_plus, rel=1e-12)

    def test_index_reversal_invariance(self, grid4000, ground_a5_b03):
        psi = ground_a5_b03.state.psi
        trap = TrapConfig(a=5.0, beta=0.3)
        e = energy(grid4000, psi, trap)
        assert energy(grid4000, psi[::-1].copy(), trap) == pytest.approx(e, rel=1e-9)


class TestSplitting:
    def test_pairing_structure(self, spectrum_a5_b01):
        e = [r.state.energy for r in spectrum_a5_b01]
        assert e[1] - e[0] < 0.1 * (e[3] - e[2])

    def test_gap_decreases_with_depth_at_beta_zero(self):
        grid = make_grid(6.0, 2000)
        gaps = []
        for a in (2.0, 3.5, 5.0):
            rs = solve_spectrum(grid, TrapConfig(a=a, beta=0.0), 2)
            gaps.append(rs[1].state.energy - rs[0].state.energy)
        assert gaps[0] > gaps[1] > gaps[2]


class TestOverlapMatrix:
    def test_linear_states_orthogonal(self, grid4000):
        results = solve_spectrum(grid4000, TrapConfig(a=5.0, beta=0.0), 3)
        m = overlap_matrix([r.state for r in results])
        off = m - np.diag(np.diag(m))
        assert np.max(np.abs(off)) <= 1e-6
        np.testing.assert_allclose(np.diag(m), 1.0, atol=1e-10)
        np.testing.assert_array_equal(m, m.T)

    def test_opposite_parity_stays_orthogonal(self, spectrum_a5_b01):
        m = overlap_matrix([r.state for r in spectrum_a5_b01])
        for i in range(4):
            for j in range(4):
                if (i + j) % 2 == 1:
                    assert m[i, j] <= 1e-8

    def test_same_parity_overlap_grows_with_beta(self, grid4000):
        c02 = []
        for beta in (0.0, 0.25, 0.5):
            rs = solve_spectrum(grid4000, TrapConfig(a=5.0, beta=beta), 3)
            c02.append(overlap_matrix([r.state for r in rs])[0, 2])
        assert c02[0] < c02[1] < c02[2]

    def test_no_states_refused(self):
        with pytest.raises(ValueError, match="at least one state"):
            overlap_matrix([])

    def test_grid_mismatch(self, grid4000):
        other = make_grid(5.0, 4000)
        s1, s2 = (StationaryState(n=0, psi=np.zeros(g.D + 1), mu=0.0, energy=0.0,
                                  trap=TrapConfig(a=2.0), grid=g) for g in (grid4000, other))
        with pytest.raises(ValueError, match="grid"):
            overlap_matrix([s1, s2])
