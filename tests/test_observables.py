import numpy as np
import pytest

from gpdwell.grid import TrapConfig, integrate, make_grid
from gpdwell.observables import energy, overlap_matrix, splitting
from gpdwell.scf import StationaryState, solve_spectrum, solve_state


def _fake_state(grid, psi, n=0, mu=0.0, a=2.0, beta=0.0, e=None):
    return StationaryState(n=n, psi=psi, mu=mu, parity="none", beta=beta, a=a,
                           grid=grid, energy=e)


class TestEnergy:
    def test_equals_mu_at_beta_zero(self, grid4000, ground_a2_b0):
        state = ground_a2_b0.state
        e = energy(grid4000, state, TrapConfig(a=2.0, beta=0.0))
        assert e == pytest.approx(state.mu, abs=1e-6)

    def test_mu_energy_identity(self, grid4000, ground_a5_b03):
        state = ground_a5_b03.state
        trap = TrapConfig(a=5.0, beta=0.3)
        e = energy(grid4000, state, trap)
        quartic = integrate(grid4000, state.psi**4)
        assert e < state.mu
        assert state.mu - e == pytest.approx(0.5 * trap.beta * quartic, abs=1e-6)

    def test_stores_into_state(self, grid4000, ground_a2_b0):
        state = ground_a2_b0.state
        state.energy = None
        e = energy(grid4000, state, TrapConfig(a=2.0, beta=0.0))
        assert state.energy == e

    def test_sign_flip_invariance(self, grid4000, ground_a2_b0):
        state = ground_a2_b0.state
        trap = TrapConfig(a=2.0, beta=0.0)
        e_plus = energy(grid4000, state, trap)
        flipped = _fake_state(grid4000, -state.psi, mu=state.mu)
        assert energy(grid4000, flipped, trap) == pytest.approx(e_plus, rel=1e-12)

    def test_index_reversal_invariance(self, grid4000, ground_a5_b03):
        state = ground_a5_b03.state
        trap = TrapConfig(a=5.0, beta=0.3)
        e = energy(grid4000, state, trap)
        mirrored = _fake_state(grid4000, state.psi[::-1].copy(), beta=0.3, a=5.0)
        assert energy(grid4000, mirrored, trap) == pytest.approx(e, rel=1e-9)


class TestSplitting:
    def test_consecutive_differences(self, grid4000):
        states = [_fake_state(grid4000, np.zeros(grid4000.D + 1), n=i, e=val)
                  for i, val in enumerate([1.0, 1.5, 3.0])]
        assert splitting(states) == pytest.approx([0.5, 1.5])

    def test_degenerate_inputs(self, grid4000):
        states = [_fake_state(grid4000, np.zeros(grid4000.D + 1), n=i, e=2.0)
                  for i in range(2)]
        assert splitting(states) == [0.0]

    def test_unfilled_energy(self, grid4000):
        states = [_fake_state(grid4000, np.zeros(grid4000.D + 1), n=i) for i in range(2)]
        with pytest.raises(ValueError, match="energy"):
            splitting(states)

    def test_needs_two_states(self, grid4000):
        with pytest.raises(ValueError):
            splitting([_fake_state(grid4000, np.zeros(grid4000.D + 1), e=1.0)])

    def test_pairing_structure(self, spectrum_a5_b01):
        gaps = splitting([r.state for r in spectrum_a5_b01])
        assert gaps[0] < 0.1 * gaps[2]

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
        m = overlap_matrix(grid4000, [r.state for r in results])
        off = m.entries - np.diag(np.diag(m.entries))
        assert np.max(np.abs(off)) <= 1e-6
        np.testing.assert_allclose(np.diag(m.entries), 1.0, atol=1e-10)
        np.testing.assert_array_equal(m.entries, m.entries.T)

    def test_opposite_parity_stays_orthogonal(self, grid4000, spectrum_a5_b01):
        m = overlap_matrix(grid4000, [r.state for r in spectrum_a5_b01])
        for i in range(4):
            for j in range(4):
                if (i + j) % 2 == 1:
                    assert m.entries[i, j] <= 1e-8

    def test_same_parity_overlap_grows_with_beta(self, grid4000):
        c02 = []
        for beta in (0.0, 0.25, 0.5):
            rs = solve_spectrum(grid4000, TrapConfig(a=5.0, beta=beta), 3)
            c02.append(overlap_matrix(grid4000, [r.state for r in rs]).entries[0, 2])
        assert c02[0] < c02[1] < c02[2]

    def test_grid_mismatch(self, grid4000):
        other = make_grid(5.0, 4000)
        s1 = _fake_state(grid4000, np.zeros(grid4000.D + 1))
        s2 = _fake_state(other, np.zeros(other.D + 1))
        with pytest.raises(ValueError, match="grid"):
            overlap_matrix(grid4000, [s1, s2])

