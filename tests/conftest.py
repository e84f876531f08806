import pytest

import gpdwell.eigensolver
from gpdwell.grid import TrapConfig, make_grid
from gpdwell.scf import solve_spectrum, solve_state


@pytest.fixture(scope="session")
def grid4000():
    return make_grid(6.0, 4000)


@pytest.fixture(scope="session")
def grid1200():
    return make_grid(6.0, 1200)


@pytest.fixture(scope="session")
def spectrum_a5_b01(grid4000):
    """Four states at (a, beta) = (5, 0.1); reused across suites."""
    return solve_spectrum(grid4000, TrapConfig(a=5.0, beta=0.1), 4)


@pytest.fixture(scope="session")
def ground_a2_b0(grid4000):
    return solve_state(grid4000, TrapConfig(a=2.0, beta=0.0), 0)


@pytest.fixture(scope="session")
def ground_a5_b03(grid4000):
    return solve_state(grid4000, TrapConfig(a=5.0, beta=0.3), 0)


@pytest.fixture
def sturm_counts(monkeypatch):
    """The points of every eigensolver.count_below call made from here on."""
    calls = []
    original = gpdwell.eigensolver.count_below

    def spy(op, x):
        calls.append(x)
        return original(op, x)

    monkeypatch.setattr(gpdwell.eigensolver, "count_below", spy)
    return calls
