"""Per-particle energy and state overlaps.

energy is a pure function of (grid, psi, trap); the SCF calls it once per
state, on the refined psi, to fill StationaryState.energy. overlap_matrix
takes the solved states alone, since each carries its grid.

The energy functional differs from the chemical potential for beta > 0:
mu_n = E_n + (beta/2) * integral(psi^4). Level splittings are taken
between energies E_n, not chemical potentials.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .grid import Grid, TrapConfig, integrate, potential

if TYPE_CHECKING:
    from .scf import StationaryState


def energy(grid: Grid, psi: np.ndarray, trap: TrapConfig) -> float:
    """Per-particle energy of psi: kinetic + trap + (beta/2) * quartic density term.

    The kinetic term uses the forward-difference derivative summed over
    alpha = 0..D-1, which is summation-by-parts exact against the
    second-difference operator for Dirichlet states; mu - E then equals
    (beta/2) * integral(psi^4) to roundoff.
    """
    dpsi = np.diff(psi) / grid.delta  # forward difference at alpha = 0..D-1
    kinetic = 0.5 * grid.delta * np.dot(dpsi, dpsi)
    rho = psi**2
    e = kinetic + integrate(grid, potential(grid.nodes, trap.a) * rho + 0.5 * trap.beta * rho**2)
    return float(e)


def overlap_matrix(states: list["StationaryState"]) -> np.ndarray:
    """The k x k matrix C_ij = |<psi_i|psi_j>|^2 under the quadrature of the states' grid."""
    if not states:
        raise ValueError("need at least one state")
    grid = states[0].grid
    for s in states:
        if s.grid.D != grid.D or s.grid.L != grid.L:
            raise ValueError(f"state n={s.n} lives on a different grid")
    k = len(states)
    entries = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            c = integrate(grid, states[i].psi * states[j].psi) ** 2
            entries[i, j] = entries[j, i] = c
    return entries
