"""Per-particle energy, level splittings, and state overlaps.

The energy functional differs from the chemical potential for beta > 0:
mu_n = E_n + (beta/2) * integral(psi^4). Splittings are taken between
energies E_n, not chemical potentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import Grid, TrapConfig, integrate, potential

if TYPE_CHECKING:
    from .scf import StationaryState


@dataclass(frozen=True)
class OverlapMatrix:
    """Pairwise squared overlaps C_ij = |<psi_i|psi_j>|^2."""

    k: int
    entries: np.ndarray


def energy(grid: Grid, state: "StationaryState", trap: TrapConfig) -> float:
    """Per-particle energy: kinetic + trap + (beta/2) * quartic density term.

    The kinetic term uses the forward-difference derivative summed over
    alpha = 0..D-1, which is summation-by-parts exact against the
    second-difference operator for Dirichlet states; mu - E then equals
    (beta/2) * integral(psi^4) to roundoff.
    """
    psi = state.psi
    dpsi = np.diff(psi) / grid.delta  # forward difference at alpha = 0..D-1
    kinetic = 0.5 * grid.delta * np.dot(dpsi, dpsi)
    rho = psi**2
    e = kinetic + integrate(grid, potential(grid.nodes, trap.a) * rho + 0.5 * trap.beta * rho**2)
    state.energy = float(e)
    return state.energy


def splitting(states: list["StationaryState"]) -> list[float]:
    """Consecutive energy differences E_{n+1} - E_n."""
    if len(states) < 2:
        raise ValueError("need at least two states")
    energies = []
    for s in states:
        if s.energy is None:
            raise ValueError(f"state n={s.n} has no energy filled")
        energies.append(s.energy)
    return [energies[i + 1] - energies[i] for i in range(len(energies) - 1)]


def overlap_matrix(grid: Grid, states: list["StationaryState"]) -> OverlapMatrix:
    """C_ij = |<psi_i|psi_j>|^2 under the grid quadrature."""
    for s in states:
        if s.grid.D != grid.D or s.grid.L != grid.L:
            raise ValueError(f"state n={s.n} lives on a different grid")
    k = len(states)
    entries = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            c = integrate(grid, states[i].psi * states[j].psi) ** 2
            entries[i, j] = entries[j, i] = c
    return OverlapMatrix(k=k, entries=entries)

