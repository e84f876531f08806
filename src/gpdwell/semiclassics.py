"""Barrier transmission, classical trajectories, and the unstable point.

The transmission coefficient T = exp(-2*gamma) comes from the action
integral of the effective barrier V(x) + beta*|psi|^2 - mu between the
inner turning points. Classical motion in the bare double well follows
H = p^2/2 - a x^2 + x^4, with separatrix at E = 0 and Lyapunov exponent
sqrt(2a) at the hyperbolic fixed point (0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import Grid, TrapConfig, potential

if TYPE_CHECKING:
    from .scf import StationaryState

MAX_STEPS = 50_000_000  # time steps per trajectory or propagation


class TurningPointError(ValueError):
    pass


@dataclass(frozen=True)
class TurningPair:
    """Inner classical turning points bracketing the central barrier."""

    x1: float
    x2: float

    @property
    def degenerate(self) -> bool:
        return self.x1 == self.x2


@dataclass(frozen=True)
class ClassicalTrajectory:
    times: np.ndarray
    points: np.ndarray  # (len(times), 2) columns x, p
    energy: float


def effective_potential(grid: Grid, trap: TrapConfig, psi) -> np.ndarray:
    """V(x) + beta*psi(x)^2 sampled at every node."""
    psi = np.asarray(psi, dtype=float)
    return potential(grid.nodes, trap.a) + trap.beta * psi**2


def turning_points(grid: Grid, veff, mu: float) -> TurningPair:
    """Locate the barrier turning points nearest x=0 on each side.

    Sign changes of veff - mu are interpolated linearly between bracketing
    nodes. A submerged barrier (max(veff) <= mu) gives the degenerate pair
    x1 = x2 = 0: no classically forbidden region.
    """
    veff = np.asarray(veff, dtype=float)
    if mu < np.min(veff):
        raise TurningPointError(
            f"mu={mu:g} lies below the effective potential everywhere: no classical region"
        )
    f = veff - mu
    if np.max(f) <= 0:
        return TurningPair(0.0, 0.0)

    mid = grid.D // 2
    if f[mid] <= 0:
        # Barrier top below mu at the origin itself (tangency or dip).
        return TurningPair(0.0, 0.0)

    x = grid.nodes

    def cross(alpha_hi: int, alpha_lo: int) -> float:
        # Linear interpolation of the root between two nodes.
        f1, f2 = f[alpha_lo], f[alpha_hi]
        return float(x[alpha_lo] + (x[alpha_hi] - x[alpha_lo]) * f1 / (f1 - f2))

    x1 = None
    for alpha in range(mid, 0, -1):
        if f[alpha - 1] <= 0 < f[alpha]:
            x1 = cross(alpha, alpha - 1)
            break
    x2 = None
    for alpha in range(mid, grid.D):
        if f[alpha + 1] <= 0 < f[alpha]:
            x2 = cross(alpha, alpha + 1)
            break
    if x1 is None or x2 is None:
        raise TurningPointError("barrier does not terminate inside the grid")
    return TurningPair(x1, x2)


def transmission(state: "StationaryState") -> float:
    """WKB transmission through the self-consistent central barrier of a solved state."""
    grid = state.grid
    veff = effective_potential(grid, state.trap, state.psi)
    pair = turning_points(grid, veff, state.mu)
    if pair.degenerate:
        return 1.0

    # One-sided Riemann rule on [x1, x2]: full cells take the right-node
    # integrand, the fractional first cell takes its right node too; the
    # integrand vanishes at x2 so the fractional last cell contributes 0.
    f = np.sqrt(np.maximum(2.0 * (veff - state.mu), 0.0))
    inside = (grid.nodes > pair.x1) & (grid.nodes <= pair.x2)
    idx = np.nonzero(inside)[0]
    widths = np.minimum(grid.delta, grid.nodes[idx] - pair.x1)
    gamma = float(np.dot(widths, f[idx]))
    return float(np.exp(-2.0 * gamma))


def step_count(t_max: float, dt: float) -> int:
    """The number of steps dt in [0, t_max], round(t_max / dt).

    Raises ValueError, before any step runs, unless dt > 0 and t_max >= 0
    are finite and the count is at most MAX_STEPS.
    """
    if not 0.0 < dt < math.inf:  # also rejects nan
        raise ValueError(f"dt must be positive and finite, got {dt:g}")
    if not 0.0 <= t_max < math.inf:
        raise ValueError(f"t_max must be finite and >= 0, got {t_max:g}")
    if not t_max / dt <= MAX_STEPS:
        raise ValueError(f"step count {t_max / dt:.3g} exceeds {MAX_STEPS}")
    return int(round(t_max / dt))


def classical_trajectory(
    a: float, x0: float, p0: float, dt: float, t_max: float
) -> ClassicalTrajectory:
    """RK4 integration of xdot = p, pdot = 2a x - 4 x^3.

    The step runs on Python floats, not on small arrays, and keeps the
    operation order of the vector form y + (dt/6)(k1 + 2 k2 + 2 k3 + k4),
    so every point is bitwise that of the vector form.
    """
    if not all(map(math.isfinite, (a, x0, p0))):
        raise ValueError(f"a, x0 and p0 must be finite, got {a:g}, {x0:g}, {p0:g}")
    n_steps = step_count(t_max, dt)

    def force(x):
        return 2.0 * a * x - 4.0 * x**3

    half, sixth = 0.5 * dt, dt / 6.0
    x, p = float(x0), float(p0)
    xs, ps = [x], [p]
    for _ in range(n_steps):
        # stage slopes k1 = (p, dp1), k2 = (dx2, dp2), k3 = (dx3, dp3), k4 = (dx4, dp4)
        dp1 = force(x)
        dx2, dp2 = p + half * dp1, force(x + half * p)
        dx3, dp3 = p + half * dp2, force(x + half * dx2)
        dx4, dp4 = p + dt * dp3, force(x + dt * dx3)
        x = x + sixth * (p + 2 * dx2 + 2 * dx3 + dx4)
        p = p + sixth * (dp1 + 2 * dp2 + 2 * dp3 + dp4)
        xs.append(x)
        ps.append(p)
    points = np.empty((n_steps + 1, 2))
    points[:, 0] = xs
    points[:, 1] = ps

    energy = 0.5 * p0**2 + potential(x0, a)
    times = dt * np.arange(n_steps + 1)
    return ClassicalTrajectory(times=times, points=points, energy=float(energy))


def lyapunov_exponent(a: float) -> float:
    """Instability rate sqrt(2a) of the fixed point at the barrier top."""
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    return float(np.sqrt(2.0 * a))
