"""Barrier transmission, classical trajectories, and the unstable point.

The transmission coefficient T = exp(-2*gamma) comes from the action
integral of the effective barrier V(x) + beta*|psi|^2 - mu between the
inner turning points -x2 and x2. A solved state is exactly even or odd
and V is exactly even, so the barrier is bitwise even and x2 is found on
x >= 0 alone; the scan mirrored to x <= 0 would give -x2 bitwise.

Classical motion in the bare double well follows H = p^2/2 - a x^2 + x^4,
with separatrix at E = 0 and Lyapunov exponent sqrt(2a) at the hyperbolic
fixed point (0, 0). Trajectories and Crank-Nicolson propagations run at most
MAX_STEPS steps and keep kept_steps: step 0, every stride-th step and the last.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import Grid, potential

if TYPE_CHECKING:
    from .scf import StationaryState

MAX_STEPS = 50_000_000  # time steps per trajectory or propagation, and values in its snapshots


class TurningPointError(ValueError):
    pass


@dataclass(frozen=True)
class ClassicalTrajectory:
    times: np.ndarray
    points: np.ndarray  # (len(times), 2) columns x, p
    energy: float


def _barrier_edge(grid: Grid, veff: np.ndarray, mu: float) -> float:
    """Right edge x2 >= 0 of the central barrier where veff > mu, for an even veff.

    x2 interpolates veff - mu linearly between the first node x >= 0 where
    veff <= mu and the node before it. A submerged barrier (veff <= mu at
    x = 0) gives x2 = 0: no classically forbidden region.
    """
    f = veff - mu
    mid = grid.D // 2
    below = np.flatnonzero(f[mid:] <= 0)
    if below.size == 0:
        raise TurningPointError(
            f"mu={mu:g} lies below the effective potential everywhere: no classical region"
        )
    lo = mid + below[0]
    if lo == mid:
        return 0.0
    hi, x = lo - 1, grid.nodes
    f1, f2 = f[lo], f[hi]
    return float(x[lo] + (x[hi] - x[lo]) * f1 / (f1 - f2))


def transmission(state: "StationaryState") -> float:
    """WKB transmission through the self-consistent central barrier of a solved state."""
    grid = state.grid
    veff = potential(grid.nodes, state.trap.a) + state.trap.beta * state.psi**2
    x2 = _barrier_edge(grid, veff, state.mu)
    if x2 == 0.0:
        return 1.0

    # One-sided Riemann rule on [-x2, x2]: full cells take the right-node
    # integrand, the fractional first cell takes its right node too; the
    # integrand vanishes at x2 so the fractional last cell contributes 0.
    f = np.sqrt(np.maximum(2.0 * (veff - state.mu), 0.0))
    inside = (grid.nodes > -x2) & (grid.nodes <= x2)
    idx = np.nonzero(inside)[0]
    widths = np.minimum(grid.delta, grid.nodes[idx] + x2)
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


def kept_steps(steps: int, stride: int) -> np.ndarray:
    """The steps a run keeps: 0, stride, 2 stride, ... and always the last, steps.

    Raises ValueError unless steps is an integer in [0, MAX_STEPS] and stride one >= 1.
    """
    if not (isinstance(steps, (int, np.integer)) and 0 <= steps <= MAX_STEPS):
        raise ValueError(f"steps must be an integer in [0, {MAX_STEPS}], got {steps!r}")
    if not (isinstance(stride, (int, np.integer)) and stride >= 1):
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    return np.append(np.arange(0, steps, stride), steps)


def _rk4(a: float, dt: float, x: float, p: float, blocks):
    """RK4 for xdot = p, pdot = 2a x - 4 x^3 from (x, p): the point after each block of steps.

    The step runs on Python floats in the operation order of the vector form
    y + (dt/6)(k1 + 2 k2 + 2 k3 + k4), so every point is bitwise that of the
    vector form. An x**3 past the float range yields (nan, nan) and ends it.
    """
    two_a, half, sixth = 2.0 * a, 0.5 * dt, dt / 6.0
    for block in blocks:
        try:
            for _ in range(block):
                # slopes k1 = (p, dp1), k2 = (dx2, dp2), ..., force 2a y - 4 y^3 at stage point y
                dp1 = two_a * x - 4.0 * x**3
                y = x + half * p
                dx2, dp2 = p + half * dp1, two_a * y - 4.0 * y**3
                y = x + half * dx2
                dx3, dp3 = p + half * dp2, two_a * y - 4.0 * y**3
                y = x + dt * dx3
                dx4, dp4 = p + dt * dp3, two_a * y - 4.0 * y**3
                x = x + sixth * (p + 2 * dx2 + 2 * dx3 + dx4)
                p = p + sixth * (dp1 + 2 * dp2 + 2 * dp3 + dp4)
        except OverflowError:
            yield math.nan, math.nan
            return
        yield x, p


def classical_trajectory(a: float, x0: float, p0: float, dt: float, t_max: float,
                         stride: int = 1) -> ClassicalTrajectory:
    """RK4 (_rk4) from (x0, p0) for step_count(t_max, dt) steps dt, keeping kept_steps.

    The kept points go into arrays of their final size as the run goes; a run
    that leaves the float range raises ValueError, naming the last time reached.
    """
    if not all(map(math.isfinite, (a, x0, p0))):
        raise ValueError(f"a, x0 and p0 must be finite, got {a:g}, {x0:g}, {p0:g}")
    kept = kept_steps(step_count(t_max, dt), stride)
    points = np.empty((len(kept), 2))
    points[0] = x0, p0
    for j, (x, p) in enumerate(_rk4(a, dt, float(x0), float(p0), np.diff(kept)), 1):
        if not (math.isfinite(x) and math.isfinite(p)):
            # inf and nan never go away: step the block again, bitwise, to its first such point
            again = _rk4(a, dt, *points[j - 1].tolist(), itertools.repeat(1))
            last = kept[j - 1] + sum(1 for _ in itertools.takewhile(
                lambda point: all(map(math.isfinite, point)), again))
            raise ValueError(f"the RK4 step overflowed after t = {dt * last:g}; "
                             f"use a smaller time step dt (--dt)")
        points[j] = x, p
    return ClassicalTrajectory(times=dt * kept, points=points,
                               energy=float(0.5 * p0**2 + potential(x0, a)))


def lyapunov_exponent(a: float) -> float:
    """Instability rate sqrt(2a) of the fixed point at the barrier top."""
    if not 0.0 < a < math.inf:  # also rejects nan
        raise ValueError(f"a must be positive and finite, got {a}")
    return float(np.sqrt(2.0 * a))
