"""Coherent states, Crank-Nicolson propagation, and FOTOC growth.

Propagation is strictly linear (no interaction term): the unstable-point
dynamics of interest lives at beta = 0, so propagate builds the bare
3-point Hamiltonian on the full grid itself: a packet off the origin has no
parity, and the hamiltonian module's parity blocks do not apply. A packet
is its complex vector on grid.nodes, and a run its kept times with one
array of snapshot rows; like the RK4 orbit it keeps semiclassics.kept_steps,
step 0, every stride-th step and the last. The FOTOC is the sum of position
and momentum variances of the evolving packet; near the separatrix it grows
exponentially at a rate set by the fixed-point instability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .grid import Grid, integrate, potential
from .semiclassics import MAX_STEPS, kept_steps

MIN_SNAPSHOTS = 10  # the shortest series fotoc takes


@dataclass
class FotocSeries:
    times: np.ndarray
    F: np.ndarray
    var_x: np.ndarray
    var_p: np.ndarray
    norm: np.ndarray  # delta * sum |psi|^2 of each snapshot


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares line through log F over its growth window."""

    rate: float  # slope of log F
    r2: float  # coefficient of determination of the line
    window: tuple[float, float]


def coherent_state(grid: Grid, x0: float, p0: float) -> np.ndarray:
    """Minimal-uncertainty Gaussian packet centered at (x0, p0), on grid.nodes.

    Var_x = Var_p = 1/2 (unit-frequency harmonic reference, hbar = m = 1).
    Returns the normalized complex vector of length D+1, zero at the walls.
    """
    if not abs(x0) < grid.L:  # also rejects nan
        raise ValueError(f"|x0| must be < L={grid.L}, got {x0}")
    if not np.isfinite(p0):
        raise ValueError(f"p0 must be finite, got {p0}")
    x = grid.nodes
    psi = np.exp(-((x - x0) ** 2) / 2.0) * np.exp(1j * p0 * (x - x0))
    psi[0] = psi[-1] = 0.0
    psi /= np.sqrt(integrate(grid, np.abs(psi) ** 2))
    tail = max(abs(psi[1]), abs(psi[-2]))
    if tail > 1e-3:
        raise ValueError(f"packet tail {tail:.2e} at the walls exceeds 1e-3; enlarge L")
    return psi


def propagate(
    grid: Grid,
    a: float,
    psi0: np.ndarray,
    dt: float,
    steps: int,
    snapshot_stride: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Crank-Nicolson evolution of psi0 (length D+1) under the bare double-well Hamiltonian.

    H is the 3-point operator on the D-1 interior nodes with no interaction
    term: 1/delta^2 + V(x) on the diagonal, -1/(2 delta^2) off it. Each
    step is psi_{k+1} = (1 + zH)^-1 (1 - zH) psi_k, z = i dt/2, unitary up
    to roundoff; as 1 - zH = 2 - (1 + zH), that is 2 (1 + zH)^-1 psi_k -
    psi_k. 1 + zH is LU-factored once (LAPACK zgttrf, partial pivoting) and
    every step is one zgttrs solve, bitwise a fresh banded solve per step.

    Returns the kept steps k, kept_steps(steps, snapshot_stride), as times
    dt k, and a (count, D+1) complex array of the states there. Before any
    step a psi0 of another length is refused, and so are steps or a stride
    kept_steps refuses, a run whose snapshots would hold more than MAX_STEPS
    values in all and an a that is not positive and finite.
    """
    if not 0.0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    if np.shape(psi0) != (grid.D + 1,):
        raise ValueError(f"psi0 must have shape (D+1,) = ({grid.D + 1},), got {np.shape(psi0)}")
    kept = kept_steps(steps, snapshot_stride)
    if len(kept) * (grid.D + 1) > MAX_STEPS:
        raise ValueError(f"{len(kept)} snapshots of {grid.D + 1} values exceed {MAX_STEPS} "
                         f"in all; raise the snapshot stride")
    if not 0 < a < np.inf:  # also rejects nan
        raise ValueError(f"well-depth parameter a must be positive and finite, got {a}")
    inv_d2 = 1.0 / grid.delta**2
    z = 0.5j * dt
    off = z * np.full(grid.D - 2, -0.5 * inv_d2)
    diag = 1.0 + z * (inv_d2 + potential(grid.interior, a))
    *lu, info = zgttrf(off, diag, off)  # lu: dl, d, du, du2, ipiv
    if info != 0:
        raise np.linalg.LinAlgError("Crank-Nicolson matrix is singular")

    snapshots = np.zeros((len(kept), grid.D + 1), dtype=complex)
    snapshots[0] = psi0
    psi = snapshots[0, 1:-1].copy()
    for row in range(1, len(kept)):
        for _ in range(kept[row] - kept[row - 1]):
            psi = 2.0 * zgttrs(*lu, psi)[0] - psi
        snapshots[row, 1:-1] = psi
    return dt * kept, snapshots


def _moments(grid: Grid, psi: np.ndarray) -> tuple[float, float, float]:
    """(Var_x, Var_p, norm) of a complex state via difference stencils."""
    x = grid.nodes
    rho = np.abs(psi) ** 2
    norm = integrate(grid, rho)
    ex = integrate(grid, x * rho) / norm
    ex2 = integrate(grid, x**2 * rho) / norm
    var_x = ex2 - ex**2

    dpsi = np.zeros_like(psi)
    dpsi[:-1] = np.diff(psi) / grid.delta  # forward difference
    ep = integrate(grid, (-1j * np.conj(psi) * dpsi).real) / norm
    d2psi = np.zeros_like(psi)
    d2psi[1:-1] = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / grid.delta**2
    ep2 = integrate(grid, (-np.conj(psi) * d2psi).real) / norm
    var_p = ep2 - ep**2
    return float(var_x), float(var_p), float(norm)


def fotoc(grid: Grid, times: np.ndarray, snapshots: np.ndarray) -> FotocSeries:
    """Variance-sum correlator F(t) = Var_x(t) + Var_p(t), one snapshot row at a time.

    The series also keeps the norm of each snapshot, which the moments divide by.
    """
    if len(times) < MIN_SNAPSHOTS:
        raise ValueError(f"need at least {MIN_SNAPSHOTS} snapshots, got {len(times)}")
    var_x, var_p, norm = np.empty((3, len(times)))
    for i, psi in enumerate(snapshots):
        var_x[i], var_p[i], norm[i] = _moments(grid, psi)
    return FotocSeries(times=times, F=var_x + var_p, var_x=var_x, var_p=var_p, norm=norm)


def growth_rate(series: FotocSeries) -> GrowthFit:
    """Least-squares line through log F over the growth window: its slope, r^2 and window.

    The window runs from the first sample where F has cleared 3x its initial
    value (transient over) to the first where F reaches half its peak on a
    log scale (before saturation). Raises ValueError, naming the window,
    where there is none or it holds fewer than 4 samples.
    """
    f0 = series.F[0]
    peak = float(np.max(series.F))
    log_hi = np.exp(0.5 * (np.log(f0) + np.log(peak)))
    above = np.nonzero(series.F >= 3.0 * f0)[0]
    upper = np.nonzero(series.F >= log_hi)[0]
    if above.size == 0 or upper.size == 0 or upper[0] <= above[0]:
        raise ValueError("no exponential-growth window found in the series")
    lo, hi = above[0], upper[0] + 1
    if hi - lo < 4:
        raise ValueError(f"growth window contains {hi - lo} samples, fewer than 4")
    t = series.times[lo:hi]
    y = np.log(series.F[lo:hi])
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - float(np.sum(resid**2) / ss_tot) if ss_tot > 0 else 1.0
    return GrowthFit(rate=float(slope), r2=r2, window=(float(t[0]), float(t[-1])))
