"""Coherent states, Crank-Nicolson propagation, and FOTOC growth.

Propagation is strictly linear (no interaction term): the unstable-point
dynamics of interest lives at beta = 0. The FOTOC is the sum of position
and momentum variances of the evolving packet; near the separatrix it
grows exponentially at a rate set by the fixed-point instability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .grid import Grid, TrapConfig, integrate
from .hamiltonian import assemble


@dataclass(frozen=True)
class WavePacket:
    values: np.ndarray  # complex, length D+1, zeros at the walls
    grid: Grid
    time: float = 0.0


@dataclass
class FotocSeries:
    times: np.ndarray
    F: np.ndarray
    var_x: np.ndarray
    var_p: np.ndarray


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares line through log F over a time window."""

    rate: float  # slope of log F
    r2: float  # coefficient of determination of the line
    window: tuple[float, float]


def coherent_state(grid: Grid, x0: float, p0: float, width: float = 0.5) -> WavePacket:
    """Minimal-uncertainty Gaussian packet centered at (x0, p0).

    width is the position variance; the default 1/2 gives Var_x = Var_p = 1/2
    (unit-frequency harmonic reference, hbar = m = 1).
    """
    if not abs(x0) < grid.L:  # also rejects nan
        raise ValueError(f"|x0| must be < L={grid.L}, got {x0}")
    if not np.isfinite(p0):
        raise ValueError(f"p0 must be finite, got {p0}")
    x = grid.nodes
    psi = np.exp(-((x - x0) ** 2) / (4.0 * width)) * np.exp(1j * p0 * (x - x0))
    psi[0] = psi[-1] = 0.0
    psi /= np.sqrt(integrate(grid, np.abs(psi) ** 2))
    tail = max(abs(psi[1]), abs(psi[-2]))
    if tail > 1e-3:
        raise ValueError(f"packet tail {tail:.2e} at the walls exceeds 1e-3; enlarge L")
    return WavePacket(values=psi, grid=grid)


def propagate(
    grid: Grid,
    a: float,
    psi0: WavePacket,
    dt: float,
    steps: int,
    snapshot_stride: int = 1,
) -> list[WavePacket]:
    """Crank-Nicolson evolution under the bare double-well Hamiltonian.

    Each step solves (1 + i dt/2 H) psi_{k+1} = (1 - i dt/2 H) psi_k; the
    scheme is unitary up to roundoff. The tridiagonal matrix on the left is
    LU-factored once (LAPACK zgttrf, partial pivoting) and every step is one
    zgttrs solve, which gives bitwise the result of a fresh banded solve per
    step.
    """
    if not 0.0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    op = assemble(grid, TrapConfig(a=a, beta=0.0), np.zeros(grid.D - 1))

    z = 0.5j * dt
    off = z * op.offdiag
    *lu, info = zgttrf(off, 1.0 + z * op.diag, off)  # lu: dl, d, du, du2, ipiv
    if info != 0:
        raise np.linalg.LinAlgError("Crank-Nicolson matrix is singular")

    psi = psi0.values[1:-1].astype(complex)
    snapshots = [WavePacket(values=psi0.values.astype(complex), grid=grid, time=psi0.time)]
    for k in range(1, steps + 1):
        rhs = psi - z * op.apply(psi)
        psi, _ = zgttrs(*lu, rhs, overwrite_b=True)
        if k % snapshot_stride == 0 or k == steps:
            full = np.zeros(grid.D + 1, dtype=complex)
            full[1:-1] = psi
            snapshots.append(WavePacket(values=full, grid=grid, time=psi0.time + k * dt))
    return snapshots


def _moments(grid: Grid, psi: np.ndarray) -> tuple[float, float]:
    """(Var_x, Var_p) of a normalized complex state via difference stencils."""
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
    return float(var_x), float(var_p)


def fotoc(snapshots: list[WavePacket]) -> FotocSeries:
    """Variance-sum correlator F(t) = Var_x(t) + Var_p(t) over the snapshots."""
    if len(snapshots) < 10:
        raise ValueError(f"need at least 10 snapshots, got {len(snapshots)}")
    times = np.array([s.time for s in snapshots])
    var_x = np.empty(len(snapshots))
    var_p = np.empty(len(snapshots))
    for i, s in enumerate(snapshots):
        var_x[i], var_p[i] = _moments(s.grid, s.values)
    return FotocSeries(times=times, F=var_x + var_p, var_x=var_x, var_p=var_p)


def default_fit_window(series: FotocSeries) -> tuple[float, float]:
    """Heuristic window for the exponential-growth fit.

    Starts once F has cleared 3x its initial value (transient over) and
    stops where F reaches half its peak on a log scale (before saturation).
    """
    f0 = series.F[0]
    peak = float(np.max(series.F))
    log_hi = np.exp(0.5 * (np.log(f0) + np.log(peak)))
    above = np.nonzero(series.F >= 3.0 * f0)[0]
    upper = np.nonzero(series.F >= log_hi)[0]
    if above.size == 0 or upper.size == 0 or upper[0] <= above[0]:
        raise ValueError("no exponential-growth window found in the series")
    return float(series.times[above[0]]), float(series.times[upper[0]])


def growth_rate(series: FotocSeries, window: tuple[float, float]) -> GrowthFit:
    """Least-squares fit of log F over the window: its slope, r^2 and window."""
    t_lo, t_hi = window
    if t_lo < series.times[0] or t_hi > series.times[-1]:
        raise ValueError("window outside the time span")
    mask = (series.times >= t_lo) & (series.times <= t_hi)
    if np.count_nonzero(mask) < 4:
        raise ValueError("window contains fewer than 4 samples")
    t = series.times[mask]
    y = np.log(series.F[mask])
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - float(np.sum(resid**2) / ss_tot) if ss_tot > 0 else 1.0
    return GrowthFit(rate=float(slope), r2=r2, window=(t_lo, t_hi))
