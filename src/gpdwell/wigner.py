"""Discretized Wigner transform and nonclassicality volume.

For a real wavefunction the transform reduces to a cosine sum over
grid-commensurate offsets y = m*delta, with psi extended by zero outside
[-L, L]:

    W(x_a, p) = (1/pi) * delta * sum_m psi(x_a - y_m) psi(x_a + y_m) cos(2 p y_m)

On the grid the kernel cos(2 p m delta) has period pi/delta in p, so the
p grid spans exactly one period, p_j = j*pi/(delta*P) for j = -P/2..P/2,
and the m-sum is a length-P real DFT per row. W is exactly even in p,
and exactly even in x for a state of definite parity. The 1/pi prefactor
(hbar = 1) makes the phase-space integral equal 1, so the negativity
volume vanishes exactly for nonnegative W. Phase-space sums follow the
same one-sided Riemann convention as the spatial quadrature (left
endpoint excluded in both x and p); over the one period the p-sum of the
kernel telescopes exactly, so for P >= D/2 the x-marginal, the p-step
times the p-sum of each row, reproduces |psi|^2 up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Grid
from .semiclassics import MAX_STEPS


@dataclass(frozen=True)
class WignerField:
    x_nodes: np.ndarray
    p_nodes: np.ndarray
    values: np.ndarray  # (D+1, P+1)
    cell: float  # delta * delta_p

    def phase_space_integral(self) -> float:
        """One-sided Riemann sum of W over the phase-space cells."""
        return float(self.values[1:, 1:].sum() * self.cell)


def momentum_cells(D: int, P: int | None = None) -> int:
    """The number P of momentum cells on a grid of D subintervals.

    P defaults to the smallest even integer >= D/2, which is D/2 whenever 4
    divides D. Raises ValueError unless P is an even integer >= 2 and the
    largest array wigner_transform builds holds at most MAX_STEPS values:
    the (D+1, P+1) field, or the correlation it folds, D/2 + 1 columns
    padded to a multiple of P (D columns at the default P when 4 divides D).
    """
    if P is None:
        P = 2 * -(-D // 4)
    if P < 2 or P % 2 != 0:
        raise ValueError(f"P must be an even integer >= 2, got {P}")
    values = (D + 1) * max(P + 1, P * -(-(D // 2 + 1) // P))
    if values > MAX_STEPS:
        raise ValueError(f"a Wigner transform of D = {D} and P = {P} holds {values} values, "
                         f"more than {MAX_STEPS}; lower D or P")
    return P


def wigner_transform(grid: Grid, psi, P: int | None = None) -> WignerField:
    """Wigner function of a real normalized state on the (x, p) grid."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (grid.D + 1,):
        raise ValueError(f"psi must have length D+1={grid.D + 1}")
    P = momentum_cells(grid.D, P)
    if not psi.any():
        raise ValueError("psi is identically zero")

    D, M = grid.D, grid.D // 2
    # Correlation c[a, m] = psi(x_a - y_m) psi(x_a + y_m) for m = 0..M, zero
    # where either factor falls outside the grid; c[a, -m] == c[a, m], so the
    # m > 0 columns count twice. Columns fold modulo the DFT length P.
    win = sliding_window_view(np.pad(psi, M), M + 1)
    corr = win[: D + 1, ::-1] * win[M:]
    corr[:, 1:] *= 2.0
    corr = np.pad(corr, ((0, 0), (0, -(M + 1) % P))).reshape(D + 1, -1, P).sum(axis=1)
    half = (grid.delta / np.pi) * np.fft.rfft(corr, axis=1).real  # p >= 0
    delta_p = np.pi / (grid.delta * P)
    return WignerField(
        x_nodes=grid.nodes,
        p_nodes=delta_p * np.arange(-P // 2, P // 2 + 1),
        values=np.concatenate([half[:, :0:-1], half], axis=1),
        cell=grid.delta * delta_p,
    )


def negativity(field: WignerField) -> float:
    """Volume of the negative part: integral of |W| minus the integral of W.

    Subtracting the actual discrete integral (rather than the literal 1)
    decouples negativity from quadrature bias; strictly zero for
    nonnegative W.
    """
    w = field.values[1:, 1:]
    return float((np.abs(w).sum() - w.sum()) * field.cell)
