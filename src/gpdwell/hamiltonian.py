"""Finite-difference operator assembly.

The discrete Hamiltonian is a symmetric tridiagonal matrix acting on the
D-1 interior nodes (hard Dirichlet walls at +-L): kinetic 3-point stencil
-(1/2) d^2/dx^2, trap potential on the diagonal, plus beta times the
density |psi|^2 for the self-consistent interaction term.

Wavefunctions cross module boundaries as length-(D+1) arrays with zeros at
alpha = 0, D; operators act on the interior slice.

The trap and the grid are exactly mirror-symmetric, so the operator on
the D-1 interior nodes, built from an even density, splits into two exact
blocks on the half grid: the even vectors (nodes x >= 0, coupling to x = 0
scaled by sqrt(2)) and the odd vectors (nodes x > 0, Dirichlet at x = 0).
assemble_block builds a block at beta = 0 and block_density the diagonal
rho adds to it, from rho folded onto the block's nodes; unfold maps a
block vector back to the full grid, block_vector an even or odd vector
onto its block. This module is the only place that knows the symmetry. The
full-grid operator itself is built only as the test reference (assemble in
tests/oracles.py), against which the blocks are checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, potential


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal operator on the D-1 interior nodes."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        if len(self.offdiag) != len(self.diag) - 1:
            raise ValueError("offdiag must have length size-1")

    @property
    def size(self) -> int:
        return len(self.diag)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product on an interior-node vector."""
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        return out


def assemble_block(grid: Grid, a: float, parity: int) -> TridiagonalOperator:
    """The even (parity 0) or odd (parity 1) block of the beta = 0 operator of the well a.

    With u_m the unit vector at x = m*delta, the block's basis is
    e_m = (u_m + u_-m)/sqrt(2) for m >= 1 plus e_0 = u_0 (even), or
    e_m = (u_m - u_-m)/sqrt(2) for m >= 1 (odd), and the block is the
    compression P^T H P of the full-grid operator H, 1/delta^2 + V on the
    diagonal and -1/(2 delta^2) off it: bitwise, the x >= 0 half of H with
    its first coupling scaled by sqrt(2) (even) or its x > 0 half (odd).
    """
    if not 0 < a < np.inf:  # also rejects nan
        raise ValueError(f"well-depth parameter a must be positive and finite, got {a}")
    size = grid.D // 2 - parity
    inv_d2 = 1.0 / grid.delta**2
    offdiag = np.full(size - 1, -0.5 * inv_d2)
    if parity == 0:
        offdiag[0] *= np.sqrt(2.0)  # e_0 = u_0 meets e_1 = (u_1 + u_-1)/sqrt(2)
    return TridiagonalOperator(diag=inv_d2 + potential(grid.interior[-size:], a), offdiag=offdiag)


def block_density(folded: np.ndarray, parity: int) -> np.ndarray:
    """The diagonal that rho adds to block `parity`, from its folded density. Linear.

    The folded density of rho lives on the block's nodes, x >= 0 (even) or
    x > 0 (odd): rho(0) at x = 0 and rho(x_m) + rho(-x_m) at x_m > 0. So
    delta * sum(folded) over the even block is the integral of rho, a block
    vector w (block_vector) has the folded density w * w exactly, and the
    diagonal is the even part of rho: half the folded density, rho(0) whole.
    """
    density = 0.5 * folded
    if parity == 0:
        density[0] = folded[0]
    return density


def unfold(w: np.ndarray, parity: int) -> np.ndarray:
    """Map a block vector back to the D-1 interior nodes.

    The result is exactly even (parity 0) or odd (parity 1), and its norm
    equals that of w: the block coordinates are w_0 = v(0), w_m = sqrt(2)*v(x_m).
    """
    half = w[1 - parity:] / np.sqrt(2.0)
    if parity == 0:
        return np.concatenate([half[::-1], w[:1], half])
    return np.concatenate([-half[::-1], [0.0], half])


def block_vector(v: np.ndarray, parity: int) -> np.ndarray:
    """Block coordinates of an even (parity 0) or odd (parity 1) vector on the D-1 interior nodes.

    The inverse of unfold: it reads the x >= 0 half, w_0 = v(0) (even block
    only) and w_m = sqrt(2)*v(x_m) for x_m > 0.
    """
    c = len(v) // 2  # interior index of x = 0
    w = np.sqrt(2.0) * v[c + parity:]
    if parity == 0:
        w[0] = v[c]
    return w

