"""Spatial discretization, trap potential, rescaling, and quadrature.

Everything downstream works on a uniform grid over [-L, L] with D
subintervals. D is required to be even so that x = 0 is a node: the
critical-parameter criterion evaluates the ground-state curvature
exactly at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid on [-L, L] with nodes x_alpha = delta * (alpha - D/2).

    The nodes are exactly mirror-symmetric (x_{D-alpha} == -x_alpha
    bitwise), x_{D/2} == 0.0, and the endpoints reach -L and L up to
    rounding.
    """

    L: float
    D: int
    delta: float = field(init=False)
    nodes: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 0 < self.L < np.inf:  # also rejects nan
            raise ValueError(f"half-width L must be positive and finite, got {self.L}")
        if self.D % 2 != 0:
            raise ValueError(f"D must be even so that x=0 is a node, got D={self.D}")
        if self.D < 8:
            raise ValueError(f"D must be >= 8, got {self.D}")
        delta = 2.0 * self.L / self.D
        nodes = delta * (np.arange(self.D + 1) - self.D // 2)
        nodes.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "nodes", nodes)

    @property
    def interior(self) -> np.ndarray:
        """Nodes x_1 .. x_{D-1} (Dirichlet walls dropped)."""
        return self.nodes[1:-1]


@dataclass(frozen=True)
class TrapConfig:
    """Quartic double-well trap V(x) = -a x^2 + x^4 plus interaction strength.

    Works in rescaled units: the quartic coefficient is fixed to 1 and
    m = hbar = 1. beta carries the (positive) boson-boson coupling with
    the particle number absorbed.
    """

    a: float
    beta: float = 0.0

    def __post_init__(self):
        if not 0 < self.a < np.inf:  # also rejects nan
            raise ValueError(f"well-depth parameter a must be positive and finite, got {self.a}")
        if not 0 <= self.beta < np.inf:
            raise ValueError(f"interaction strength beta must be finite and >= 0, got {self.beta}")


def make_grid(L: float, D: int) -> Grid:
    """Build a uniform grid on [-L, L] with D subintervals (D even, >= 8)."""
    return Grid(L=float(L), D=int(D))


def potential(x, a: float):
    """Double-well potential -a x^2 + x^4 (quartic coefficient rescaled to 1).

    Exactly even in floating point, for scalars and arrays alike:
    potential(x, a) == potential(-x, a) bitwise. It is built from x*x,
    which is exact under a sign flip; numpy's x**4 is not.
    """
    x = np.asarray(x)
    x2 = x * x
    v = -a * x2 + x2 * x2
    return v if v.ndim else float(v)


def quartic_rescale(a: float, b: float, beta: float, mu: float):
    """Absorb the quartic coefficient b into the other parameters.

    Returns the scaled triple (a/b^{2/3}, beta/b^{1/3}, mu/b^{1/3}) and the
    coordinate scale factor b^{1/6} (scaled x = b^{1/6} * x).
    """
    if b <= 0:
        raise ValueError(f"quartic coefficient b must be positive, got {b}")
    return (a / b ** (2.0 / 3.0), beta / b ** (1.0 / 3.0), mu / b ** (1.0 / 3.0)), b ** (1.0 / 6.0)


def integrate(grid: Grid, samples) -> float:
    """One-sided Riemann quadrature: delta * sum of samples at alpha = 1..D.

    The left endpoint is excluded. For Dirichlet states both endpoints
    vanish, so the asymmetry is immaterial there.
    """
    samples = np.asarray(samples)
    if samples.shape[-1] != grid.D + 1:
        raise ValueError(
            f"expected {grid.D + 1} samples (one per node), got {samples.shape[-1]}"
        )
    return grid.delta * samples[..., 1:].sum(axis=-1)
