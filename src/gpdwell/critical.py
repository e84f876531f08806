"""Critical well depth a_c(beta) and critical energy E_c(beta).

At a_c the ground-state curvature at the origin changes sign: below it
the state has a single central peak, above it the origin becomes a local
minimum between two peaks. The curvature is smooth in a, so a_c is found
by a Brent-Dekker zero search on it inside a sign-change bracket, each
SCF solve warm-started from the nearest a already solved; E_c is the
per-particle energy of the critical ground state, read off the solve
made at a_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, TrapConfig, make_grid
from .hamiltonian import second_derivative_at
from .scf import ScfConfig, ScfResult, solve_state


class NoSignChange(ValueError):
    """The curvature has the same sign at both ends of the bracket."""


@dataclass(frozen=True)
class CriticalResult:
    beta: float
    a_c: float
    E_c: float
    curvature_at_ac: float
    bracket: tuple[float, float]
    tolerance: float


@dataclass(frozen=True)
class QuadraticFit:
    c0: float
    c1: float
    c2: float
    residual_rms: float

    def __call__(self, beta):
        return self.c0 + self.c1 * np.asarray(beta) + self.c2 * np.asarray(beta) ** 2


def _curvature(result: ScfResult) -> float:
    """Curvature of a solved ground state at the origin, where psi > 0.

    The even block's off-diagonals are all negative, so its lowest
    eigenvector has one sign (Perron-Frobenius), which the eigensolver
    makes positive.
    """
    grid = result.state.grid
    return second_derivative_at(grid, result.state.psi, grid.D // 2)


def curvature_sign(trap: TrapConfig, grid: Grid, cfg: ScfConfig | None = None) -> float:
    """Ground-state curvature at the origin, where psi(0) > 0."""
    return _curvature(solve_state(grid, trap, 0, cfg))


def _brent_root(f, xa: float, xb: float, fa: float, fb: float, tol: float) -> float:
    """Brent-Dekker zero of f in [xa, xb], where fa = f(xa) and fb = f(xb) differ in sign.

    Inverse quadratic interpolation or secant steps while they shrink the
    bracket fast enough, bisection otherwise (after scipy's brentq.c, with
    rtol = 0). Stops once the sign-change bracket is narrower than tol and
    returns its end with the smaller |f|, a point f was evaluated at.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    xblk, fblk, spre, scur = xa, fa, 0.0, 0.0
    delta = 0.5 * tol
    while True:
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        interpolate = abs(spre) > delta and abs(fcur) < abs(fpre)
        if interpolate:
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            interpolate = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        if interpolate:
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)


def find_critical_a(
    beta: float,
    bracket: tuple[float, float] = (0.5, 3.0),
    tol: float = 1e-4,
    grid: Grid | None = None,
    cfg: ScfConfig | None = None,
) -> CriticalResult:
    """Locate a_c inside a sign-change bracket of the curvature to a final bracket width tol.

    Each a is solved once; every trial inside the bracket is warm-started
    from the converged density of the nearest a already solved. a_c is the
    final Brent iterate, an a that was solved, so E_c and the curvature are
    read off that solve.
    """
    grid = grid or make_grid(6.0, 4000)
    a_lo, a_hi = bracket
    if not a_lo < a_hi:
        raise ValueError("bracket must satisfy a_lo < a_hi")

    # The bracket ends start cold: they are far apart (one well against two),
    # and a warm start from the other end takes more iterations than none.
    solved = {a: solve_state(grid, TrapConfig(a=a, beta=beta), 0, cfg) for a in (a_lo, a_hi)}

    def curvature(a: float) -> float:
        nearest = solved[min(solved, key=lambda b: abs(b - a))]
        warm = nearest.state.psi[1:-1] ** 2
        solved[a] = solve_state(grid, TrapConfig(a=a, beta=beta), 0, cfg, warm)
        return _curvature(solved[a])

    c_lo, c_hi = _curvature(solved[a_lo]), _curvature(solved[a_hi])
    if np.sign(c_lo) == np.sign(c_hi):
        raise NoSignChange(
            f"curvature has the same sign ({np.sign(c_lo):+g}) at both bracket ends"
        )
    a_c = _brent_root(curvature, a_lo, a_hi, c_lo, c_hi, tol)
    return CriticalResult(
        beta=beta, a_c=a_c, E_c=solved[a_c].state.energy,
        curvature_at_ac=_curvature(solved[a_c]),
        bracket=(a_lo, a_hi), tolerance=tol,
    )


def fit_quadratic(points: list[tuple[float, float]]) -> QuadraticFit:
    """Ordinary least squares for value = c0 + c1*beta + c2*beta^2."""
    if len(points) < 4:
        raise ValueError(f"need at least 4 points, got {len(points)}")
    beta = np.array([p[0] for p in points])
    value = np.array([p[1] for p in points])
    if len(np.unique(beta)) < 3:
        raise ValueError("beta values are too degenerate for a quadratic fit")
    design = np.column_stack([np.ones_like(beta), beta, beta**2])
    coeffs, _, rank, _ = np.linalg.lstsq(design, value, rcond=None)
    if rank < 3:
        raise ValueError("rank-deficient design matrix (collinear beta samples)")
    resid = value - design @ coeffs
    return QuadraticFit(
        c0=float(coeffs[0]), c1=float(coeffs[1]), c2=float(coeffs[2]),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )
