"""Critical well depth a_c(beta) and critical energy E_c(beta).

At a_c the chemical potential of the ground state meets the top of the
self-consistent barrier, V_eff(0) = V(0) + beta psi(0)^2 = beta psi(0)^2
(V(0) = 0): below it mu lies above the barrier and the state has a single
central peak, above it the barrier rises out of the condensate and the
origin becomes a local minimum between two peaks. The same quantity
beta psi(0)^2 - mu decides whether the WKB barrier exists
(semiclassics.transmission is exactly 1 where it is <= 0). a_c is found by
a Brent-Dekker zero search inside a sign-change bracket on the curvature
psi''(0) = 2 (beta psi(0)^2 - mu) psi(0), which is smooth in a and has the
sign of beta psi(0)^2 - mu (psi(0) > 0, see curvature_at_origin). The two
bracket ends are solved cold, and every trial inside the bracket is
warm-started from the state of the nearest a already solved; E_c is the
per-particle energy of the critical ground state, read off the solve made
at a_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, TrapConfig
from .scf import ScfConfig, StationaryState, solve_state


class NoSignChange(ValueError):
    """The curvature has the same sign at both ends of the bracket."""


@dataclass(frozen=True)
class CriticalResult:
    beta: float
    a_c: float
    E_c: float
    curvature_at_ac: float


@dataclass(frozen=True)
class QuadraticFit:
    c0: float
    c1: float
    c2: float
    residual_rms: float

    def __call__(self, beta):
        return self.c0 + self.c1 * np.asarray(beta) + self.c2 * np.asarray(beta) ** 2


def curvature_at_origin(state: StationaryState) -> float:
    """psi''(0) of a solved state from its equation at x = 0: 2 (beta psi(0)^2 - mu) psi(0).

    V(0) = 0, so the discrete equation there gives psi''(0) = 2 (beta psi(0)^2
    - mu) psi(0) up to twice the residual at x = 0. For a ground state
    psi(0) > 0: the even block's off-diagonals are all negative, so its
    lowest eigenvector has one sign (Perron-Frobenius), which the
    eigensolver makes positive. So psi''(0) has the sign of V_eff(0) - mu =
    beta psi(0)^2 - mu: < 0 at a single central peak, over a submerged
    barrier, and > 0 at a central dip, under a barrier that stands.
    """
    psi0 = state.psi[state.grid.D // 2]
    return 2.0 * (state.trap.beta * psi0**2 - state.mu) * psi0


def _brent_root(f, xa: float, xb: float, fa: float, fb: float, tol: float) -> float:
    """Brent-Dekker zero of f in [xa, xb], where fa = f(xa) and fb = f(xb) differ in sign.

    Inverse quadratic interpolation or secant steps while they shrink the
    bracket fast enough, bisection otherwise (after scipy's brentq.c). Stops
    once the sign-change bracket is narrower than tol or than the floor
    4 eps max(|xa|, |xb|), brentq's least rtol: every step then moves x by two
    ulps or more, so any tol > 0 ends. Returns the bracket end with the
    smaller |f|, a point f was evaluated at.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    xblk, fblk, spre, scur = xa, fa, 0.0, 0.0
    delta = 0.5 * max(tol, 4.0 * np.finfo(float).eps * max(abs(xa), abs(xb)))
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
    grid: Grid,
    bracket: tuple[float, float] = (0.5, 3.0),
    tol: float = 1e-4,
    cfg: ScfConfig | None = None,
) -> CriticalResult:
    """Locate a_c inside a sign-change bracket of the curvature to a final bracket width tol.

    Each a is solved once on grid; every trial inside the bracket is
    warm-started from the state of the nearest a already solved. a_c is the
    final Brent iterate, an a that was solved, so E_c and the curvature are
    read off that solve; a tol below the floor 4 eps max(|a_lo|, |a_hi|) stops
    there. Raises ValueError unless a_lo < a_hi and tol is positive and finite.
    """
    a_lo, a_hi = bracket
    if not a_lo < a_hi:
        raise ValueError("bracket must satisfy a_lo < a_hi")
    if not 0.0 < tol < math.inf:  # also rejects nan
        raise ValueError(f"tol must be positive and finite, got {tol:g}")

    # The bracket ends start cold: they are far apart (one well against two),
    # and a warm start from the other end takes more iterations than none.
    solved = {a: solve_state(grid, TrapConfig(a=a, beta=beta), 0, cfg) for a in (a_lo, a_hi)}

    def curvature(a: float) -> float:
        nearest = solved[min(solved, key=lambda b: abs(b - a))]
        solved[a] = solve_state(grid, TrapConfig(a=a, beta=beta), 0, cfg, nearest.state)
        return curvature_at_origin(solved[a].state)

    c_lo, c_hi = (curvature_at_origin(solved[a].state) for a in (a_lo, a_hi))
    if np.sign(c_lo) == np.sign(c_hi):
        raise NoSignChange(
            f"curvature has the same sign ({np.sign(c_lo):+g}) at both bracket ends"
        )
    a_c = _brent_root(curvature, a_lo, a_hi, c_lo, c_hi, tol)
    return CriticalResult(
        beta=beta, a_c=a_c, E_c=solved[a_c].state.energy,
        curvature_at_ac=curvature_at_origin(solved[a_c].state),
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
