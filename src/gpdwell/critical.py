"""Critical well depth a_c(beta) and critical energy E_c(beta).

At a_c the chemical potential of the ground state meets the top of the
self-consistent barrier, V_eff(0) = V(0) + beta psi(0)^2 = beta psi(0)^2
(V(0) = 0): below it mu lies above the barrier and the state has a single
central peak, above it the barrier rises out of the condensate and the
origin becomes a local minimum between two peaks. The same quantity
g = beta psi(0)^2 - mu decides whether the WKB barrier exists
(semiclassics.transmission is exactly 1 where it is <= 0), and the
curvature psi''(0) = 2 g psi(0) has its sign (psi(0) > 0, see
curvature_at_origin).

a_c is solved for together with its state: one Newton run per beta on the
even block (scf's coordinates, in which psi(0) = w_0) for the unknowns
(w, mu, a) of F = H_a[w^2] w - mu w = 0, (delta w.w - 1) / 2 = 0 and
g = beta w_0^2 - mu = 0. Its Jacobian is scf's tridiagonal A bordered
twice: by the columns -w (the mu derivative) and -x^2 w (the a
derivative, as dV/da = -x^2) and by the rows of the two conditions
(Keller, in Applications of Bifurcation Theory, Academic Press (1977);
Govaerts, Numerical Methods for Bifurcations of Dynamical Equilibria,
SIAM (2000)). A step renormalises w as scf's Newton does, factors A once
and solves it for r, w and x^2 w together, then solves a 2x2 Schur system
for (dmu, da). A step that would take a out of the bracket moves a half
the way to that end instead, and (w, mu) by the Schur system's first row
alone, da = 0: scf's step at fixed a. Where the state at a already meets
scf's residual stop, the root lies past that end and the run fails. The
run starts from the shared bare ground pair at the bracket's midpoint and
stops once both ||F|| and |g| are within scf's residual stop, at a_c. Its
last pair is accepted only if two Sturm counts on the operator of that
point certify it as the ground pair (eigensolver.certified) and the walls
do not bias it (scf's wall-slope test); it is then returned as scf returns
a state, sign-fixed and with its own residual and energy, and its
iterations are the run's Newton points.

Otherwise (the step budget min(NEWTON_STEPS, max_iter) spent, a singular
A, 2x2 system or fixed-a step, a non-finite value, or a last pair that
misses its certificate or leaks past the walls) a bisection takes over:
it solves both bracket ends, raises NoSignChange if their curvatures have
the same sign, and halves the bracket by solve_state at its midpoints
until it is narrower than tol. a_c lies within tol of the root: the
bisection's by the width of its last bracket, the Newton run's to the
precision of its stop on |g| (about 1e-9 in a at the default SCF
tolerance), which does not depend on tol.

Either way the critical point is the ScfResult that certified it: a_c is
its state.trap.a, E_c its state.energy and the curvature
curvature_at_origin(state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import certified
from .grid import Grid, TrapConfig
from .hamiltonian import assemble_block
from .scf import (NEWTON_STEPS, ScfConfig, ScfResult, StationaryState, _bare_start,
                  _jacobian_solve, _leaks, _newton_point, _result, _stop, solve_state)


class NoSignChange(ValueError):
    """The curvature has the same sign at both ends of the bracket."""


@dataclass(frozen=True)
class QuadraticFit:
    c0: float
    c1: float
    c2: float


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


def _bordered_newton(beta: float, grid: Grid, bracket: tuple[float, float],
                     cfg: ScfConfig) -> ScfResult | None:
    """The critical ground state by Newton on (w, mu, a), or None where the run fails.

    The result holds the run's last pair, certified on its own operator, and
    counts the run's Newton points as its iterations.
    """
    a_lo, a_hi = bracket
    a = 0.5 * (a_lo + a_hi)
    bare, pair = _bare_start(grid, a, 0, 0)
    w, mu = pair.vector, pair.value
    x = grid.interior[-len(w):]  # the even block's nodes, x >= 0
    x2 = x * x
    limit = min(NEWTON_STEPS, cfg.max_iter)
    for steps in range(1, limit + 1):
        w, rho, op, r, residual = _newton_point(grid, beta, bare, w, mu, 0)
        g = float(rho[0] - mu)  # beta psi(0)^2 - mu
        stop = _stop(cfg, mu, op)
        if residual <= stop and abs(g) <= stop:
            break
        if steps == limit or not math.isfinite(residual + g):
            return None
        solved = _jacobian_solve(op, rho, mu, r, w, x2 * w)
        if solved is None:
            return None
        z, y, q = solved
        # dw = -z + dmu y + da q solves the first block row; the 2x2 system
        # keeps delta w.dw = 0 and sets the linearised g, g + dg dw_0 - dmu, to 0
        dg = float(2.0 * beta * w[0])
        m11, m12, b1 = float(np.dot(w, y)), float(np.dot(w, q)), float(np.dot(w, z))
        m21, m22, b2 = dg * float(y[0]) - 1.0, dg * float(q[0]), dg * float(z[0]) - g
        det = m11 * m22 - m12 * m21
        if det == 0.0:
            return None
        dmu, da = (b1 * m22 - m12 * b2) / det, (m11 * b2 - m21 * b1) / det
        if not math.isfinite(dmu + da):
            return None
        if not a_lo < a + da < a_hi:
            # solved at a with g != 0, so the root lies past the end; or no fixed-a step
            if residual <= stop or m11 == 0.0:
                return None
            # scf's step at fixed a, the first row alone, then a half way to the end
            dmu, da, a = b1 / m11, 0.0, 0.5 * (a + (a_hi if da > 0 else a_lo))
        w, mu, a = w + (dmu * y + da * q - z), mu + dmu, a + da
        bare = assemble_block(grid, a, 0)
    if not certified(op, mu, residual, 0):  # Newton may have met g = 0 on another state
        return None
    result = _result(grid, TrapConfig(a=a, beta=beta), 0, bare, w, mu, steps, True)
    return None if _leaks(result.state, cfg) else result


def _bisection(beta: float, grid: Grid, bracket: tuple[float, float], tol: float,
               cfg: ScfConfig) -> ScfResult:
    """The solve of the bracket end with the smaller |curvature| once the bracket is below tol.

    Every end and midpoint is a solve_state of its own. Halving stops also where
    no float lies strictly between the ends.
    """
    ends = [solve_state(grid, TrapConfig(a=a, beta=beta), 0, cfg) for a in bracket]
    signs = [np.sign(curvature_at_origin(end.state)) for end in ends]
    if signs[0] == signs[1]:
        raise NoSignChange(f"curvature has the same sign ({signs[0]:+g}) at both bracket ends")
    while True:
        nearest = min(ends, key=lambda end: abs(curvature_at_origin(end.state)))
        a_lo, a_hi = (end.state.trap.a for end in ends)
        a_mid = 0.5 * (a_lo + a_hi)
        if a_hi - a_lo < tol or not a_lo < a_mid < a_hi:
            return nearest
        mid = solve_state(grid, TrapConfig(a=a_mid, beta=beta), 0, cfg)
        ends[int(np.sign(curvature_at_origin(mid.state)) == signs[1])] = mid


def find_critical_a(
    beta: float,
    grid: Grid,
    bracket: tuple[float, float] = (0.5, 3.0),
    tol: float = 1e-4,
    cfg: ScfConfig | None = None,
) -> ScfResult:
    """Locate a_c inside the search interval bracket, to within tol of the root.

    Newton on (w, mu, a) first, bisection where it fails (see the module
    docstring). Returns the result that certified a_c: the Newton run's
    certified last point, or the bisection's solve of its nearest end; a_c is
    result.state.trap.a and E_c result.state.energy. Raises ValueError,
    before any solve, unless 0 < a_lo < a_hi < inf and tol is positive and
    finite, and NoSignChange where the bisection finds the curvature of the
    same sign at both bracket ends.
    """
    a_lo, a_hi = bracket
    if not 0.0 < a_lo < a_hi < math.inf:  # also rejects nan
        raise ValueError(f"bracket must satisfy 0 < a_lo < a_hi < inf, got ({a_lo:g}, {a_hi:g})")
    if not 0.0 < tol < math.inf:  # also rejects nan
        raise ValueError(f"tol must be positive and finite, got {tol:g}")
    cfg = cfg or ScfConfig()
    return _bordered_newton(beta, grid, bracket, cfg) or _bisection(beta, grid, bracket, tol, cfg)


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
    return QuadraticFit(c0=float(coeffs[0]), c1=float(coeffs[1]), c2=float(coeffs[2]))
