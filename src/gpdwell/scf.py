"""Self-consistent solution of the nonlinear eigenvalue problem.

State n is solved on the half grid of parity sector n % 2 (even for even
n) as a block vector w and its mu; H[w^2] is the sector's bare block
(hamiltonian.assemble_block) plus the diagonal beta * block_density(w * w).
It is mapped back to the full grid once, at the end (hamiltonian.unfold),
so it is exactly even or odd, and its per-particle energy
(observables.energy) is taken from the returned psi: a StationaryState is
complete and frozen when the solver returns it, converged or not.

A solve starts from a known pair: a cold one from eigenpair n // 2 of the
bare block, cached per process and shared read-only (_bare_start), a warm
one from the start state's psi and mu. It takes Newton steps on
F(w, mu) = (H[w^2] w - mu w, (delta w.w - 1) / 2), whose Jacobian is the
tridiagonal A = bare + 3 beta * block_density(w * w) - mu bordered by the
column -w and the row delta w^T (Keller, in Applications of Bifurcation
Theory, Academic Press (1977); Govaerts, Numerical Methods for
Bifurcations of Dynamical Equilibria, SIAM (2000)). A step renormalises w
(without that, (a, beta, n) = (2, 4, 2) ended on a wrong state), tests the
stop below, factors A once (LAPACK gttrf) and solves it for z = A^-1 r, r
the residual, and y = A^-1 w together (gttrs); then dmu = (w.z) / (w.y),
w <- w - z + dmu y and mu <- mu + dmu. critical.find_critical_a takes
the same steps (_newton_point, _jacobian_solve) with the well depth a as
one more unknown.

Newton may land on another eigenpair, so its pair is kept only if two
Sturm counts on H[w^2] certify it (eigensolver.certified). On a miss, a
singular A, a non-finite value or NEWTON_STEPS steps, the solve climbs a
ladder in beta from the bare pair (_ladder): Newton steps at b + h from the
pair certified at b, the step h doubled after each certified rung and
halved after each miss (Chang, Chien & Jeng, J. Comput. Phys. 226, 104
(2007); Allgower & Georg, Introduction to Numerical Continuation Methods,
SIAM (2003)). Every rung is certified alike, and the ladder depends only
on (grid, a, beta, n). ScfResult.iterations counts every Newton point of
both, which share cfg.max_iter; no result depends on what the process
solved before.

A solve stops on the nonlinear residual ||H[psi^2] psi - mu psi|| of the
iterate's pair, once it is at most max(tol * (1 + |mu|), ROUNDOFF_FLOOR *
eps * ||op||_inf), and returns that pair, sign-fixed. The second term is the
float64 floor of that residual: it grows like D^2 (eps * ||op||_inf is
5.6e-12 at D = 1200, 5.4e-11 at D = 4000 and 8.7e-10 at D = 16000), and
below it a solve would stall on roundoff, as a ground state at a = 2 on
D = 16000 did at 2.2e-9 with tol 1e-9. On grids up to D = 4000 the floor
stays below the default tol and does not bind.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .eigensolver import EPS, Eigenpair, certified, fix_sign, lowest_eigenpairs, norm_inf
from .grid import Grid, TrapConfig, make_grid
from .hamiltonian import TridiagonalOperator, assemble_block, block_density, block_vector, unfold
from .observables import energy as _fill_energy  # the name perfbench traces

MAX_DOMAIN_GROWTHS = 3
DOMAIN_GROWTH = 1.5  # factor on L per domain enlargement
# Residual stop floor in units of eps * ||op||_inf. A row of the residual
# sums the three products of op psi, mu psi and a beta term small beside
# them, so rounding alone moves it by up to about 4 eps (|op| |psi|)_i, or
# 4 eps ||op||_inf in norm; the float64 pair, from a backward-stable
# tridiagonal solve, carries a true residual of the same order. Residuals
# stalled at up to 2.5 eps ||op||_inf at D = 16000.
ROUNDOFF_FLOOR = 8.0
# Newton steps before the fallback, and per rung of its ladder. Of 512 states (a 0.25-16,
# beta 0-40, n <= 7; D = 600, 2400) those certified took <= 32; the rest met the stop at a
# wrong state in <= 91.
NEWTON_STEPS = 50
MIN_RUNG = 1e-6  # the fallback's ladder in beta gives up below a step of MIN_RUNG * beta


class ScfError(RuntimeError):
    pass


class MaxIterationsExceeded(ScfError):
    """Iteration budget exhausted; carries the partial result."""

    def __init__(self, result: "ScfResult", tol: float):
        self.result = result
        self.tol = tol
        super().__init__(
            f"SCF did not converge in {result.iterations} iterations "
            f"(residual {result.residual:.3e} > tol {tol:g})"
        )


class DomainTooSmall(ScfError):
    """Converged state still leaks past +-L after repeated enlargements."""


@dataclass(frozen=True)
class ScfConfig:
    tol: float = 1e-9  # on ||H[psi^2] psi - mu psi|| / (1 + |mu|)
    max_iter: int = 500

    def __post_init__(self):
        if not 0 < self.tol < math.inf:  # also rejects nan
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class StationaryState:
    """Solved state n of trap on grid: psi has length D+1 with zeros at the walls.

    mu is its chemical potential and energy its per-particle energy. psi is
    positive where |psi| peaks on x >= 0, so the x > 0 lobe of an odd state
    is positive.
    """

    n: int
    psi: np.ndarray
    mu: float
    energy: float
    trap: TrapConfig
    grid: Grid

    @property
    def parity(self) -> str:
        return ("even", "odd")[self.n % 2]


@dataclass
class ScfResult:
    state: StationaryState
    iterations: int  # Newton points, the fallback ladder's included
    converged: bool = False
    residual: float = math.inf  # ||H[psi^2] psi - mu psi|| of the returned psi and mu
    eigensolves: int = 0  # full eigensolves: always 0 now, kept for the solve record's key


@functools.lru_cache(maxsize=32)
def _bare_start(grid: Grid, a: float, parity: int,
                index: int) -> tuple[TridiagonalOperator, Eigenpair]:
    """The beta = 0 block `parity` of the trap a on grid and its eigenpair `index`, read-only."""
    bare = assemble_block(grid, a, parity)
    pair = lowest_eigenpairs(bare, index + 1, grid)[index]
    bare.diag.flags.writeable = bare.offdiag.flags.writeable = pair.vector.flags.writeable = False
    return bare, pair


def _stop(cfg: ScfConfig, mu: float, op: TridiagonalOperator) -> float:
    """The residual at which a solve stops (see the module docstring)."""
    return max(cfg.tol * (1.0 + abs(mu)), ROUNDOFF_FLOOR * EPS * norm_inf(op))


def _newton_point(grid: Grid, beta: float, bare: TridiagonalOperator, w: np.ndarray, mu: float,
                  parity: int) -> tuple[np.ndarray, np.ndarray, TridiagonalOperator, np.ndarray,
                                        float]:
    """A Newton step's start: (w, rho, op, r, ||r||) for w renormalised, rho its beta term
    beta * block_density(w * w), op = H[w^2] = bare + rho and r = op w - mu w."""
    w = w / math.sqrt(grid.delta * np.dot(w, w))
    rho = beta * block_density(w * w, parity)
    op = replace(bare, diag=bare.diag + rho)
    r = op.apply(w) - mu * w
    return w, rho, op, r, math.sqrt(grid.delta * np.dot(r, r))


def _jacobian_solve(op: TridiagonalOperator, rho: np.ndarray, mu: float,
                    *columns: np.ndarray) -> list[np.ndarray] | None:
    """A^-1 applied to each column, or None where A is singular.

    A, the w-derivative of H[w^2] w - mu w, is H[w^2] plus twice its beta
    term rho, minus mu; it is factored once (LAPACK gttrf) for one gttrs.
    """
    *lu, info = dgttrf(op.offdiag, op.diag + 2.0 * rho - mu, op.offdiag)
    return None if info != 0 else list(dgttrs(*lu, np.column_stack(columns))[0].T)


def _newton(grid: Grid, beta: float, bare: TridiagonalOperator, pair: Eigenpair, index: int,
            parity: int, cfg: ScfConfig) -> tuple[np.ndarray, float, int, bool]:
    """Newton steps from pair: (w, mu, steps, certified) of the last pair tested.

    They end at the stop, a singular A, a non-finite residual or the step limit.
    """
    w, mu = pair.vector, pair.value
    limit = min(NEWTON_STEPS, cfg.max_iter)
    for steps in range(1, limit + 1):
        w, rho, op, r, residual = _newton_point(grid, beta, bare, w, mu, parity)
        if residual <= _stop(cfg, mu, op):
            return w, mu, steps, certified(op, mu, residual, index)
        if steps == limit or not math.isfinite(residual):
            break
        solved = _jacobian_solve(op, rho, mu, r, w)
        if solved is None:
            break
        z, y = solved
        dmu = float(np.dot(w, z) / np.dot(w, y))
        w, mu = w - z + dmu * y, mu + dmu
    return w, mu, steps, False


def _ladder(grid: Grid, trap: TrapConfig, index: int, parity: int, cfg: ScfConfig,
            budget: int) -> tuple[np.ndarray, float, int, bool]:
    """Continuation in beta from the bare pair: (w, mu, steps, converged) of the last pair tried.

    Each rung takes Newton steps at min(b + h, beta) from the pair certified at b; a
    certified pair moves b there and doubles h, a miss halves h. At beta = 0 the bare
    pair is the rung, kept if it meets the stop: its certificate can fail by roundoff.
    """
    beta, (bare, pair) = trap.beta, _bare_start(grid, trap.a, parity, index)
    if beta == 0.0:
        w, _, op, _, residual = _newton_point(grid, 0.0, bare, pair.vector, pair.value, parity)
        return w, pair.value, 1, residual <= _stop(cfg, pair.value, op)
    b, h, steps = 0.0, beta / 2, 0
    while steps < budget and h >= MIN_RUNG * beta:
        rung = min(b + h, beta)
        w, mu, more, found = _newton(grid, rung, bare, pair, index, parity,
                                     replace(cfg, max_iter=budget - steps))
        steps += more
        if not found:
            h /= 2
        elif rung == beta:
            return w, mu, steps, True
        else:
            b, h, pair = rung, 2 * h, Eigenpair(value=mu, vector=w)
    return w, mu, steps, False


def _iterate(grid: Grid, trap: TrapConfig, n: int, cfg: ScfConfig,
             start: StationaryState | None) -> ScfResult:
    index, parity = divmod(n, 2)  # state n is eigenpair n // 2 of sector n % 2
    if start is None:
        bare, pair = _bare_start(grid, trap.a, parity, index)
    else:
        bare = assemble_block(grid, trap.a, parity)
        pair = Eigenpair(value=start.mu, vector=block_vector(start.psi[1:-1], parity))
    w, mu, iterations, converged = _newton(grid, trap.beta, bare, pair, index, parity, cfg)
    if not converged and iterations < cfg.max_iter:
        w, mu, more, converged = _ladder(grid, trap, index, parity, cfg,
                                         cfg.max_iter - iterations)
        iterations += more
    psi = np.pad(unfold(fix_sign(w), parity), 1)  # zeros at the walls
    w = block_vector(psi[1:-1], parity)  # the returned state's own, for its residual
    r = replace(bare, diag=bare.diag + trap.beta * block_density(w * w, parity)).apply(w) - mu * w
    residual = math.sqrt(grid.delta * np.dot(r, r))
    state = StationaryState(n, psi, mu, _fill_energy(grid, psi, trap), trap, grid)
    result = ScfResult(state, iterations, converged, residual)
    if not converged:
        raise MaxIterationsExceeded(result, cfg.tol)
    return result


def solve_state(
    grid: Grid,
    trap: TrapConfig,
    n: int,
    cfg: ScfConfig | None = None,
    start: StationaryState | None = None,
) -> ScfResult:
    """Self-consistently solve for stationary state n on the given grid.

    start, a state solved before (e.g. for a nearby trap), warm-starts the
    solve on a grid equal to start.grid: its psi and mu take the place of
    the bare pair; on any other grid the solve starts cold.

    The hard walls at +-L bias a state through its slope there: for a = 2,
    beta = 0.5 they moved mu by 0.1 to 0.2 times psi'(L)^2 / 2. So while
    (1/2) (psi(x_{D-1}) / delta)^2 > cfg.tol * (1 + |mu|), the solve is
    repeated on a grid with L enlarged by 1.5x, at most three times, keeping
    D fixed; each repeat follows the warm-start rule on its own grid. The
    state is exactly even or odd, so one wall gives the slope at both.
    The test bounds the slope, which does not depend on delta, rather than
    psi at the node next to the wall, which shrinks with delta.
    """
    if n < 0:
        raise ValueError(f"quantum index n must be >= 0, got {n}")
    cfg = cfg or ScfConfig()

    for _ in range(MAX_DOMAIN_GROWTHS + 1):
        warm = start is not None and start.grid == grid
        result = _iterate(grid, trap, n, cfg, start if warm else None)
        state = result.state
        slope = abs(state.psi[1]) / grid.delta  # |psi'| at either wall
        if 0.5 * slope**2 <= cfg.tol * (1.0 + abs(state.mu)):
            return result
        grid = make_grid(DOMAIN_GROWTH * grid.L, grid.D)
    raise DomainTooSmall(
        f"state still leaks past the walls after {MAX_DOMAIN_GROWTHS} enlargements "
        f"(final L={grid.L / DOMAIN_GROWTH:g}, wall slope={slope:.2e})"
    )


def solve_spectrum(
    grid: Grid, trap: TrapConfig, k: int, cfg: ScfConfig | None = None
) -> list[ScfResult]:
    """Independent solve_state runs for n = 0..k-1, all on one grid.

    Each state is self-consistent with its own density; states do not share
    a common density. Per-state convergence failures are returned in place
    (converged False) rather than aborting the remaining states. A state whose
    solve grew the domain leaves the others on smaller grids; those are
    solved again on the widest grid, until every state lives on it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    results = [_solve_or_partial(grid, trap, n, cfg) for n in range(k)]
    while True:
        widest = max((r.state.grid for r in results), key=lambda g: g.L)
        stale = [n for n, r in enumerate(results) if r.state.grid != widest]
        if not stale:
            return results
        for n in stale:
            results[n] = _solve_or_partial(widest, trap, n, cfg)


def _solve_or_partial(grid: Grid, trap: TrapConfig, n: int, cfg: ScfConfig | None) -> ScfResult:
    try:
        return solve_state(grid, trap, n, cfg)
    except MaxIterationsExceeded as exc:
        return exc.result


def domain_growths(requested: Grid, solved_on: Grid) -> int:
    """Number of domain enlargements between the requested grid and a state's grid."""
    return round(math.log(solved_on.L / requested.L) / math.log(DOMAIN_GROWTH))
