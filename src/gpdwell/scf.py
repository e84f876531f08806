"""Self-consistent solution of the nonlinear eigenvalue problem.

State n is solved on the half grid of parity sector n % 2 (even for even
n) as a block vector w and its mu; H[w^2] is the sector's bare block
(hamiltonian.assemble_block) plus the diagonal beta * block_density(w * w).
It is mapped back to the full grid once, at the end (hamiltonian.unfold),
so it is exactly even or odd, and its per-particle energy
(observables.energy) is taken from the returned psi: a StationaryState is
complete and frozen when the solver returns it, converged or not.

A solve climbs a ladder in beta from a known pair, eigenpair n // 2 of
the bare block, cached per process and shared read-only (_bare_start).
Each rung takes Newton steps at min(b + h, beta) from the pair certified at
b on F(w, mu) = (H[w^2] w - mu w, (delta w.w - 1) / 2), whose Jacobian is
the tridiagonal A = bare + 3 beta * block_density(w * w) - mu bordered by
the column -w and the row delta w^T (Keller, in Applications of
Bifurcation Theory, Academic Press (1977); Govaerts, Numerical Methods for
Bifurcations of Dynamical Equilibria, SIAM (2000)). A step renormalises w
(without that, (a, beta, n) = (2, 4, 2) ended on a wrong state), tests the
stop below, factors A once (LAPACK gttrf) and solves it for z = A^-1 r, r
the residual, and y = A^-1 w together (gttrs); then dmu = (w.z) / (w.y),
w <- w - z + dmu y and mu <- mu + dmu. critical.find_critical_a takes
the same steps (_newton_point, _jacobian_solve) with the well depth a as
one more unknown.

Newton may land on another eigenpair, so a rung's pair is kept only if
two Sturm counts on H[w^2] certify it (eigensolver.certified). The first
rung is beta itself (b = 0, h = beta), Newton from the bare pair. After a
miss, a singular A, a non-finite value or NEWTON_STEPS steps, h is halved;
after each certified rung short of beta, b moves there and h is doubled
(Chang, Chien & Jeng, J. Comput. Phys. 226, 104 (2007); Allgower & Georg,
Introduction to Numerical Continuation Methods, SIAM (2003)). The ladder
depends only on (grid, a, beta, n), and ScfResult.iterations counts the
Newton points of all its rungs, which share cfg.max_iter; no result
depends on what the process solved before.

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

from .eigensolver import (EPS, ROUNDOFF_FLOOR, Eigenpair, certified, fix_sign, lowest_eigenpairs,
                          norm_inf)
from .grid import Grid, TrapConfig, make_grid
from .hamiltonian import TridiagonalOperator, assemble_block, block_density, block_vector, unfold
from .observables import energy as _fill_energy  # the name perfbench traces

MAX_DOMAIN_GROWTHS = 3
DOMAIN_GROWTH = 1.5  # factor on L per domain enlargement
# Newton steps per rung of the ladder. Of 512 states (a 0.25-16, beta 0-40, n <= 7;
# D = 600, 2400) those certified at the first rung took <= 32; the rest met the stop at a
# wrong state in <= 91.
NEWTON_STEPS = 50
MIN_RUNG = 1e-6  # the ladder in beta gives up at a step of MIN_RUNG * beta or below


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
    iterations: int  # Newton points: of every rung of the ladder, or of critical's bordered run
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


def _ladder(grid: Grid, beta: float, bare: TridiagonalOperator, pair: Eigenpair, index: int,
            parity: int, cfg: ScfConfig) -> tuple[np.ndarray, float, int, bool]:
    """Continuation in beta from the bare pair: (w, mu, steps, converged) of the last pair tried.

    Each rung takes Newton steps at min(b + h, beta) from the pair certified at b, from
    b = 0 and h = beta; a certified pair moves b there and doubles h, a miss halves h.
    It gives up once cfg.max_iter steps are spent or h <= MIN_RUNG * beta.
    """
    b, h, steps = 0.0, beta, 0
    while True:
        rung = min(b + h, beta)
        w, mu, more, found = _newton(grid, rung, bare, pair, index, parity,
                                     replace(cfg, max_iter=cfg.max_iter - steps))
        steps += more
        if not found:
            h /= 2
        elif rung == beta:
            return w, mu, steps, True
        else:
            b, h, pair = rung, 2 * h, Eigenpair(value=mu, vector=w)
        if steps == cfg.max_iter or h <= MIN_RUNG * beta:
            return w, mu, steps, False


def _result(grid: Grid, trap: TrapConfig, n: int, bare: TridiagonalOperator, w: np.ndarray,
            mu: float, iterations: int, converged: bool) -> ScfResult:
    """The result for the pair (w, mu) of state n, bare the block of its sector: psi
    sign-fixed and unfolded, with its own residual and energy."""
    parity = n % 2
    psi = np.pad(unfold(fix_sign(w), parity), 1)  # zeros at the walls
    w = block_vector(psi[1:-1], parity)  # the returned state's own, for its residual
    r = replace(bare, diag=bare.diag + trap.beta * block_density(w * w, parity)).apply(w) - mu * w
    residual = math.sqrt(grid.delta * np.dot(r, r))
    state = StationaryState(n, psi, mu, _fill_energy(grid, psi, trap), trap, grid)
    return ScfResult(state, iterations, converged, residual)


def _leaks(state: StationaryState, cfg: ScfConfig) -> bool:
    """Whether the walls bias the state beyond cfg.tol through its slope there (see solve_state)."""
    slope = abs(state.psi[1]) / state.grid.delta  # |psi'| at either wall
    return 0.5 * slope**2 > cfg.tol * (1.0 + abs(state.mu))


def solve_state(grid: Grid, trap: TrapConfig, n: int, cfg: ScfConfig | None = None) -> ScfResult:
    """Self-consistently solve for stationary state n on the given grid.

    The solve climbs the ladder in beta from the bare pair (see the module
    docstring) and raises MaxIterationsExceeded, with the last pair tried,
    where it does not reach beta certified.

    The hard walls at +-L bias a state through its slope there: for a = 2,
    beta = 0.5 they moved mu by 0.1 to 0.2 times psi'(L)^2 / 2. So while
    (1/2) (psi(x_{D-1}) / delta)^2 > cfg.tol * (1 + |mu|), the solve is
    repeated on a grid with L enlarged by 1.5x, at most three times, keeping
    D fixed. The state is exactly even or odd, so one wall gives the slope
    at both. The test bounds the slope, which does not depend on delta,
    rather than psi at the node next to the wall, which shrinks with delta.
    """
    if n < 0:
        raise ValueError(f"quantum index n must be >= 0, got {n}")
    cfg = cfg or ScfConfig()
    index, parity = divmod(n, 2)  # state n is eigenpair n // 2 of sector n % 2
    for _ in range(MAX_DOMAIN_GROWTHS + 1):
        bare, pair = _bare_start(grid, trap.a, parity, index)
        result = _result(grid, trap, n, bare,
                         *_ladder(grid, trap.beta, bare, pair, index, parity, cfg))
        if not result.converged:
            raise MaxIterationsExceeded(result, cfg.tol)
        if not _leaks(result.state, cfg):
            return result
        grid = make_grid(DOMAIN_GROWTH * grid.L, grid.D)
    state = result.state
    raise DomainTooSmall(
        f"state still leaks past the walls after {MAX_DOMAIN_GROWTHS} enlargements "
        f"(final L={state.grid.L:g}, wall slope={abs(state.psi[1]) / state.grid.delta:.2e})"
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
