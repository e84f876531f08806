"""Self-consistent solution of the nonlinear eigenvalue problem.

Each stationary state n is iterated to self-consistency with its own
density: build the operator from the previous iterate's |psi|^2, take
eigenpair n // 2 of its block in parity sector n % 2 (even for even n),
mix, repeat. Every iterate is therefore exactly even or odd and every
density exactly even. Convergence requires both the eigenvalue and the
state overlap to settle.

For strong coupling in a deep well the pure iteration can enter a
two-cycle, the even density alternating between two profiles; the mixing
knob (eta < 1) damps the update, and the failure is reported with an
oscillation flag either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigensolver import lowest_eigenpairs
from .grid import Grid, TrapConfig, integrate, make_grid
from .hamiltonian import assemble, parity_block, unfold
from .observables import energy as _fill_energy

BOUNDARY_TAIL_MAX = 1e-3
MAX_DOMAIN_GROWTHS = 3
DOMAIN_GROWTH = 1.5  # factor on L per domain enlargement


class ScfError(RuntimeError):
    pass


class MaxIterationsExceeded(ScfError):
    """Iteration budget exhausted; carries the partial result."""

    def __init__(self, result: "ScfResult"):
        self.result = result
        msg = f"SCF did not converge in {result.iterations} iterations"
        if result.oscillation_detected:
            msg += " (two-cycle oscillation detected)"
        super().__init__(msg)


class DomainTooSmall(ScfError):
    """Converged state still leaks past +-L after repeated enlargements."""


@dataclass(frozen=True)
class ScfConfig:
    tol_mu: float = 1e-9
    tol_state: float = 1e-4
    max_iter: int = 500
    mixing: float = 1.0  # eta in (0, 1]; 1.0 is the pure update

    def __post_init__(self):
        if self.tol_mu <= 0 or self.tol_state <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.mixing <= 1:
            raise ValueError(f"mixing must be in (0, 1], got {self.mixing}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class StationaryState:
    """Converged eigenstate: psi has length D+1 with zeros at the walls.

    parity is "even" for even n and "odd" for odd n; the solver sets no
    other value. psi is positive where |psi| peaks on x >= 0, so the x > 0
    lobe of an odd state is positive.
    """

    n: int
    psi: np.ndarray
    mu: float
    parity: str  # "even" | "odd"
    beta: float
    a: float
    grid: Grid
    energy: float | None = None  # filled by observables.energy


@dataclass
class ScfResult:
    state: StationaryState
    iterations: int
    mu_history: list[float] = field(default_factory=list)
    overlap_history: list[float] = field(default_factory=list)
    converged: bool = False
    oscillation_detected: bool = False


def _embed(grid: Grid, interior: np.ndarray) -> np.ndarray:
    psi = np.zeros(grid.D + 1)
    psi[1:-1] = interior
    return psi


def _two_cycle(mu_history: list[float], tol: float) -> bool:
    """Is the tail of the mu history 2-periodic but not 1-periodic?"""
    if len(mu_history) < 6:
        return False
    tail = np.asarray(mu_history[-6:])
    scale = 1.0 + np.max(np.abs(tail))
    return bool(np.max(np.abs(tail[2:] - tail[:-2])) < tol * scale)


def _iterate(
    grid: Grid, trap: TrapConfig, n: int, cfg: ScfConfig, density: np.ndarray | None
) -> ScfResult:
    if density is None:
        # Constant initial iterate, unit-normalized under the grid quadrature.
        psi = _embed(grid, np.ones(grid.D - 1))
        psi /= np.sqrt(integrate(grid, psi**2))
        density = psi[1:-1] ** 2
    else:
        density = density / integrate(grid, _embed(grid, density))
        psi = _embed(grid, np.sqrt(density))

    index, parity = divmod(n, 2)  # state n is eigenpair n // 2 of sector n % 2
    mu_history: list[float] = []
    overlap_history: list[float] = []
    converged = False
    iterations = 0

    for k in range(1, cfg.max_iter + 1):
        iterations = k
        op = parity_block(assemble(grid, trap, density), parity)
        pair = lowest_eigenpairs(op, index + 1, grid)[index]
        psi_new = _embed(grid, unfold(pair.vector, parity))
        mu = pair.value

        overlap = abs(integrate(grid, psi_new * psi))
        overlap_history.append(overlap)
        if mu_history and abs(mu - mu_history[-1]) < cfg.tol_mu and (1.0 - overlap) < cfg.tol_state:
            mu_history.append(mu)
            psi = psi_new
            converged = True
            break
        mu_history.append(mu)

        density = (1.0 - cfg.mixing) * density + cfg.mixing * psi_new[1:-1] ** 2
        density /= integrate(grid, _embed(grid, density))
        psi = psi_new

    state = StationaryState(
        n=n,
        psi=psi,
        mu=mu_history[-1],
        parity=("even", "odd")[parity],
        beta=trap.beta,
        a=trap.a,
        grid=grid,
    )
    result = ScfResult(
        state=state,
        iterations=iterations,
        mu_history=mu_history,
        overlap_history=overlap_history,
        converged=converged,
        oscillation_detected=not converged and _two_cycle(mu_history, 1e-6),
    )
    if not converged:
        raise MaxIterationsExceeded(result)
    return result


def solve_state(
    grid: Grid,
    trap: TrapConfig,
    n: int,
    cfg: ScfConfig | None = None,
    initial_density: np.ndarray | None = None,
) -> ScfResult:
    """Self-consistently solve for stationary state n on the given grid.

    initial_density, if given, is |psi|^2 on the D-1 interior nodes of grid
    and replaces the constant first iterate (a warm start, e.g. from the
    converged state of a nearby trap); it is normalized first, and only its
    even part acts, because the state is solved in its parity sector. If
    the converged state does not vanish at the walls (tail above 1e-3), the
    solve is repeated on a grid with L enlarged by 1.5x, at most three
    times, keeping D fixed; the repeats start cold, because the warm
    density belongs to the old nodes.
    """
    if n < 0:
        raise ValueError(f"quantum index n must be >= 0, got {n}")
    if initial_density is not None:
        initial_density = np.asarray(initial_density, dtype=float)
        if initial_density.shape != (grid.D - 1,):
            raise ValueError(
                f"initial_density must have length D-1={grid.D - 1}, "
                f"got {initial_density.shape}"
            )
        if np.any(initial_density < 0) or not np.any(initial_density > 0):
            raise ValueError("initial_density must be nonnegative and not all zero")
    cfg = cfg or ScfConfig()

    for _ in range(MAX_DOMAIN_GROWTHS + 1):
        result = _iterate(grid, trap, n, cfg, initial_density)
        psi = result.state.psi
        tail = max(abs(psi[1]), abs(psi[-2]))
        if tail <= BOUNDARY_TAIL_MAX:
            _fill_energy(grid, result.state, trap)
            return result
        grid = make_grid(DOMAIN_GROWTH * grid.L, grid.D)
        initial_density = None
    raise DomainTooSmall(
        f"state still leaks past the walls after {MAX_DOMAIN_GROWTHS} enlargements "
        f"(final L={grid.L / DOMAIN_GROWTH:g}, tail={tail:.2e})"
    )


def solve_spectrum(
    grid: Grid, trap: TrapConfig, k: int, cfg: ScfConfig | None = None
) -> list[ScfResult]:
    """Independent solve_state runs for n = 0..k-1, all on one grid.

    Each state is self-consistent with its own density; states do not share
    a common density. Per-state convergence failures are returned in place
    (flags set) rather than aborting the remaining states. A state whose
    solve grew the domain leaves the others on smaller grids; those are
    solved again on the widest grid, until every state lives on it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    results = [_solve_or_partial(grid, trap, n, cfg) for n in range(k)]
    while True:
        widest = max((r.state.grid for r in results), key=lambda g: g.L)
        stale = [n for n, r in enumerate(results) if r.state.grid.L != widest.L]
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
