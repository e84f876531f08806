"""Self-consistent solution of the nonlinear eigenvalue problem.

Each stationary state n is iterated to self-consistency with its own
density, on the half grid of parity sector n % 2 (even for even n): build
the sector's block of the operator from the folded input density
(hamiltonian.assemble_block), take its eigenpair n // 2, and mix the
output density with the earlier ones by Anderson (type II) mixing of depth
ANDERSON_DEPTH (Anderson, J. ACM 12, 547 (1965); Walker & Ni, SIAM J.
Numer. Anal. 49, 1715 (2011)). The state is mapped back to the full grid
once, after the loop (hamiltonian.unfold), so it is exactly even or odd,
and its per-particle energy (observables.energy) is taken there from the
refined psi. So a StationaryState is complete and frozen when the solver
returns it, converged or not: it carries its trap, grid, mu and energy,
and its consumers need nothing else.

Only the first iterate is a full eigensolve (eigensolver.lowest_eigenpairs).
Each later one follows the previous pair onto the new operator, which
differs from the old by beta times the change of density, by certified
inverse iteration (eigensolver.follow_eigenpair); a full eigensolve is
made again only when the certificate fails. ScfResult.eigensolves counts
the full eigensolves.

A solve stops on the nonlinear residual ||H[psi^2] psi - mu psi|| of the
unrefined pair, once it is at most max(tol * (1 + |mu|), ROUNDOFF_FLOOR *
eps * ||op||_inf); the pair kept is then refined once in extended
precision. The second term is the float64 floor of that residual: it grows
like D^2 (eps * ||op||_inf is 5.6e-12 at D = 1200, 5.4e-11 at D = 4000 and
8.7e-10 at D = 16000), and below it a solve would stall on roundoff, as a
ground state at a = 2 on D = 16000 did at 2.2e-9 with tol 1e-9. On grids
up to D = 4000 the floor stays below the default tol and does not bind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import EPS, follow_eigenpair, lowest_eigenpairs, norm_inf, refine_eigenpair
from .grid import Grid, TrapConfig, make_grid
from .hamiltonian import assemble_block, fold, unfold
from .observables import energy as _fill_energy  # the name perfbench traces

MAX_DOMAIN_GROWTHS = 3
DOMAIN_GROWTH = 1.5  # factor on L per domain enlargement
ANDERSON_DEPTH = 5  # earlier iterates kept by the mixing
# Residual stop floor in units of eps * ||op||_inf. A row of the residual
# sums the three products of op psi, mu psi and a beta term small beside
# them, so rounding alone moves it by up to about 4 eps (|op| |psi|)_i, or
# 4 eps ||op||_inf in norm; the float64 pair, from a backward-stable
# tridiagonal solve, carries a true residual of the same order. Residuals
# stalled at up to 2.5 eps ||op||_inf at D = 16000.
ROUNDOFF_FLOOR = 8.0


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

    def __reduce__(self):  # rebuilt from its arguments when sent back from a worker
        return type(self), (self.result, self.tol)


class DomainTooSmall(ScfError):
    """Converged state still leaks past +-L after repeated enlargements."""


@dataclass(frozen=True)
class ScfConfig:
    tol: float = 1e-9  # on ||H[psi^2] psi - mu psi|| / (1 + |mu|)
    max_iter: int = 500

    def __post_init__(self):
        if not self.tol > 0:  # also rejects nan
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


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
    iterations: int
    converged: bool = False
    residual: float = math.inf  # ||H[psi^2] psi - mu psi|| of the last unrefined pair
    eigensolves: int = 0  # lowest_eigenpairs calls: the first iterate plus failed certificates


def _anderson(inputs: list[np.ndarray], outputs: list[np.ndarray]) -> np.ndarray:
    """Next input density from the last iterates' inputs x_i and outputs g_i = G(x_i).

    Type II: with f_i = g_i - x_i and the columns of dF, dG the differences of
    consecutive f_i and g_i, x_next = g - dG @ gamma where gamma minimizes
    ||f - dF @ gamma||.
    """
    g = outputs[-1]
    if len(inputs) == 1:
        return g
    f = [gi - xi for xi, gi in zip(inputs, outputs)]
    d_f = np.column_stack([b - a for a, b in zip(f, f[1:])])
    d_g = np.column_stack([b - a for a, b in zip(outputs, outputs[1:])])
    return g - d_g @ np.linalg.lstsq(d_f, f[-1], rcond=None)[0]


def _iterate(
    grid: Grid, trap: TrapConfig, n: int, cfg: ScfConfig, density: np.ndarray | None
) -> ScfResult:
    if density is None:
        density = np.ones(grid.D - 1)
    index, parity = divmod(n, 2)  # state n is eigenpair n // 2 of sector n % 2
    # The loop runs in block coordinates: density is the folded input
    # density, and an iterate w has the folded density w * w.
    density = fold(density / (grid.delta * density.sum()), parity)
    inputs: list[np.ndarray] = []
    outputs: list[np.ndarray] = []
    converged = False
    pair = None
    eigensolves = 0

    for iterations in range(1, cfg.max_iter + 1):
        op = assemble_block(grid, trap, density, parity)
        if pair is not None:
            pair = follow_eigenpair(op, pair, index, grid)
        if pair is None:
            pair = lowest_eigenpairs(op, index + 1, grid)[index]
            eigensolves += 1
        w, mu = pair.vector, pair.value
        rho = w * w
        r = assemble_block(grid, trap, rho, parity).apply(w) - mu * w
        residual = math.sqrt(grid.delta * np.dot(r, r))
        if residual <= max(cfg.tol * (1.0 + abs(mu)), ROUNDOFF_FLOOR * EPS * norm_inf(op)):
            converged = True
            break

        inputs.append(density)
        outputs.append(rho)
        del inputs[:-(ANDERSON_DEPTH + 1)], outputs[:-(ANDERSON_DEPTH + 1)]
        density = np.maximum(_anderson(inputs, outputs), 0.0)
        density /= grid.delta * density.sum()

    pair = refine_eigenpair(op, pair, grid)
    psi = np.pad(unfold(pair.vector, parity), 1)  # zeros at the walls
    result = ScfResult(
        state=StationaryState(n=n, psi=psi, mu=pair.value,
                              energy=_fill_energy(grid, psi, trap), trap=trap, grid=grid),
        iterations=iterations,
        converged=converged,
        residual=residual,
        eigensolves=eigensolves,
    )
    if not converged:
        raise MaxIterationsExceeded(result, cfg.tol)
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
    even part enters the operator's parity block.

    The hard walls at +-L bias a state through its slope there: for a = 2,
    beta = 0.5 they moved mu by 0.1 to 0.2 times psi'(L)^2 / 2. So while
    (1/2) (psi(x_{D-1}) / delta)^2 > cfg.tol * (1 + |mu|) at either wall,
    the solve is repeated on a grid with L enlarged by 1.5x, at most three
    times, keeping D fixed; the repeats start cold, because the warm
    density belongs to the old nodes. The test bounds the slope, which does
    not depend on delta, rather than psi at the node next to the wall,
    which shrinks with delta.
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
        state = result.state
        slope = max(abs(state.psi[1]), abs(state.psi[-2])) / grid.delta  # |psi'| at the walls
        if 0.5 * slope**2 <= cfg.tol * (1.0 + abs(state.mu)):
            return result
        grid = make_grid(DOMAIN_GROWTH * grid.L, grid.D)
        initial_density = None
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
