"""Self-consistent solution of the nonlinear eigenvalue problem.

Each stationary state n is iterated to self-consistency with its own
density, on the half grid of parity sector n % 2 (even for even n),
starting from a known eigenpair (see below): take eigenpair n // 2 of the
sector's bare block (hamiltonian.assemble_block, once per solve) plus the
diagonal beta * block_density(density) of the folded input density, and
mix the output density with the earlier ones by Anderson (type II) mixing
of depth ANDERSON_DEPTH (Anderson, J. ACM 12, 547 (1965); Walker & Ni,
SIAM J. Numer. Anal. 49, 1715 (2011)). The state is mapped back to the
full grid once, after the loop (hamiltonian.unfold), so it is exactly even
or odd, and its per-particle energy (observables.energy) is taken there
from the returned psi. So a StationaryState is complete and frozen when
the solver returns it, converged or not: it carries its trap, grid, mu and
energy, and its consumers need nothing else.

No iterate needs a full eigensolve (eigensolver.lowest_eigenpairs) unless
a certificate fails. Every solve starts from a known pair and takes that
pair's own density w * w as its first input density: a cold solve from
the bare pair of the grid, a pure function of (grid, a, parity, index)
kept with its block in a bounded per-process cache and shared read-only
(_bare_start), and a warm solve from the start state's psi and mu. Every
iterate, the first included, follows the last pair onto its operator by
certified inverse iteration (eigensolver.follow_eigenpair); the operators
of consecutive iterates differ by beta times the change of density. A
full eigensolve is made only when the certificate fails.
ScfResult.eigensolves counts those and not the shared bare pairs, so no
result depends on what the process solved before.

A cold solve certifies its pairs by Weyl's inequality (Weyl, Math. Ann.
71, 441 (1912); Parlett, The Symmetric Eigenvalue Problem, ch. 10)
rather than by Sturm counts. Each operator is the bare block plus the
diagonal beta * rho, where 0 <= rho <= max(density) for the folded input
density, so its eigenvalue k lies in [lambda_k(bare), lambda_k(bare) +
beta * max(density)] for every k. The open window (lambda_{index-1}(bare)
+ beta * max(density), lambda_{index+1}(bare)), narrowed at each end by
WEYL_MARGIN * eps * (||op||_inf + beta * max(density)), a bound on the
norms of both blocks, then holds no eigenvalue of the operator but
number index. The two bare neighbours come from the same LAPACK call as
the bare start pair and are cached with it (_bare_start), so a cold start
costs one eigensolve per (grid, a, parity, index). A pair whose residual
ball leaves the window, as at strong coupling, and every pair of a warm
solve, whose trap has no cached bare spectrum, are certified by the Sturm
counts as before. So a pair is kept exactly when the counts alone would
keep it.

A solve stops on the nonlinear residual ||H[psi^2] psi - mu psi|| of the
iterate's pair, once it is at most max(tol * (1 + |mu|), ROUNDOFF_FLOOR *
eps * ||op||_inf), and returns that pair as it is. The second term is the
float64 floor of that residual: it grows like D^2 (eps * ||op||_inf is
5.6e-12 at D = 1200, 5.4e-11 at D = 4000 and 8.7e-10 at D = 16000), and
below it a solve would stall on roundoff, as a ground state at a = 2 on
D = 16000 did at 2.2e-9 with tol 1e-9. On grids up to D = 4000 the floor
stays below the default tol and does not bind.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .eigensolver import (
    EPS,
    Eigenpair,
    follow_eigenpair,
    lowest_eigenpairs,
    norm_inf,
)
from .grid import Grid, TrapConfig, make_grid
from .hamiltonian import TridiagonalOperator, assemble_block, block_density, block_vector, unfold
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
# Margin of the Weyl window's ends in units of eps times a bound on the
# norms of the operator and its bare block. It covers the bisection
# tolerance of the bare values (about eps ||bare||_1), the error of the
# bisection's own Sturm counts (a few eps ||bare||) and the rounding of
# beta * rho into the operator's diagonal (eps |diag|).
WEYL_MARGIN = 8.0


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
    residual: float = math.inf  # ||H[psi^2] psi - mu psi|| of the returned psi and mu
    eigensolves: int = 0  # lowest_eigenpairs calls on the loop's operators: failed certificates


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


@functools.lru_cache(maxsize=32)
def _bare_start(grid: Grid, a: float, parity: int,
                index: int) -> tuple[TridiagonalOperator, Eigenpair, float, float]:
    """The beta = 0 block `parity` of the trap a on grid, its eigenpair `index` and neighbours.

    One LAPACK call gives pairs 0..index + 1 of the block (0..index at its
    top); the record is the block, pair index and eigenvalues index - 1 and
    index + 1 of that same call (-inf and inf past the ends of the block),
    its arrays read-only. A pure function of its arguments, shared by every
    cold solve of the process.
    """
    bare = assemble_block(grid, a, parity)
    # pairs 0..index + 1, or 0..index at the top; past it lowest_eigenpairs refuses
    pairs = lowest_eigenpairs(bare, index + 1 + (index + 1 < bare.size), grid)
    pair = pairs[index]
    bare.diag.flags.writeable = bare.offdiag.flags.writeable = pair.vector.flags.writeable = False
    below = pairs[index - 1].value if index > 0 else -math.inf
    above = pairs[index + 1].value if index + 1 < len(pairs) else math.inf
    return bare, pair, below, above


def _iterate(
    grid: Grid, trap: TrapConfig, n: int, cfg: ScfConfig, start: StationaryState | None
) -> ScfResult:
    index, parity = divmod(n, 2)  # state n is eigenpair n // 2 of sector n % 2
    if start is None:
        bare, pair, below, above = _bare_start(grid, trap.a, parity, index)
    else:
        bare = assemble_block(grid, trap.a, parity)
        pair = Eigenpair(value=start.mu, vector=block_vector(start.psi[1:-1], parity))
    # Block coordinates: density is the folded input density, op is H[density],
    # and an iterate w, the start pair's included, has the folded density w * w.
    density = pair.vector * pair.vector
    inputs: list[np.ndarray] = []
    outputs: list[np.ndarray] = []
    converged = False
    eigensolves = 0

    for iterations in range(1, cfg.max_iter + 1):
        op = replace(bare, diag=bare.diag + trap.beta * block_density(density, parity))
        scale = norm_inf(op)
        window = None
        if start is None:
            shift = trap.beta * density.max()
            margin = WEYL_MARGIN * EPS * (scale + shift)
            window = (below + shift + margin, above - margin)
        pair = follow_eigenpair(op, pair, index, grid, window)
        if pair is None:
            pair = lowest_eigenpairs(op, index + 1, grid)[index]
            eigensolves += 1
        w, mu = pair.vector, pair.value
        rho = w * w
        r = op.apply(w) + trap.beta * block_density(rho - density, parity) * w - mu * w
        residual = math.sqrt(grid.delta * np.dot(r, r))
        if residual <= max(cfg.tol * (1.0 + abs(mu)), ROUNDOFF_FLOOR * EPS * scale):
            converged = True
            break

        inputs.append(density)
        outputs.append(rho)
        del inputs[:-(ANDERSON_DEPTH + 1)], outputs[:-(ANDERSON_DEPTH + 1)]
        density = np.maximum(_anderson(inputs, outputs), 0.0)
        density /= grid.delta * density.sum()

    psi = np.pad(unfold(w, parity), 1)  # zeros at the walls
    result = ScfResult(
        state=StationaryState(n=n, psi=psi, mu=mu,
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
    start: StationaryState | None = None,
) -> ScfResult:
    """Self-consistently solve for stationary state n on the given grid.

    start, a state solved before (e.g. for a nearby trap), warm-starts the
    solve on a grid equal to start.grid: its psi and mu take the place of
    the bare pair, and its density start.psi^2 is the first input density;
    on any other grid the solve starts cold.

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
