"""Independent numerical oracles used by the test suite.

These deliberately avoid the library's own solver paths: tridiagonal
eigenvalues come from Sturm-sequence bisection (shooting on the 3-term
recurrence), continuum eigenvalues from Numerov integration, and Wigner
point values from direct quadrature of the transform integral or from
the cosine sum taken row by row with a dense kernel. The bitwise
references keep the plain forms of the fast paths: the CSV payload
written row by row and read back field by field, RK4 on 2-vectors, the
one-solve Crank-Nicolson step with a banded solve per step, the barrier
turning points scanned on both sides of x = 0, and a full-grid density
folded onto a parity block's nodes, from which block_operator composes an
interacting block as the bare block plus beta times its diagonal. The
two-term Crank-Nicolson step, which applies H before its solve, checks the
one-solve form to roundoff. The full-grid operator (assemble,
kinetic_operator) and its dense matrix are the references for the parity
blocks the library builds, and the Wigner x-marginal the reference for its
quadrature.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

from gpdwell.grid import potential
from gpdwell.hamiltonian import TridiagonalOperator, assemble_block, block_density


def kinetic_operator(grid) -> TridiagonalOperator:
    """-(1/2) times the 3-point second-difference operator, m = hbar = 1."""
    n = grid.D - 1
    inv_d2 = 1.0 / grid.delta**2
    return TridiagonalOperator(
        diag=np.full(n, inv_d2),
        offdiag=np.full(n - 1, -0.5 * inv_d2),
    )


def assemble(grid, trap, density: np.ndarray) -> TridiagonalOperator:
    """Kinetic + V(x) + beta*density on the D-1 interior nodes.

    density is |psi|^2 sampled at interior nodes of a unit-normalized state.
    """
    density = np.asarray(density, dtype=float)
    if density.shape != (grid.D - 1,):
        raise ValueError(f"density must have length D-1={grid.D - 1}, got {density.shape}")
    if np.any(density < 0):
        raise ValueError("density entries must be nonnegative")
    kin = kinetic_operator(grid)
    diag = kin.diag + potential(grid.interior, trap.a) + trap.beta * density
    return TridiagonalOperator(diag=diag, offdiag=kin.offdiag)


def dense(op) -> np.ndarray:
    """A tridiagonal operator as a dense array (small sizes)."""
    m = np.diag(op.diag)
    idx = np.arange(op.size - 1)
    m[idx, idx + 1] = op.offdiag
    m[idx + 1, idx] = op.offdiag
    return m


def x_marginal(field) -> np.ndarray:
    """Momentum-integrated Wigner density, one node per x (p-sum without the left end)."""
    delta_p = float(field.p_nodes[1] - field.p_nodes[0])
    return field.values[:, 1:].sum(axis=1) * delta_p


def sturm_count(diag: np.ndarray, off: np.ndarray, lam: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal matrix below lam.

    LDL^T recursion: the count of negative pivots equals the count of
    eigenvalues below the shift.
    """
    count = 0
    q = diag[0] - lam
    if q < 0:
        count += 1
    for r in range(1, len(diag)):
        if q == 0.0:
            q = 1e-300
        q = (diag[r] - lam) - off[r - 1] ** 2 / q
        if q < 0:
            count += 1
    return count


def tridiag_eigenvalue_bisection(
    diag: np.ndarray, off: np.ndarray, n: int, tol: float = 1e-13
) -> float:
    """n-th lowest eigenvalue (0-based) by bisection on the Sturm count."""
    radius = np.max(np.abs(diag)) + 2 * np.max(np.abs(off))
    lo, hi = -radius, radius
    scale = 1.0 + radius
    while hi - lo > tol * scale:
        mid = 0.5 * (lo + hi)
        if sturm_count(diag, off, mid) <= n:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def numerov_even_eigenvalue(
    v_func, e_lo: float, e_hi: float, L: float = 6.0, h: float = 5e-4, tol: float = 1e-10
) -> float:
    """Lowest even-parity eigenvalue of -psi''/2 + V psi = E psi in (e_lo, e_hi).

    Numerov integration from the outer wall inward; the matching condition
    is psi'(0) = 0, estimated with a one-sided 3-point stencil.
    """

    def match(E):
        n = int(round(L / h))
        x = L - h * np.arange(n + 1)  # runs from L down to 0
        f = 2.0 * (v_func(x) - E)  # psi'' = f psi
        psi = np.empty(n + 1)
        psi[0] = 0.0
        psi[1] = 1e-12
        c = h * h / 12.0
        for i in range(1, n):
            psi[i + 1] = (
                2.0 * psi[i] * (1.0 + 5.0 * c * f[i]) - psi[i - 1] * (1.0 - c * f[i - 1])
            ) / (1.0 - c * f[i + 1])
            if abs(psi[i + 1]) > 1e200:
                psi[: i + 2] /= 1e200
        # inward x decreases, so d/dx at 0 uses psi[n], psi[n-1], psi[n-2]
        dpsi0 = -(3.0 * psi[n] - 4.0 * psi[n - 1] + psi[n - 2]) / (2.0 * h)
        return dpsi0 / abs(psi[n])

    f_lo, f_hi = match(e_lo), match(e_hi)
    if np.sign(f_lo) == np.sign(f_hi):
        raise ValueError("eigenvalue bracket does not straddle a sign change")
    while e_hi - e_lo > tol:
        mid = 0.5 * (e_lo + e_hi)
        if np.sign(match(mid)) == np.sign(f_lo):
            e_lo = mid
        else:
            e_hi = mid
    return 0.5 * (e_lo + e_hi)


def wigner_point_quadrature(grid, psi, x: float, p: float) -> float:
    """Direct quadrature of the Wigner integral at a single phase-space point.

    Trapezoid rule over a fine y grid with linear interpolation of psi,
    zero-extended outside [-L, L]; independent of the library's cosine-sum
    evaluation.
    """
    psi_interp = lambda xs: np.interp(xs, grid.nodes, psi, left=0.0, right=0.0)
    y = np.linspace(-grid.L, grid.L, 16 * grid.D + 1)
    integrand = psi_interp(x - y) * psi_interp(x + y) * np.cos(2.0 * p * y)
    return float(np.trapezoid(integrand, y) / np.pi)


def wigner_cosine_sum(grid, psi, P=None) -> np.ndarray:
    """Wigner values on the (D+1, P+1) grid, one row of offsets at a time.

    The cosine sum over m = -D/2..D/2 times a dense kernel, with the p grid
    from linspace over [-pi/(2 delta), pi/(2 delta)]; P defaults to the
    smallest even integer >= D/2.
    """
    D, M = grid.D, grid.D // 2
    P = 2 * -(-D // 4) if P is None else P
    m = np.arange(-M, M + 1)
    corr = np.zeros((D + 1, 2 * M + 1))
    for a in range(D + 1):
        mm = np.arange(-min(a, D - a, M), min(a, D - a, M) + 1)
        corr[a, mm + M] = psi[a - mm] * psi[a + mm]
    p_max = 0.5 * np.pi / grid.delta
    kernel = np.cos(2.0 * np.outer(m * grid.delta, np.linspace(-p_max, p_max, P + 1)))
    return (grid.delta / np.pi) * corr @ kernel


def csv_payload_rowwise(names, rows, footer=None) -> bytes:
    """Data part of a gpdwell CSV built row by row, one field at a time.

    Floats (Python or numpy) are written with 17 significant digits and
    everything else with str(), as the CLI's per-field formatter does.
    """

    def field(v):
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.17g}"
        return str(v)

    lines = [",".join(names)]
    lines += [",".join(field(v) for v in row) for row in rows]
    lines += [f"# {key} = {field(val)}" for key, val in (footer or {}).items()]
    return ("\n".join(lines) + "\n").encode()


def csv_rows_fieldwise(path):
    """Column names and data rows of a gpdwell CSV, parsed one field at a time.

    '#' lines are skipped; a field is float(text) where that parses and
    its text otherwise, so every field gets a value object of its own.
    """
    names, rows = None, []
    with open(path) as fh:
        for line in fh.read().splitlines():
            if not line or line.startswith("#"):
                continue
            texts = line.split(",")
            if names is None:
                names = texts
                continue
            row = []
            for text in texts:
                try:
                    row.append(float(text))
                except ValueError:
                    row.append(text)
            rows.append(tuple(row))
    return names, rows


def rk4_vector(a: float, x0: float, p0: float, dt: float, n_steps: int) -> np.ndarray:
    """Classical RK4 on 2-vectors (x, p): the (n_steps+1, 2) points."""

    def deriv(y):
        x, p = y
        return np.array([p, 2.0 * a * x - 4.0 * x**3])

    y = np.array([x0, p0], dtype=float)
    points = np.empty((n_steps + 1, 2))
    points[0] = y
    for i in range(n_steps):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * dt * k1)
        k3 = deriv(y + 0.5 * dt * k2)
        k4 = deriv(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        points[i + 1] = y
    return points


def crank_nicolson_banded(op, psi: np.ndarray, dt: float, steps: int,
                          one_solve: bool = False) -> list[np.ndarray]:
    """Crank-Nicolson steps with a fresh banded solve of 1 + z H each step, z = i dt/2.

    op is the interior tridiagonal operator (diag, offdiag, apply); psi the
    interior start vector. Each step solves the two-term form
    (1 + zH) psi' = psi - zH psi, or with one_solve takes the equal
    psi' = 2 (1 + zH)^-1 psi - psi. Returns the interior state after every
    step.
    """
    z = 0.5j * dt
    ab = np.zeros((3, op.size), dtype=complex)
    ab[0, 1:] = z * op.offdiag
    ab[1, :] = 1.0 + z * op.diag
    ab[2, :-1] = z * op.offdiag
    out = []
    psi = psi.astype(complex)
    for _ in range(steps):
        if one_solve:
            psi = 2.0 * solve_banded((1, 1), ab, psi) - psi
        else:
            psi = solve_banded((1, 1), ab, psi - z * op.apply(psi))
        out.append(psi)
    return out


def turning_points(grid, veff, mu: float) -> tuple[float, float]:
    """Barrier turning points (x1, x2) nearest x = 0, each side scanned on its own.

    Sign changes of veff - mu are interpolated linearly between bracketing
    nodes. A submerged barrier (veff <= mu at x = 0) gives (0.0, 0.0).
    """
    f = np.asarray(veff, dtype=float) - mu
    if np.min(f) > 0:
        raise ValueError(f"mu={mu:g} lies below the effective potential everywhere")
    mid = grid.D // 2
    if f[mid] <= 0:
        return 0.0, 0.0
    x = grid.nodes

    def cross(alpha_hi: int, alpha_lo: int) -> float:
        f1, f2 = f[alpha_lo], f[alpha_hi]
        return float(x[alpha_lo] + (x[alpha_hi] - x[alpha_lo]) * f1 / (f1 - f2))

    x1 = next(cross(alpha, alpha - 1) for alpha in range(mid, 0, -1)
              if f[alpha - 1] <= 0 < f[alpha])
    x2 = next(cross(alpha, alpha + 1) for alpha in range(mid, grid.D)
              if f[alpha + 1] <= 0 < f[alpha])
    return x1, x2


def fold(density: np.ndarray, parity: int) -> np.ndarray:
    """Sum a density on the D-1 interior nodes over mirror pairs: rho(x_m) + rho(-x_m).

    The result lives on the nodes of block `parity`: x >= 0 for the even
    block, where x = 0 is kept once, and x > 0 for the odd one. So
    delta * sum(fold(rho, 0)) is the integral of rho, only the even part of
    rho enters, and a block vector w has density exactly w * w.
    """
    density = np.asarray(density, dtype=float)
    c = len(density) // 2  # interior index of x = 0
    folded = density[c:] + density[c::-1]
    folded[0] = density[c]
    return folded[parity:]


def block_operator(grid, trap, folded: np.ndarray, parity: int) -> TridiagonalOperator:
    """Block `parity` of H[rho] from rho's folded density: bare block + beta * block_density."""
    bare = assemble_block(grid, trap.a, parity)
    return TridiagonalOperator(diag=bare.diag + trap.beta * block_density(folded, parity),
                               offdiag=bare.offdiag)
