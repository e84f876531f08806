"""Eigenpairs of symmetric tridiagonal operators.

Thin wrapper around LAPACK's tridiagonal solvers that fixes the
conventions the rest of the package relies on: ascending eigenvalues,
discrete-L2 normalization delta*sum(v^2) = 1, and deterministic sign
(largest magnitude entry positive). It knows nothing of parity; the SCF
hands it one parity block at a time, bare or plus beta * rho (hamiltonian).

There are two ways to a pair. lowest_eigenpairs is the cold path: LAPACK
bisection over the whole spectrum plus inverse iteration. follow_eigenpair
is the warm path for an operator close to one whose pair is known: two
steps of inverse iteration shifted to the old vector's Rayleigh quotient
(Parlett, The Symmetric Eigenvalue Problem, ch. 4). It returns a pair
only if Sturm counts certify it as eigenvalue `index` (certified), and
None otherwise; the caller then takes the cold path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs, dstebz

from .grid import Grid
from .hamiltonian import TridiagonalOperator

EPS = float(np.finfo(float).eps)


class EigensolverError(RuntimeError):
    """A LAPACK routine failed: the Sturm count (dstebz) or the eigensolve."""


@dataclass(frozen=True)
class Eigenpair:
    value: float
    vector: np.ndarray  # one entry per operator row, delta*sum(v^2) = 1


def norm_inf(op: TridiagonalOperator) -> float:
    """The largest absolute row sum of op: the scale of its float64 roundoff."""
    rows = np.abs(op.diag)
    rows[:-1] += np.abs(op.offdiag)
    rows[1:] += np.abs(op.offdiag)
    return float(rows.max())


def count_below(op: TridiagonalOperator, x: float) -> int:
    """Sturm count: the number of eigenvalues of op at or below x.

    LAPACK's bisection (dstebz) on (-inf, x] with an absolute tolerance so
    loose that it stops after counting.
    """
    m, *_, info = dstebz(op.diag, op.offdiag, 1, -np.inf, x, 0, 0, 1e300, b"B")
    if info != 0:  # pragma: no cover - LAPACK failure path
        raise EigensolverError(f"Sturm count failed (info={info})")
    return int(m)


def fix_sign(v: np.ndarray) -> np.ndarray:
    """v or -v, whichever has its largest-magnitude entry positive."""
    i = int(np.argmax(np.abs(v)))  # argmax takes the lowest index on ties
    return -v if v[i] < 0 else v


def certified(op: TridiagonalOperator, value: float, residual: float, index: int) -> bool:
    """Whether eigenvalue `index` of op, and no other, lies within h of value.

    residual, ||op v - value v|| / ||v|| for some v, puts an eigenvalue within
    h = max(residual, 1e-12 * (1 + |value|)); Sturm counts at value -+ h number it.
    """
    h = max(residual, 1e-12 * (1.0 + abs(value)))
    return count_below(op, value - h) == index and count_below(op, value + h) == index + 1


def follow_eigenpair(
    op: TridiagonalOperator, previous: Eigenpair, index: int, grid: Grid
) -> Eigenpair | None:
    """Eigenpair `index` of op by inverse iteration from a pair of a nearby operator.

    The shift sigma is the Rayleigh quotient of previous.vector on op;
    op - sigma is factored once (LAPACK gttrf) and two solves (gttrs) follow.
    The result is normalized and sign-fixed like the pairs of
    lowest_eigenpairs, and its residual sits at the float64 floor of op
    (measured on the four lowest pairs at a = 5, D = 4000: up to
    6.2e-11 * (1 + |lambda|)). It is returned only if certified; otherwise
    the result is None.
    """
    delta = grid.delta
    v = previous.vector
    sigma = np.dot(v, op.apply(v)) / np.dot(v, v)
    dl, d, du, du2, ipiv, info = dgttrf(op.offdiag, op.diag - sigma, op.offdiag)
    if info != 0:  # op - sigma exactly singular, or LAPACK failed
        return None
    for _ in range(2):
        v = dgttrs(dl, d, du, du2, ipiv, v)[0]
        v = v / np.sqrt(delta * np.dot(v, v))
    av = op.apply(v)
    lam = float(delta * np.dot(v, av))
    if not np.isfinite(lam):
        return None
    r = av - lam * v
    if not certified(op, lam, float(np.sqrt(delta * np.dot(r, r))), index):
        return None
    return Eigenpair(value=lam, vector=fix_sign(v))


def lowest_eigenpairs(op: TridiagonalOperator, k: int, grid: Grid) -> list[Eigenpair]:
    """k lowest eigenpairs, ascending, normalized and sign-fixed.

    The pairs are LAPACK's. Their residual ||A v - lambda v|| sits at the
    float64 floor of the eigensolve, which grows like D^2 (measured on
    double-well operators: up to 1.3e-10 * (1 + |lambda|) at D = 4000 and
    6.7e-10 * (1 + |lambda|) at D = 8000), and is not checked.
    """
    if not 1 <= k <= op.size:
        raise ValueError(f"k must be in [1, {op.size}], got {k}")
    try:
        vals, vecs = eigh_tridiagonal(
            op.diag, op.offdiag, select="i", select_range=(0, k - 1)
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise EigensolverError(f"tridiagonal eigensolver failed: {exc}") from exc
    pairs = []
    for j in range(k):
        v = vecs[:, j] / np.sqrt(grid.delta * np.dot(vecs[:, j], vecs[:, j]))
        pairs.append(Eigenpair(value=float(vals[j]), vector=fix_sign(v)))
    return pairs
