"""Eigenpairs of symmetric tridiagonal operators.

Thin wrapper around LAPACK's tridiagonal solvers that fixes the
conventions the rest of the package relies on: ascending eigenvalues,
discrete-L2 normalization delta*sum(v^2) = 1, and deterministic sign
(largest magnitude entry positive). It knows nothing of parity; the SCF
hands it one parity block at a time, bare or plus beta * rho (hamiltonian).

lowest_eigenpairs is the full eigensolve: LAPACK bisection over the whole
spectrum plus inverse iteration. certified checks by two Sturm counts
that a pair found otherwise (the SCF's Newton steps) is eigenpair `index`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstebz

from .grid import Grid
from .hamiltonian import TridiagonalOperator

EPS = float(np.finfo(float).eps)
# Roundoff of a tridiagonal operator's residual and Sturm counts in units of eps *
# ||op||_inf. A row of op v - value v sums three products of op v and value v, so
# rounding alone moves it by up to about 4 eps (|op| |v|)_i, or 4 eps ||op||_inf in
# norm; a backward-stable tridiagonal solve or eigensolve leaves an error of the same
# order. Residuals stalled at up to 2.5 eps ||op||_inf at D = 16000.
ROUNDOFF_FLOOR = 8.0


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
    h = max(residual, ROUNDOFF_FLOOR * EPS * ||op||_inf), the second term the
    roundoff of the residual and of the Sturm counts themselves; Sturm counts at
    value -+ h number it.
    """
    h = max(residual, ROUNDOFF_FLOOR * EPS * norm_inf(op))
    return count_below(op, value - h) == index and count_below(op, value + h) == index + 1


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
