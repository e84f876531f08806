"""Eigenpairs of symmetric tridiagonal operators.

Thin wrapper around LAPACK's tridiagonal solvers that fixes the
conventions the rest of the package relies on: ascending eigenvalues,
discrete-L2 normalization delta*sum(v^2) = 1, and deterministic sign
(largest magnitude entry positive). Pairs come unrefined; refine_eigenpair
refines one in extended precision, and the SCF refines only the one it
keeps. It knows nothing of parity; the SCF solves each state inside one
parity block (hamiltonian.assemble_block).

There are two ways to a pair. lowest_eigenpairs is the cold path: LAPACK
bisection over the whole spectrum plus inverse iteration. follow_eigenpair
is the warm path for an operator close to one whose pair is known: two
steps of inverse iteration shifted to the old vector's Rayleigh quotient
(Parlett, The Symmetric Eigenvalue Problem, ch. 4). A warm pair is
returned only with a certificate: its residual ball [lambda - h, lambda + h]
holds an eigenvalue, and Sturm counts at its ends show that this is
eigenvalue `index` and the only one there. Without the certificate it
returns None and the caller takes the cold path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs, dstebz

from .grid import Grid
from .hamiltonian import TridiagonalOperator

RESIDUAL_TOL = 1e-10
REFINE_STEPS = 3
EPS = float(np.finfo(float).eps)


class EigensolverError(RuntimeError):
    """Underlying iteration failed or produced an unusable pair."""


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


def _fix_sign(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))  # argmax takes the lowest index on ties
    return -v if v[i] < 0 else v


def _refine(op: TridiagonalOperator, lam: float, v: np.ndarray, delta: float):
    """Rayleigh-quotient refinement with extended-precision residuals.

    At large D the float64 residual of even an exact pair sits near
    eps*||A|| ~ 1e-10, so both the correction residual and the final
    check are evaluated in longdouble; corrections are solved in float64.
    """
    ld = np.longdouble
    op_ld = TridiagonalOperator(op.diag.astype(ld), op.offdiag.astype(ld))

    def resid_norm(lam_, v_):
        r = op_ld.apply(v_.astype(ld)) - ld(lam_) * v_.astype(ld)
        return float(np.sqrt(ld(delta) * np.dot(r, r))), r

    best = (np.inf, lam, v)
    for _ in range(REFINE_STEPS):
        rnorm, r = resid_norm(lam, v)
        if rnorm < best[0]:
            best = (rnorm, lam, v)
        *lu, info = dgttrf(op.offdiag, op.diag - lam, op.offdiag)
        if info != 0:  # op - lam exactly singular
            break
        v = v - dgttrs(*lu, r.astype(float))[0]
        v /= np.sqrt(delta * np.dot(v, v))
        vl = v.astype(ld)
        lam = float(np.dot(vl, op_ld.apply(vl)) / np.dot(vl, vl))
    rnorm, _ = resid_norm(lam, v)
    if rnorm < best[0]:
        best = (rnorm, lam, v)
    return best[1], best[2], best[0]


def refine_eigenpair(op: TridiagonalOperator, pair: Eigenpair, grid: Grid) -> Eigenpair:
    """Refine one pair of op in extended precision, sign-fix it and check its residual.

    Raises EigensolverError if the refined residual exceeds
    max(RESIDUAL_TOL * (1 + |lambda|), eps * ||op||_inf): the refined residual
    sits near 0.15 * eps * ||op||_inf, and ||op||_inf grows like D^2, so at
    D = 16000 (eps * ||op||_inf = 8.7e-10) the fixed tolerance alone would
    reject pairs at their roundoff floor.
    """
    lam, v, resid_norm = _refine(op, pair.value, pair.vector, grid.delta)
    tol = max(RESIDUAL_TOL * (1.0 + abs(lam)), EPS * norm_inf(op))
    if resid_norm > tol:
        raise EigensolverError(f"eigenpair residual {resid_norm:.3e} exceeds tolerance")
    return Eigenpair(value=lam, vector=_fix_sign(v))


def follow_eigenpair(
    op: TridiagonalOperator, previous: Eigenpair, index: int, grid: Grid
) -> Eigenpair | None:
    """Eigenpair `index` of op by inverse iteration from a pair of a nearby operator.

    The shift sigma is the Rayleigh quotient of previous.vector on op;
    op - sigma is factored once (LAPACK gttrf) and two solves (gttrs) follow.
    The result is unrefined, normalized and sign-fixed like the pairs of
    lowest_eigenpairs. It is returned only if certified:
    with h = max(||op v - lambda v||, 1e-12 * (1 + |lambda|)) there is an
    eigenvalue within h of lambda, and the Sturm counts below lambda - h and
    lambda + h must be index and index + 1. Otherwise the result is None.
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
    h = max(float(np.sqrt(delta * np.dot(r, r))), 1e-12 * (1.0 + abs(lam)))
    if count_below(op, lam - h) != index or count_below(op, lam + h) != index + 1:
        return None
    return Eigenpair(value=lam, vector=_fix_sign(v))


def lowest_eigenpairs(op: TridiagonalOperator, k: int, grid: Grid) -> list[Eigenpair]:
    """k lowest eigenpairs, ascending, normalized and sign-fixed.

    The pairs are LAPACK's, unrefined; refine_eigenpair refines one. Their
    residual ||A v - lambda v|| sits at the float64 floor of the eigensolve,
    which grows like D^2 (measured on double-well operators: up to
    1.3e-10 * (1 + |lambda|) at D = 4000 and 6.7e-10 * (1 + |lambda|) at
    D = 8000), and is not checked.
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
        pairs.append(Eigenpair(value=float(vals[j]), vector=_fix_sign(v)))
    return pairs
