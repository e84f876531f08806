"""The three workloads: commands generated from a seed, and the gated checks.

An operation is one beta row of a sweep (one beta of an ``overlaps`` sweep,
which writes k*k rows per beta) or one non-sweep command. ``check`` returns
one pass/fail flag per operation. The tolerances are the acceptance
tolerances of the test suite.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from itertools import groupby

from gpdwell.cli import parse_range, read_csv


@dataclass(frozen=True)
class Command:
    name: str  # output file stem, unique within a workload
    argv: tuple[str, ...]  # without --output
    check: Callable[..., list[bool]]  # (columns, rows, footer) -> one flag per operation
    sweep: str | None = None  # the --betas value, for sweeps

    @property
    def operations(self) -> int:
        return len(parse_range(self.sweep)) if self.sweep else 1


def seed_shifts(seed: int) -> tuple[float, float]:
    """(beta offset in [0, 0.1), x0 shift in [-0.05, 0.05]); seed 0 gives (0, 0)."""
    if seed == 0:
        return 0.0, 0.0
    rng = random.Random(seed)
    return 0.1 * rng.random(), 0.05 * (2.0 * rng.random() - 1.0)


def _num(x: float) -> str:
    return f"{x:.12g}"


def _betas(start: float, stop: float, step: float, offset: float) -> str:
    return f"{_num(start + offset)}:{_num(stop + offset)}:{_num(step)}"


def _column(columns, rows, name):
    i = columns.index(name)
    return [row[i] for row in rows]


# ------------------------------------------------------------------ checks

def _check_critical(columns, rows, footer):
    fit_keys = [f"{c}_fit_c{i}" for c in ("a_c", "E_c") for i in range(3)]
    has_fit = all(k in footer for k in fit_keys)
    flags = []
    for beta, a_c, e_c, status in zip(*(_column(columns, rows, c)
                                        for c in ("beta", "a_c", "E_c", "status"))):
        flags.append(
            status == "ok" and has_fit
            and abs(a_c - (1.7616 - 0.1513 * beta + 0.0061 * beta**2)) <= 0.005
            and abs(e_c - (0.2659 * beta - 0.00334 * beta**2)) <= 0.005)
    return flags


def _check_status(columns, rows, footer):
    return [status == "ok" for status in _column(columns, rows, "status")]


def _check_wkb_shallow(columns, rows, footer):
    return [status == "ok" and 0.0 < t0 <= 1.0 and de > 0.0
            for status, t0, de in zip(*(_column(columns, rows, c)
                                        for c in ("status", "T_0", "dE")))]


def _overlap_blocks(columns, rows):
    beta = columns.index("beta")
    return [list(block) for _, block in groupby(rows, key=lambda row: row[beta])]


def _check_overlaps_status(columns, rows, footer):
    status = columns.index("status")
    return [all(row[status] == "ok" for row in block)
            for block in _overlap_blocks(columns, rows)]


def _check_overlaps_shallow(columns, rows, footer):
    i_, j_, c_, s_ = (columns.index(c) for c in ("i", "j", "C_ij", "status"))
    flags = []
    for block in _overlap_blocks(columns, rows):
        ok = len(block) == 16
        for row in block:
            i, j, c = int(row[i_]), int(row[j_]), row[c_]
            ok = ok and row[s_] == "ok"
            if i == j:
                ok = ok and abs(c - 1.0) <= 1e-10
            elif (i + j) % 2:  # opposite parity
                ok = ok and c <= 1e-8
        flags.append(ok)
    return flags


def _check_wigner(columns, rows, footer):
    return [abs(footer.get("negativity", math.nan) - 0.087267) <= 1e-3
            and abs(footer.get("phase_space_integral", math.nan) - 1.0) <= 1e-3]


def _check_dynamics(a):
    lam = math.sqrt(2.0 * a)

    def check(columns, rows, footer):
        rate = footer.get("fit_rate", math.nan)
        return [footer.get("norm_drift", math.inf) <= 1e-6
                and footer.get("fit_r2", -math.inf) >= 0.98
                and 0.75 * lam <= rate <= 2.5 * lam]
    return check


def _check_classical(a, x0, p0):
    e0 = 0.5 * p0**2 - a * x0**2 + x0**4

    def check(columns, rows, footer):
        drift = max(abs(0.5 * p**2 - a * x**2 + x**4 - e0)
                    for x, p in zip(_column(columns, rows, "x"), _column(columns, rows, "p")))
        return [len(rows) > 1 and drift <= 1e-8]
    return check


# --------------------------------------------------------------- workloads

def critical_scan(seed: int) -> list[Command]:
    offset, _ = seed_shifts(seed)
    betas = _betas(0.0, 4.0, 0.5, offset)
    return [Command("critical", ("scan-critical", "--betas", betas, "--L", "6",
                                 "--D", "4000", "--tol", "1e-4"),
                    _check_critical, sweep=betas)]


def spectrum_sweep(seed: int) -> list[Command]:
    # a=12 rows are only gated on status: their dE is a ~1e-10 splitting at
    # roundoff, counted as observables.bad_doublets instead (see README.md).
    offset, _ = seed_shifts(seed)
    betas = _betas(0.0, 1.0, 0.1, offset)
    return [
        Command("wkb_a5", ("wkb", "--a", "5", "--betas", betas), _check_wkb_shallow, betas),
        Command("wkb_a12", ("wkb", "--a", "12", "--betas", betas), _check_status, betas),
        Command("overlaps_a5", ("overlaps", "--a", "5", "--betas", betas, "--states", "4"),
                _check_overlaps_shallow, betas),
        Command("overlaps_a12", ("overlaps", "--a", "12", "--betas", betas, "--states", "4"),
                _check_overlaps_status, betas),
    ]


def phase_space(seed: int) -> list[Command]:
    # wigner and dynamics stay fixed: their checks pin values.
    _, shift = seed_shifts(seed)
    x0 = 1.5 + shift
    return [
        Command("wigner", ("wigner", "--a", "2", "--beta", "0", "--state", "0"), _check_wigner),
        Command("dynamics", ("dynamics", "--a", "10", "--x0", "0", "--p0", "0",
                             "--tmax", "0.6"), _check_dynamics(10.0)),
        Command("classical", ("classical", "--a", "10", "--x0", _num(x0), "--p0", "0",
                              "--tmax", "10"), _check_classical(10.0, float(_num(x0)), 0.0)),
    ]


WORKLOADS = {"critical_scan": critical_scan, "spectrum_sweep": spectrum_sweep,
             "phase_space": phase_space}


def bad_doublets(command: Command, columns, rows) -> int:
    """wkb rows whose doublet splitting dE came out negative."""
    if command.argv[0] != "wkb":
        return 0
    return sum(1 for de in _column(columns, rows, "dE") if de < 0.0)


def check_output(command: Command, code: int, path) -> tuple[list[bool], int]:
    """(per-operation pass/fail flags, bad doublets) of one command's output."""
    failed = [False] * command.operations
    try:
        _, columns, rows, footer = read_csv(path)
    except (OSError, ValueError):
        return failed, 0
    if code != 0 or columns is None:
        return failed, 0
    try:
        flags = command.check(columns, rows, footer)
    except (ValueError, TypeError, IndexError):  # a malformed or missing column
        return failed, 0
    if len(flags) != command.operations:  # rows missing or extra
        return failed, 0
    return [bool(f) for f in flags], bad_doublets(command, columns, rows)
