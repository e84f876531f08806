"""Command-line frontend and deterministic data export.

Subcommands map one-to-one onto the analysis workflows: solve, wigner,
dynamics and classical compute one case; scan-critical, wkb, overlaps and
negativity sweep beta over --betas, all through _sweep. Tables go out as
RFC-4180 CSV with a '#' provenance header (tool version, config echo,
content hash); summaries and fits as JSON. Identical configs produce
byte-identical files: floats are written with 17 significant digits and
no timestamps enter the data.

Exit codes: 0 success; 2 validation error (output paths are checked
before any work), or a sweep whose every point is a NoSignChange (a
bracket with no root at any beta); 3 convergence or eigensolver failure,
or a sweep with no point ok; 4 a sweep with some points failed, which
keep their rows with NaN values and the failure's type name as status.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .critical import NoSignChange, find_critical_a, fit_quadratic
from .dynamics import (
    MIN_SNAPSHOTS,
    coherent_state,
    default_fit_window,
    fotoc,
    growth_rate,
    propagate,
    snapshot_count,
)
from .eigensolver import EigensolverError
from .grid import Grid, TrapConfig, integrate, make_grid
from .observables import overlap_matrix
from .scf import (
    MaxIterationsExceeded,
    ScfConfig,
    ScfError,
    domain_growths,
    solve_spectrum,
    solve_state,
)
from .semiclassics import classical_trajectory, lyapunov_exponent, step_count, transmission
from .wigner import momentum_cells, negativity, wigner_transform

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_PARTIAL = 4


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def parse_range(spec: str) -> list[float]:
    """start:stop:step, endpoints inclusive within half a step; or a single value."""
    parts = [float(p) for p in spec.split(":")]
    if len(parts) not in (1, 3):
        raise ValueError(f"range must be 'start:stop:step', got {spec!r}")
    if not np.isfinite(parts).all():
        raise ValueError(f"range values must be finite, got {spec!r}")
    if len(parts) == 1:
        return parts
    start, stop, step = parts
    if step <= 0:
        raise ValueError(f"range step must be positive, got {step}")
    n = np.floor((stop - start) / step + 0.5) + 1
    if not 1 <= n <= 1e6:  # also rejects a count that overflows to inf
        raise ValueError(f"range {spec!r} is empty or has more than a million points")
    return [start + i * step for i in range(int(n)) if start + i * step <= stop + 0.5 * step]


CSV_CHUNK = 65536  # rows formatted, joined, encoded and hashed at a time


def _column_fields(col):
    """fields(lo, hi): the fields of col[lo:hi], formatted as _fmt formats them.

    A float64 array with repeats formats each distinct bit pattern of the
    whole column once, up front; keying on the bits rather than the value
    keeps -0.0 apart from 0.0. Finding them over the whole column rather
    than per chunk costs less on tables like the Wigner grid, whose chunks
    repeat each other's values. Where more than half of the bit patterns
    are distinct, the strings would be kept for the whole write at little
    saving, so such a column, like any other, is formatted per chunk.
    """
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        if 2 * bits.size <= col.size:
            distinct = np.array([f"{x:.17g}" for x in bits.view(np.float64).tolist()],
                                dtype=object)
            return lambda lo, hi: distinct[inverse[lo:hi]].tolist()
        return lambda lo, hi: [f"{x:.17g}" for x in col[lo:hi].tolist()]
    return lambda lo, hi: [_fmt(v) for v in col[lo:hi]]


def write_csv(path: str, names: list[str], columns: list, config: dict,
              footer: dict | None = None) -> None:
    """CSV with provenance header: version, config echo, sha256 of the data.

    columns holds one sequence per name, all of the same length (a table
    with no rows may pass no columns at all). Floats are written with 17
    significant digits, anything else with str().

    The data are formatted, joined, encoded and hashed CSV_CHUNK rows at a
    time, so the table is held once, as the encoded chunks, rather than as
    field lists, line lists and a joined string besides. The header carries
    the digest and so goes out after the last chunk is hashed; the file is
    written front to back without seeking, so path may be a pipe or
    /dev/stdout.
    """
    rows = len(columns[0]) if columns else 0
    if any(len(col) != rows for col in columns):
        raise ValueError(f"columns differ in length: {[len(col) for col in columns]}")
    fields = [_column_fields(col) for col in columns]
    digest = hashlib.sha256()
    chunks = []

    def add(text: str) -> None:
        chunk = text.encode()
        digest.update(chunk)
        chunks.append(chunk)

    add(",".join(names) + "\n")
    for lo in range(0, rows, CSV_CHUNK):
        hi = min(lo + CSV_CHUNK, rows)
        add("\n".join(map(",".join, zip(*(f(lo, hi) for f in fields)))) + "\n")
    if footer:
        add("".join(f"# {key} = {_fmt(val)}\n" for key, val in footer.items()))
    header = [f"# gpdwell {__version__}"]
    header += [f"# config: {key} = {_fmt(val)}" for key, val in sorted(config.items())]
    header += [f"# sha256: {digest.hexdigest()}"]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        fh.writelines(chunks)


def read_csv(path: str):
    """Reparse an emitted CSV: (meta, columns, rows, footer)."""
    meta, footer, columns, rows = {}, {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# config: "):
                key, _, val = line[len("# config: "):].partition(" = ")
                meta[key] = val
            elif line.startswith("# sha256: "):
                meta["sha256"] = line[len("# sha256: "):]
            elif line.startswith("# gpdwell "):
                meta["version"] = line[len("# gpdwell "):]
            elif line.startswith("# "):
                key, _, val = line[2:].partition(" = ")
                footer[key] = float(val)
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append(tuple(_parse_field(s) for s in line.split(",")))
    return meta, columns, rows, footer


def _parse_field(s: str):
    try:
        return float(s)
    except ValueError:
        return s


def write_json(path: str, record: dict, config: dict) -> None:
    doc = {"tool": f"gpdwell {__version__}", "config": config, **record}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _scf_config(args) -> ScfConfig:
    return ScfConfig(tol=args.scf_tol, max_iter=args.max_iter)


def _check_count(flag: str, value: int, least: int, grid: Grid) -> None:
    """Refuse a value of flag outside [least, least + D - 2] before any solve.

    A grid of D intervals holds D - 1 states: counts 1..D-1, indices 0..D-2.
    """
    most = least + grid.D - 2
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")
    if value > most:
        raise ValueError(f"{flag} must be <= {most} on a grid of D = {grid.D} intervals, "
                         f"got {value}")


def _check_output_paths(args) -> None:
    """Refuse, before any work, an --output or --psi-out that is a directory or lies in none."""
    for flag, path in (("--output", args.output), ("--psi-out", getattr(args, "psi_out", None))):
        if path is not None and os.path.isdir(path):
            raise ValueError(f"{flag} {path!r} is a directory")
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{flag} {path!r} lies in no existing directory")


def _config_echo(args) -> dict:
    skip = {"func", "output", "psi_out"}  # file paths are not physics config
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


# ---------------------------------------------------------------- solve

def cmd_solve(args) -> int:
    grid = make_grid(args.L, args.D)
    _check_count("--states", args.states, 1, grid)
    trap = TrapConfig(a=args.a, beta=args.beta)
    cfg = _scf_config(args)
    results = solve_spectrum(grid, trap, args.states, cfg)
    states = []
    for r in results:
        states.append({
            "n": r.state.n,
            "mu": r.state.mu,
            "energy": r.state.energy,
            "parity": r.state.parity,
            "iterations": r.iterations,
            "converged": r.converged,
            "residual": r.residual,
            "eigensolves": r.eigensolves,
            "L": r.state.grid.L,
            "domain_growths": domain_growths(grid, r.state.grid),
        })
    failed = [s for s in states if not s["converged"]]
    record = {"states": states, "error": None}
    if failed:
        record["error"] = {
            "kind": "MaxIterationsExceeded",
            "failed_states": [s["n"] for s in failed],
            "max_residual": max(s["residual"] for s in failed),
        }
    write_json(args.output, record, _config_echo(args))
    if args.psi_out:
        write_csv(args.psi_out, ["x"] + [f"psi_{r.state.n}" for r in results],
                  [results[0].state.grid.nodes] + [r.state.psi for r in results],
                  _config_echo(args))
    return EXIT_CONVERGENCE if failed else EXIT_OK


# ------------------------------------------------------------- wigner

def _wigner_field(args, beta, P=None):
    result = solve_state(make_grid(args.L, args.D), TrapConfig(a=args.a, beta=beta),
                         args.state, _scf_config(args))
    return wigner_transform(result.state.grid, result.state.psi, P=P)


def cmd_wigner(args) -> int:
    _check_count("--state", args.state, 0, make_grid(args.L, args.D))
    P = momentum_cells(args.D, args.P)  # a bad --P is refused before the solve
    field = _wigner_field(args, args.beta, P)
    columns = [np.repeat(field.x_nodes, field.p_nodes.size),
               np.tile(field.p_nodes, field.x_nodes.size),
               field.values.ravel()]
    write_csv(args.output, ["x", "p", "W"], columns, _config_echo(args),
              footer={"negativity": negativity(field),
                      "phase_space_integral": field.phase_space_integral()})
    return EXIT_OK


# -------------------------------------------------------------- sweeps

def _sweep(args, names, solve_point, keys=((),), footer=None) -> int:
    """Solve every beta of args.betas in order, write one CSV, and return the exit code.

    solve_point(beta) returns the point's rows without their status. A point
    that raises ScfError, NoSignChange or EigensolverError gets one row
    (beta, *key, NaN..., type(exc).__name__) per key in keys instead; any
    other error aborts the sweep. footer(rows) gives the CSV footer. The
    points run in this process, one after another, and share its caches of
    bare (beta = 0) eigenpairs; a point's rows do not depend on the points
    before it, so a long sweep may be split over --betas ranges run apart.
    """
    try:
        betas = parse_range(args.betas)
    except ValueError as exc:
        raise ValueError(f"--betas must be start:stop:step or a single value: {exc}") from None
    if betas[0] < 0:  # the first beta is the least
        raise ValueError(f"--betas must be >= 0, got {args.betas!r}")
    _scf_config(args)  # a bad --scf-tol or --max-iter is refused before any solve
    rows, failed = [], []
    for beta in betas:
        try:
            rows += [row + ("ok",) for row in solve_point(beta)]
        except (ScfError, NoSignChange, EigensolverError) as exc:
            failed.append(type(exc).__name__)
            nans = (np.nan,) * (len(names) - len(keys[0]) - 2)
            rows += [(beta, *key, *nans, failed[-1]) for key in keys]
    write_csv(args.output, names, list(zip(*rows)), _config_echo(args),
              footer=footer(rows) if footer else None)
    if len(failed) < len(betas):
        return EXIT_PARTIAL if failed else EXIT_OK
    return EXIT_VALIDATION if set(failed) == {NoSignChange.__name__} else EXIT_CONVERGENCE


def _critical_fits(rows) -> dict:
    """The footer's quadratic fits of the ok rows; none where they cannot be made."""
    ok = [r for r in rows if r[-1] == "ok"]
    try:
        fit_a = fit_quadratic([(r[0], r[1]) for r in ok])
        fit_e = fit_quadratic([(r[0], r[2]) for r in ok])
    except ValueError:  # fewer than 4 rows, or betas too close for a quadratic
        return {}
    return {"a_c_fit_c0": fit_a.c0, "a_c_fit_c1": fit_a.c1, "a_c_fit_c2": fit_a.c2,
            "E_c_fit_c0": fit_e.c0, "E_c_fit_c1": fit_e.c1, "E_c_fit_c2": fit_e.c2}


def cmd_scan_critical(args) -> int:
    try:
        bracket = tuple(float(b) for b in args.bracket.split(","))
    except ValueError:
        bracket = ()  # not numbers: rejected below with the flag named
    if len(bracket) != 2 or not np.isfinite(bracket).all() or not 0 < bracket[0] < bracket[1]:
        raise ValueError(f"--bracket must be two finite values a_lo,a_hi with 0 < a_lo < a_hi, "
                         f"got {args.bracket!r}")
    if not 0.0 < args.tol < np.inf:  # also rejects nan
        raise ValueError(f"--tol must be positive and finite, got {args.tol:g}")

    def point(beta):
        res = find_critical_a(beta, make_grid(args.L, args.D), bracket, args.tol,
                              _scf_config(args))
        return [(beta, res.a_c, res.E_c, res.curvature_at_ac)]
    return _sweep(args, ["beta", "a_c", "E_c", "curvature", "status"], point,
                  footer=_critical_fits)


def _spectrum(args, beta, k):
    """The k lowest states of the trap at beta, all converged."""
    cfg = _scf_config(args)
    results = solve_spectrum(make_grid(args.L, args.D), TrapConfig(a=args.a, beta=beta), k, cfg)
    for r in results:
        if not r.converged:
            raise MaxIterationsExceeded(r, cfg.tol)
    return [r.state for r in results]


def cmd_wkb(args) -> int:
    def point(beta):
        s0, s1 = _spectrum(args, beta, 2)
        return [(beta, s0.mu, s0.energy, s1.energy, s1.energy - s0.energy, transmission(s0))]
    return _sweep(args, ["beta", "mu_0", "E_0", "E_1", "dE", "T_0", "status"], point)


def cmd_overlaps(args) -> int:
    _check_count("--states", args.states, 1, make_grid(args.L, args.D))

    def point(beta):
        c = overlap_matrix(_spectrum(args, beta, args.states))
        return [(beta, i, j, c[i, j]) for i in range(len(c)) for j in range(len(c))]
    return _sweep(args, ["beta", "i", "j", "C_ij", "status"], point,
                  keys=[(i, j) for i in range(args.states) for j in range(args.states)])


def cmd_negativity(args) -> int:
    _check_count("--state", args.state, 0, make_grid(args.L, args.D))

    def point(beta):
        field = _wigner_field(args, beta)
        return [(beta, negativity(field), field.phase_space_integral())]
    return _sweep(args, ["beta", "negativity", "integral", "status"], point)


# ------------------------------------------------------------ dynamics

def _check_stepping(args) -> None:
    if not args.dt > 0:  # also rejects nan
        raise ValueError(f"--dt must be positive, got {args.dt:g}")
    if args.stride < 1:
        raise ValueError(f"--stride must be >= 1, got {args.stride}")


def cmd_dynamics(args) -> int:
    _check_stepping(args)
    steps = step_count(args.tmax, args.dt)
    count = snapshot_count(steps, args.stride)
    if count < MIN_SNAPSHOTS:
        raise ValueError(f"--stride {args.stride} keeps {count} snapshots of {steps} steps; "
                         f"the FOTOC series needs at least {MIN_SNAPSHOTS}")
    grid = make_grid(args.L, args.D)
    packet = coherent_state(grid, args.x0, args.p0)
    times, snapshots = propagate(grid, args.a, packet, args.dt, steps, snapshot_stride=args.stride)
    series = fotoc(grid, times, snapshots)
    norm_drift = max(abs(integrate(grid, np.abs(psi) ** 2) - 1.0) for psi in snapshots)
    footer = {"norm_drift": norm_drift,
              "lyapunov": lyapunov_exponent(args.a),
              "two_lyapunov": 2.0 * lyapunov_exponent(args.a)}
    try:
        fit = growth_rate(series, default_fit_window(series))
        footer.update({"fit_rate": fit.rate, "fit_r2": fit.r2,
                       "fit_t_lo": fit.window[0], "fit_t_hi": fit.window[1]})
    except ValueError:
        pass  # no growth window in this run; data still goes out
    write_csv(args.output, ["t", "F", "var_x", "var_p"],
              [series.times, series.F, series.var_x, series.var_p],
              _config_echo(args), footer=footer)
    return EXIT_OK


# ----------------------------------------------------------- classical

def cmd_classical(args) -> int:
    _check_stepping(args)
    traj = classical_trajectory(args.a, args.x0, args.p0, args.dt, args.tmax)
    points = traj.points[::args.stride]
    write_csv(args.output, ["t", "x", "p"],
              [traj.times[::args.stride], points[:, 0], points[:, 1]], _config_echo(args),
              footer={"energy": traj.energy,
                      "lyapunov": lyapunov_exponent(args.a)})
    return EXIT_OK


# ------------------------------------------------------------- parser

def _add_grid_args(p, L=6.0, D=4000):
    p.add_argument("--L", type=float, default=L, help="half-width of the box")
    p.add_argument("--D", type=int, default=D, help="number of subintervals (even)")


def _add_scf_args(p):
    p.add_argument("--scf-tol", type=float, default=ScfConfig.tol,
                   help="SCF stop: ||H psi - mu psi|| <= scf_tol * (1 + |mu|), "
                        "or the float64 roundoff floor of that residual on fine grids")
    p.add_argument("--max-iter", type=int, default=ScfConfig.max_iter,
                   help="SCF iteration budget per state")


def _add_sweep(sub, name, func, help, betas="0:0.5:0.1", L=6.0, D=4000):
    p = sub.add_parser(name, help=help)
    p.add_argument("--betas", default=betas, help="start:stop:step or single value")
    _add_grid_args(p, L, D)
    _add_scf_args(p)
    p.add_argument("--output", default=name.replace("-", "_") + ".csv")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpdwell",
        description="Double-well condensate solver: spectra, critical parameters, "
                    "Wigner negativity, WKB transmission, overlaps, dynamics.",
    )
    parser.add_argument("--version", action="version", version=f"gpdwell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="self-consistent stationary states")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--states", type=int, default=1, help="number of states n=0..k-1")
    _add_grid_args(p)
    _add_scf_args(p)
    p.add_argument("--output", default="solve.json")
    p.add_argument("--psi-out", default=None, help="optional CSV of wavefunctions")
    p.set_defaults(func=cmd_solve)

    p = _add_sweep(sub, "scan-critical", cmd_scan_critical,
                   "critical parameter a_c and energy E_c vs beta", betas="0:4:0.5")
    p.add_argument("--bracket", default="0.5,3.0", help="sign-change bracket a_lo,a_hi")
    p.add_argument("--tol", type=float, default=1e-4, help="final bracket width on a")

    p = sub.add_parser("wigner", help="Wigner function and negativity of a state")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--state", type=int, default=0)
    p.add_argument("--P", type=int, default=None)
    _add_grid_args(p, L=12.0, D=1200)
    _add_scf_args(p)
    p.add_argument("--output", default="wigner.csv")
    p.set_defaults(func=cmd_wigner)

    p = _add_sweep(sub, "wkb", cmd_wkb, "transmission and splitting sweep over beta")
    p.add_argument("--a", type=float, required=True)

    p = _add_sweep(sub, "overlaps", cmd_overlaps, "eigenstate overlap matrix sweep over beta")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--states", type=int, default=4)

    p = _add_sweep(sub, "negativity", cmd_negativity,
                   "Wigner negativity of a state, swept over beta", L=12.0, D=1200)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--state", type=int, default=0)

    p = sub.add_parser("dynamics", help="coherent-state evolution and FOTOC growth")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--p0", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--tmax", type=float, default=0.6)
    p.add_argument("--stride", type=int, default=20, help="snapshot stride in steps")
    _add_grid_args(p, L=6.0, D=1200)
    p.add_argument("--output", default="dynamics.csv")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("classical", help="classical trajectory in the double well")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--p0", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--tmax", type=float, default=10.0)
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--output", default="classical.csv")
    p.set_defaults(func=cmd_classical)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_paths(args)
        return args.func(args)
    except (ValueError, OSError, ScfError, EigensolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION if isinstance(exc, (ValueError, OSError)) else EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
