"""Command-line frontend and deterministic data export.

Subcommands map one-to-one onto the analysis workflows: solve,
scan-critical, wigner, wkb, overlaps, dynamics, classical. Tables go out
as RFC-4180 CSV with a '#' provenance header (tool version, config echo,
content hash); summaries and fits as JSON. Identical configs produce
byte-identical files: floats are written with 17 significant digits and
no timestamps enter the data.

Exit codes: 0 success, 2 validation error (or a scan-critical bracket
with no sign change at any beta), 3 convergence failure (or a sweep where
every point failed), 4 partial sweep failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .critical import NoSignChange, find_critical_a, fit_quadratic
from .dynamics import coherent_state, default_fit_window, fotoc, growth_rate, propagate
from .grid import TrapConfig, integrate, make_grid
from .observables import overlap_matrix
from .scf import (
    MaxIterationsExceeded,
    ScfConfig,
    ScfError,
    domain_growths,
    solve_spectrum,
    solve_state,
)
from .semiclassics import classical_trajectory, lyapunov_exponent, transmission
from .wigner import negativity, wigner_transform

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
    parts = spec.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"range must be 'start:stop:step', got {spec!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise ValueError(f"range step must be positive, got {step}")
    n = int(np.floor((stop - start) / step + 0.5)) + 1
    return [start + i * step for i in range(n) if start + i * step <= stop + 0.5 * step]


def _fmt_column(col) -> list[str]:
    """Every field of one column, formatted as _fmt formats it.

    A float64 array formats each distinct bit pattern once; keying on the
    bits rather than the value keeps -0.0 apart from 0.0.
    """
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        distinct = np.array([f"{x:.17g}" for x in bits.view(np.float64).tolist()],
                            dtype=object)
        return distinct[inverse].tolist()
    return [_fmt(v) for v in col]


def write_csv(path: str, names: list[str], columns: list, config: dict,
              footer: dict | None = None) -> None:
    """CSV with provenance header: version, config echo, sha256 of the data.

    columns holds one sequence per name, all of the same length (a table
    with no rows may pass no columns at all). Floats are written with 17
    significant digits, anything else with str().
    """
    lines = [",".join(names)]
    lines += map(",".join, zip(*map(_fmt_column, columns), strict=True))
    if footer:
        lines += [f"# {key} = {_fmt(val)}" for key, val in footer.items()]
    payload = ("\n".join(lines) + "\n").encode()
    header = [f"# gpdwell {__version__}"]
    header += [f"# config: {key} = {_fmt(val)}" for key, val in sorted(config.items())]
    header += [f"# sha256: {hashlib.sha256(payload).hexdigest()}"]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        fh.write(payload)


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


def n_workers() -> int:
    env = os.environ.get("GPDWELL_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _scf_config(args) -> ScfConfig:
    return ScfConfig(tol=args.scf_tol, max_iter=args.max_iter)


def _config_echo(args) -> dict:
    skip = {"func", "output", "psi_out"}  # file paths are not physics config
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


# ---------------------------------------------------------------- solve

def cmd_solve(args) -> int:
    grid = make_grid(args.L, args.D)
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


# ------------------------------------------------------- scan-critical

def _critical_point(job):
    beta, bracket, tol, L, D, cfg = job
    try:
        res = find_critical_a(beta, bracket=bracket, tol=tol,
                              grid=make_grid(L, D), cfg=cfg)
        return (beta, res.a_c, res.E_c, res.curvature_at_ac, "ok")
    except (ScfError, NoSignChange) as exc:
        return (beta, float("nan"), float("nan"), float("nan"), type(exc).__name__)


def cmd_scan_critical(args) -> int:
    betas = parse_range(args.betas)
    cfg = _scf_config(args)
    bracket = tuple(float(b) for b in args.bracket.split(","))
    jobs = [(b, bracket, args.tol, args.L, args.D, cfg) for b in betas]
    workers = min(n_workers(), len(jobs))
    if workers > 1:
        # A point's cost grows steeply with beta: hand out the heaviest first
        # so that no long job starts last, then put the rows back in order.
        order = sorted(range(len(jobs)), key=lambda i: -betas[i])
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = pool.map(_critical_point, [jobs[i] for i in order])
            rows = [row for _, row in sorted(zip(order, done))]
    else:
        rows = [_critical_point(j) for j in jobs]

    ok = [r for r in rows if r[4] == "ok"]
    footer = {}
    if len(ok) >= 4:
        fit_a = fit_quadratic([(r[0], r[1]) for r in ok])
        fit_e = fit_quadratic([(r[0], r[2]) for r in ok])
        footer = {
            "a_c_fit_c0": fit_a.c0, "a_c_fit_c1": fit_a.c1, "a_c_fit_c2": fit_a.c2,
            "E_c_fit_c0": fit_e.c0, "E_c_fit_c1": fit_e.c1, "E_c_fit_c2": fit_e.c2,
        }
    write_csv(args.output, ["beta", "a_c", "E_c", "curvature", "status"],
              list(zip(*rows)), _config_echo(args), footer=footer)
    if not ok:
        # A bracket that straddles no root at any beta is bad input.
        no_root = all(r[4] == NoSignChange.__name__ for r in rows)
        return EXIT_VALIDATION if no_root else EXIT_CONVERGENCE
    return EXIT_PARTIAL if len(ok) < len(rows) else EXIT_OK


# ------------------------------------------------------------- wigner

def cmd_wigner(args) -> int:
    grid = make_grid(args.L, args.D)
    trap = TrapConfig(a=args.a, beta=args.beta)
    try:
        result = solve_state(grid, trap, args.state, _scf_config(args))
    except ScfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    grid = result.state.grid
    field = wigner_transform(grid, result.state.psi, p_max=args.pmax, P=args.P)
    columns = [np.repeat(field.x_nodes, field.p_nodes.size),
               np.tile(field.p_nodes, field.x_nodes.size),
               field.values.ravel()]
    write_csv(args.output, ["x", "p", "W"], columns, _config_echo(args),
              footer={"negativity": negativity(field),
                      "phase_space_integral": field.phase_space_integral()})
    return EXIT_OK


# ---------------------------------------------------------------- wkb

def cmd_wkb(args) -> int:
    grid = make_grid(args.L, args.D)
    betas = parse_range(args.betas)
    cfg = _scf_config(args)
    rows, n_ok = [], 0
    for beta in betas:
        trap = TrapConfig(a=args.a, beta=beta)
        try:
            results = solve_spectrum(grid, trap, 2, cfg)
            if not all(r.converged for r in results):
                raise MaxIterationsExceeded(next(r for r in results if not r.converged), cfg.tol)
            s0, s1 = results[0].state, results[1].state
            t0 = transmission(s0.grid, s0, trap)
            rows.append((beta, s0.mu, s0.energy, s1.energy,
                         s1.energy - s0.energy, t0, "ok"))
            n_ok += 1
        except ScfError as exc:
            rows.append((beta, float("nan"), float("nan"), float("nan"),
                         float("nan"), float("nan"), type(exc).__name__))
    write_csv(args.output, ["beta", "mu_0", "E_0", "E_1", "dE", "T_0", "status"],
              list(zip(*rows)), _config_echo(args))
    if n_ok == 0:
        return EXIT_CONVERGENCE
    return EXIT_PARTIAL if n_ok < len(rows) else EXIT_OK


# ------------------------------------------------------------ overlaps

def cmd_overlaps(args) -> int:
    grid = make_grid(args.L, args.D)
    betas = parse_range(args.betas)
    cfg = _scf_config(args)
    rows, n_ok = [], 0
    for beta in betas:
        trap = TrapConfig(a=args.a, beta=beta)
        results = solve_spectrum(grid, trap, args.states, cfg)
        if all(r.converged for r in results):
            m = overlap_matrix(results[0].state.grid, [r.state for r in results])
            for i in range(m.k):
                for j in range(m.k):
                    rows.append((beta, i, j, m.entries[i, j], "ok"))
            n_ok += 1
        else:
            for i in range(args.states):
                for j in range(args.states):
                    rows.append((beta, i, j, float("nan"), "MaxIterationsExceeded"))
    write_csv(args.output, ["beta", "i", "j", "C_ij", "status"],
              list(zip(*rows)), _config_echo(args))
    if n_ok == 0:
        return EXIT_CONVERGENCE
    return EXIT_PARTIAL if n_ok < len(betas) else EXIT_OK


# ------------------------------------------------------------ dynamics

def cmd_dynamics(args) -> int:
    grid = make_grid(args.L, args.D)
    packet = coherent_state(grid, args.x0, args.p0)
    steps = int(round(args.tmax / args.dt))
    snapshots = propagate(grid, args.a, packet, args.dt, steps,
                          snapshot_stride=args.stride)
    series = fotoc(snapshots, grid)
    norm_drift = max(
        abs(integrate(grid, np.abs(s.values) ** 2) - 1.0) for s in snapshots
    )
    footer = {"norm_drift": norm_drift,
              "lyapunov": lyapunov_exponent(args.a),
              "two_lyapunov": 2.0 * lyapunov_exponent(args.a)}
    try:
        window = default_fit_window(series)
        growth_rate(series, window)
        footer.update({"fit_rate": series.fit_rate, "fit_r2": series.fit_r2,
                       "fit_t_lo": window[0], "fit_t_hi": window[1]})
    except ValueError:
        pass  # no growth window in this run; data still goes out
    write_csv(args.output, ["t", "F", "var_x", "var_p"],
              [series.times, series.F, series.var_x, series.var_p],
              _config_echo(args), footer=footer)
    return EXIT_OK


# ----------------------------------------------------------- classical

def cmd_classical(args) -> int:
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
                   help="SCF stop: ||H psi - mu psi|| <= scf_tol * (1 + |mu|)")
    p.add_argument("--max-iter", type=int, default=ScfConfig.max_iter,
                   help="SCF iteration budget per state")


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

    p = sub.add_parser("scan-critical", help="critical parameter a_c and energy E_c vs beta")
    p.add_argument("--betas", default="0:4:0.5", help="start:stop:step or single value")
    p.add_argument("--bracket", default="0.5,3.0", help="sign-change bracket a_lo,a_hi")
    p.add_argument("--tol", type=float, default=1e-4, help="final bracket width on a")
    _add_grid_args(p)
    _add_scf_args(p)
    p.add_argument("--output", default="scan_critical.csv")
    p.set_defaults(func=cmd_scan_critical)

    p = sub.add_parser("wigner", help="Wigner function and negativity of a state")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--state", type=int, default=0)
    p.add_argument("--pmax", type=float, default=None)
    p.add_argument("--P", type=int, default=None)
    _add_grid_args(p, L=12.0, D=1200)
    _add_scf_args(p)
    p.add_argument("--output", default="wigner.csv")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("wkb", help="transmission and splitting sweep over beta")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--betas", default="0:0.5:0.1")
    _add_grid_args(p)
    _add_scf_args(p)
    p.add_argument("--output", default="wkb.csv")
    p.set_defaults(func=cmd_wkb)

    p = sub.add_parser("overlaps", help="eigenstate overlap matrix sweep over beta")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--betas", default="0:0.5:0.1")
    p.add_argument("--states", type=int, default=4)
    _add_grid_args(p)
    _add_scf_args(p)
    p.add_argument("--output", default="overlaps.csv")
    p.set_defaults(func=cmd_overlaps)

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
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ScfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
