"""End-to-end acceptance suite.

Ten numbered criteria covering the full pipeline, each printing a single
pass/fail line (run with -s to see them on success; pytest shows them on
failure automatically). Tolerances are fixed; timing limits are generous
upper bounds, not benchmarks.
"""

import filecmp
import time

import numpy as np
import pytest

from gpdwell.cli import main, read_csv
from gpdwell.critical import find_critical_a
from gpdwell.dynamics import coherent_state, default_fit_window, fotoc, growth_rate, propagate
from gpdwell.eigensolver import lowest_eigenpairs
from gpdwell.grid import TrapConfig, integrate, make_grid, potential
from gpdwell.hamiltonian import assemble
from gpdwell.observables import overlap_matrix
from gpdwell.scf import solve_spectrum, solve_state
from gpdwell.semiclassics import classical_trajectory, lyapunov_exponent, transmission
from gpdwell.wigner import negativity, wigner_transform

from oracles import tridiag_eigenvalue_bisection


def _report(num: int, name: str, conditions: list[tuple[str, bool]]) -> None:
    """Print one pass/fail line and assert that every condition holds."""
    failed = [desc for desc, ok in conditions if not ok]
    status = "FAIL" if failed else "PASS"
    detail = f"  [{'; '.join(failed)}]" if failed else ""
    print(f"\n[acceptance {num:02d}] {name}: {status}{detail}")
    assert not failed, f"criterion {num} ({name}): {failed}"


def test_01_critical_parameter_beta_zero(tmp_path):
    out = tmp_path / "scan0.csv"
    t0 = time.perf_counter()
    code = main(["scan-critical", "--betas", "0", "--L", "6", "--D", "4000",
                 "--tol", "1e-4", "--output", str(out)])
    elapsed = time.perf_counter() - t0
    _, columns, rows, _ = read_csv(str(out))
    row = dict(zip(columns, rows[0]))
    a_c, e_c, status = row["a_c"], row["E_c"], row["status"]
    _report(1, "critical parameter at beta=0", [
        ("exit code 0", code == 0),
        ("status ok", status == "ok"),
        (f"a_c={a_c:.5f} in 1.7616+-0.005", abs(a_c - 1.7616) <= 0.005),
        (f"E_c={e_c:.2e} in 0+-0.005", abs(e_c) <= 0.005),
        (f"runtime {elapsed:.1f}s <= 60s", elapsed <= 60.0),
    ])


def test_02_critical_curve_fits(tmp_path):
    out = tmp_path / "scan.csv"
    t0 = time.perf_counter()
    code = main(["scan-critical", "--betas", "0:4:0.5", "--L", "6", "--D", "4000",
                 "--tol", "1e-4", "--output", str(out)])
    elapsed = time.perf_counter() - t0
    _, _, rows, footer = read_csv(str(out))
    _report(2, "quadratic fits of a_c(beta) and E_c(beta)", [
        ("exit code 0", code == 0),
        ("9 sweep points", len(rows) == 9),
        (f"a_c c0={footer['a_c_fit_c0']:.4f} in 1.7616+-0.02",
         abs(footer["a_c_fit_c0"] - 1.7616) <= 0.02),
        (f"a_c c1={footer['a_c_fit_c1']:.4f} within 15% of -0.1513",
         abs(footer["a_c_fit_c1"] + 0.1513) <= 0.15 * 0.1513),
        (f"a_c c2={footer['a_c_fit_c2']:.4f} within 50% of 0.0061",
         abs(footer["a_c_fit_c2"] - 0.0061) <= 0.50 * 0.0061),
        (f"E_c c1={footer['E_c_fit_c1']:.4f} within 15% of 0.2662",
         abs(footer["E_c_fit_c1"] - 0.2662) <= 0.15 * 0.2662),
        (f"E_c |c0|={abs(footer['E_c_fit_c0']):.4f} <= 0.01",
         abs(footer["E_c_fit_c0"]) <= 0.01),
        (f"runtime {elapsed:.0f}s <= 900s", elapsed <= 900.0),
    ])


def test_03_linear_oracle_equivalence(grid4000):
    conditions = []
    for a in (2.0, 5.0):
        op = assemble(grid4000, TrapConfig(a=a, beta=0.0), np.zeros(grid4000.D - 1))
        pairs = lowest_eigenpairs(op, 4, grid4000)
        for n in range(4):
            ref = tridiag_eigenvalue_bisection(op.diag, op.offdiag, n)
            rel = abs(pairs[n].value - ref) / abs(ref)
            conditions.append(
                (f"a={a:g} n={n} rel err {rel:.1e} <= 1e-6", rel <= 1e-6))
    _report(3, "beta=0 eigenvalues vs independent shooting oracle", conditions)


def test_04_gp_identity_suite(grid4000):
    conditions = []
    for a in (2.0, 5.0):
        for beta in (0.1, 0.3, 0.5):
            trap = TrapConfig(a=a, beta=beta)
            results = solve_spectrum(grid4000, trap, 4)
            for r in results:
                s = r.state
                quartic = integrate(grid4000, s.psi**4)
                gap = abs(s.mu - s.energy - 0.5 * beta * quartic)
                density = s.psi[1:-1] ** 2
                op = assemble(grid4000, trap, density)
                resid = op.apply(s.psi[1:-1]) - s.mu * s.psi[1:-1]
                rnorm = float(np.sqrt(grid4000.delta * np.sum(resid**2)))
                conditions.append(
                    (f"a={a:g} b={beta:g} n={s.n} identity {gap:.1e}", gap <= 1e-6))
                conditions.append(
                    (f"a={a:g} b={beta:g} n={s.n} residual {rnorm:.1e}", rnorm <= 1e-6))
    _report(4, "chemical-potential identity and nonlinear residual", conditions)


def test_05_pair_structure(grid4000, spectrum_a5_b01):
    states = [r.state for r in spectrum_a5_b01]
    e_c = find_critical_a(0.1, grid=grid4000).E_c
    gaps = [states[i + 1].energy - states[i].energy for i in range(3)]
    ratio = gaps[0] / gaps[2]
    _report(5, "doublet structure at a=5, beta=0.1", [
        ("4 states converged", all(r.converged for r in spectrum_a5_b01)),
        (f"all E below E_c={e_c:.4f}", all(s.energy < e_c for s in states)),
        (f"dE01/dE23 = {ratio:.3f} <= 0.1", ratio <= 0.1),
        ("parities even/odd/even/odd",
         [s.parity for s in states] == ["even", "odd", "even", "odd"]),
    ])


def test_06_transmission_and_splitting_trends(grid4000):
    betas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    trends = {}
    for a in (2.0, 5.0):
        t0s, gaps = [], []
        for beta in betas:
            rs = solve_spectrum(grid4000, TrapConfig(a=a, beta=beta), 2)
            t0s.append(transmission(rs[0].state))
            gaps.append(rs[1].state.energy - rs[0].state.energy)
        trends[a] = (np.array(t0s), np.array(gaps))
    t2, g2 = trends[2.0]
    t5, g5 = trends[5.0]
    _report(6, "transparency and splitting trends vs beta", [
        ("a=2: T0 strictly decreasing", bool(np.all(np.diff(t2) < 0))),
        ("a=2: dE increasing", bool(np.all(np.diff(g2) > 0))),
        ("a=5: T0 strictly increasing", bool(np.all(np.diff(t5) > 0))),
        ("a=5: dE increasing", bool(np.all(np.diff(g5) > 0))),
    ])


def test_07_wigner_suite():
    grid = make_grid(12.0, 1200)
    gauss = np.exp(-grid.nodes**2 / 2.0)
    gauss[0] = gauss[-1] = 0.0
    gauss /= np.sqrt(integrate(grid, gauss**2))
    field = wigner_transform(grid, gauss)
    hudson = negativity(field)
    integral = field.phase_space_integral()
    marginal_err = float(np.max(np.abs(field.x_marginal() - gauss**2)))

    deltas = {}
    for a in (2.0, 5.0):
        vals = []
        for beta in (0.0, 0.25, 0.5):
            r = solve_state(grid, TrapConfig(a=a, beta=beta), 0)
            vals.append(negativity(wigner_transform(grid, r.state.psi)))
        deltas[a] = vals
    base = solve_state(grid, TrapConfig(a=2.0, beta=0.0), 0).state.psi
    coarse = negativity(wigner_transform(grid, base))
    fine = negativity(wigner_transform(grid, base, P=2 * (grid.D // 2)))

    _report(7, "Wigner negativity suite", [
        (f"Gaussian delta {hudson:.1e} <= 1e-3", hudson <= 1e-3),
        (f"integral {integral:.6f} = 1 +- 1e-3", abs(integral - 1.0) <= 1e-3),
        (f"marginal err {marginal_err:.1e} <= 1e-3", marginal_err <= 1e-3),
        (f"P-doubling drift {abs(fine - coarse):.1e} <= 1e-3",
         abs(fine - coarse) <= 1e-3),
        ("a=2: delta increasing in beta (archived direction)",
         deltas[2.0][0] < deltas[2.0][1] < deltas[2.0][2]),
        ("a=5: delta decreasing in beta (archived direction)",
         deltas[5.0][0] > deltas[5.0][1] > deltas[5.0][2]),
        (f"a=2, beta=0 baseline {deltas[2.0][0]:.6f} = 0.087267 +- 1e-3",
         abs(deltas[2.0][0] - 0.087267) <= 1e-3),
    ])


def test_08_overlap_suite(grid4000):
    betas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    c02, c13 = [], []
    conditions = []
    for beta in betas:
        rs = solve_spectrum(grid4000, TrapConfig(a=5.0, beta=beta), 4)
        m = overlap_matrix([r.state for r in rs])
        cross_max = max(m[i, j] for i in range(4) for j in range(4) if (i + j) % 2 == 1)
        diag_err = float(np.max(np.abs(np.diag(m) - 1.0)))
        conditions.append(
            (f"b={beta:g} opposite parity {cross_max:.1e} <= 1e-8", cross_max <= 1e-8))
        conditions.append(
            (f"b={beta:g} diagonals 1 +- 1e-10", diag_err <= 1e-10))
        c02.append(m[0, 2])
        c13.append(m[1, 3])
    conditions.append(("C_02 strictly increasing", bool(np.all(np.diff(c02) > 0))))
    conditions.append(("C_13 strictly increasing", bool(np.all(np.diff(c13) > 0))))
    _report(8, "overlap matrix structure at a=5", conditions)


def test_09_dynamics_suite():
    grid = make_grid(6.0, 1200)
    packet = coherent_state(grid, 0.0, 0.0)
    times, snaps = propagate(grid, 10.0, packet, dt=1e-4, steps=6000, snapshot_stride=20)
    norm_drift = max(abs(integrate(grid, np.abs(psi) ** 2) - 1.0) for psi in snaps)
    series = fotoc(grid, times, snaps)
    fit = growth_rate(series, default_fit_window(series))
    lam = lyapunov_exponent(10.0)

    traj = classical_trajectory(10.0, 1.0, 0.0, 1e-4, 10.0)
    e = 0.5 * traj.points[:, 1] ** 2 + potential(traj.points[:, 0], 10.0)
    e_drift = float(np.max(np.abs(e - traj.energy)))

    _report(9, "separatrix dynamics at a=10", [
        (f"norm drift {norm_drift:.1e} <= 1e-6", norm_drift <= 1e-6),
        (f"F(0)={series.F[0]:.5f} = 1 +- 1e-3", abs(series.F[0] - 1.0) <= 1e-3),
        (f"fit r2={fit.r2:.4f} >= 0.98", fit.r2 >= 0.98),
        (f"rate {fit.rate:.2f} in [{0.75 * lam:.2f}, {2.5 * lam:.2f}] "
         f"(lambda={lam:.2f}, 2*lambda={2 * lam:.2f})",
         0.75 * lam <= fit.rate <= 2.5 * lam),
        (f"classical energy drift {e_drift:.1e} <= 1e-8", e_drift <= 1e-8),
        ("E<0 trajectory never crosses x=0",
         traj.energy < 0 and float(np.min(traj.points[:, 0])) > 0.0),
    ])


def test_10_determinism(tmp_path):
    commands = {
        "scan": ["scan-critical", "--betas", "0:0.5:0.5", "--D", "600", "--tol", "1e-3"],
        "wkb": ["wkb", "--a", "5", "--betas", "0:0.2:0.1", "--D", "800"],
        "wigner": ["wigner", "--a", "2", "--D", "400"],
        "dynamics": ["dynamics", "--a", "10", "--tmax", "0.3"],
        "classical": ["classical", "--a", "2", "--x0", "1.2", "--p0", "0", "--tmax", "2"],
    }
    conditions = []
    for name, argv in commands.items():
        f1 = tmp_path / f"{name}_1.csv"
        f2 = tmp_path / f"{name}_2.csv"
        c1 = main(argv + ["--output", str(f1)])
        c2 = main(argv + ["--output", str(f2)])
        conditions.append((f"{name}: exit 0 twice", c1 == 0 and c2 == 0))
        conditions.append(
            (f"{name}: byte-identical reruns", filecmp.cmp(str(f1), str(f2), shallow=False)))
    _report(10, "byte-identical reruns of every subcommand", conditions)
