#!/usr/bin/env python3
"""Wigner negativity of the ground state as a function of beta.

Runs the solver directly (the `wigner` subcommand emits one full field
per call; here we only need the scalar negativity per point) and writes
one CSV per well depth.
"""

import argparse
import sys

from gpdwell.cli import parse_range, write_csv
from gpdwell.grid import TrapConfig, make_grid
from gpdwell.scf import solve_state
from gpdwell.wigner import negativity, wigner_transform


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=float, nargs="+", default=[2.0, 5.0])
    parser.add_argument("--betas", default="0:0.5:0.1")
    parser.add_argument("--L", type=float, default=12.0)
    parser.add_argument("--D", type=int, default=1200)
    parser.add_argument("--state", type=int, default=0)
    parser.add_argument("--output", default="data/negativity_a{a:g}.csv")
    args = parser.parse_args()

    grid = make_grid(args.L, args.D)
    for a in args.a:
        betas = parse_range(args.betas)
        negs, integrals = [], []
        for beta in betas:
            result = solve_state(grid, TrapConfig(a=a, beta=beta), args.state)
            field = wigner_transform(result.state.grid, result.state.psi)
            negs.append(negativity(field))
            integrals.append(field.phase_space_integral())
        path = args.output.format(a=a)
        write_csv(path, ["beta", "negativity", "integral"], [betas, negs, integrals],
                  {"a": a, "L": args.L, "D": args.D, "state": args.state})
        print(f"wrote {path} ({len(betas)} points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
