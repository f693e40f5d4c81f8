#!/usr/bin/env python3
"""Build the orbital basis at two resolutions and report orthonormality,
boundary-condition residuals, and the eigenresidual convergence ratio."""

import argparse
import dataclasses
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from landau_hf import basis_report, load_config
from landau_hf.analysis import Problem


def report_at(config, G: int) -> dict:
    """basis_report of the basis sampled on a G x G grid."""
    problem = Problem(dataclasses.replace(config, grid1=G, grid2=G))
    return basis_report(problem.grid_orbitals, config.constants)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    default_cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "example.cfg"
    parser.add_argument("--config", default=str(default_cfg))
    parser.add_argument("--grid", type=int, default=256)
    args = parser.parse_args()

    config = load_config(args.config)
    G1, G2 = args.grid, args.grid * 2
    report, report2 = report_at(config, G1), report_at(config, G2)

    print(f"orbitals: {config.single_particle_dim}   grid: {G1}^2")
    print(f"gram max deviation: {report['gram_max_dev']:.3e}")
    bc = max(max(r.values()) for r in report["bc_residuals"].values())
    print(f"worst boundary-condition residual: {bc:.3e}")

    r1 = max(report["eigenresiduals"].values())
    r2 = max(report2["eigenresiduals"].values())
    print(f"eigenresidual (max) at {G1}^2: {r1:.3e}")
    print(f"eigenresidual (max) at {G2}^2: {r2:.3e}")
    print(f"convergence ratio under doubling: {r1 / r2:.1f} (16 = clean 4th order)")


if __name__ == "__main__":
    main()
