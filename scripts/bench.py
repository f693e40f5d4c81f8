#!/usr/bin/env python3
"""Per-layer ladder of the exact path, written to BENCH_<label>.json.

Each rung builds its problem through analysis.Problem from configs/k16n4.cfg
(cosine kernel) with M, n_max and N set: K = M (n_max + 1) orbitals and
C(K, N) determinants.  It times the assembly of H, one
ExactPropagator(H).advance(psi, 0.1) from a seeded random unit vector, the
first build of the single-replacement table (DeterminantBasis.singles) and
rdm_exact after it, each the median of REPEATS runs (the table once), and
records the tracemalloc peak of one more assembly over the bytes of the CSR
it returns.  The machine block names where the numbers come from.

    python scripts/bench.py --label after      # writes BENCH_after.json
"""

import argparse
import dataclasses
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from landau_hf import load_config  # noqa: E402
from landau_hf.analysis import Problem, rdm_exact  # noqa: E402
from landau_hf.manybody import (ExactPropagator, ManyBodyState,  # noqa: E402
                                assemble_hamiltonian)

LADDER = [(4, 2, 4), (4, 3, 4), (4, 4, 4), (4, 4, 5)]   # (M, n_max, N): K = 12, 16, 20, 20
REPEATS = 3
INTERVAL = 0.1
SEED = 20240917


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in
                pathlib.Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                            cwd=ROOT, capture_output=True, text=True).stdout.strip()
    return {"cpu": cpu, "cpus": os.cpu_count(),
            "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9, 1),
            "system": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "commit": commit}


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def rung(M: int, n_max: int, N: int) -> dict:
    config = dataclasses.replace(load_config(ROOT / "configs" / "k16n4.cfg"),
                                 M=M, n_max=n_max, N=N)
    problem = Problem(config)
    basis, energies, tensor = problem.det_basis, problem.energies, problem.tensor
    assemble_s = median_time(lambda: assemble_hamiltonian(basis, energies, tensor), REPEATS)
    tracemalloc.start()
    try:
        H = assemble_hamiltonian(basis, energies, tensor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr = H.data.nbytes + H.indices.nbytes + H.indptr.nbytes

    rng = np.random.default_rng(SEED)
    psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi /= np.linalg.norm(psi)
    hbar = config.constants.hbar
    advance_s = median_time(lambda: ExactPropagator(H, hbar).advance(psi, INTERVAL), REPEATS)
    singles_s = median_time(lambda: basis.singles, 1)
    state = ManyBodyState(basis=basis, coefficients=psi)
    rdm_s = median_time(lambda: rdm_exact(state, basis), REPEATS)
    return {"M": M, "n_max": n_max, "K": basis.K, "N": N, "dim": basis.dim, "nnz": H.nnz,
            "assemble_s": assemble_s, "assemble_ns_per_nnz": assemble_s / H.nnz * 1e9,
            "assemble_peak_mb": peak / 1e6, "csr_mb": csr / 1e6,
            "assemble_peak_over_csr": peak / csr, "advance_s": advance_s,
            "singles_s": singles_s, "rdm_s": rdm_s}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args()
    started = time.perf_counter()
    ladder = []
    for M, n_max, N in LADDER:
        ladder.append(rung(M, n_max, N))
        print(json.dumps(ladder[-1]), flush=True)
    result = {"label": args.label, "machine": machine(), "config": "configs/k16n4.cfg",
              "interval": INTERVAL, "repeats": REPEATS, "ladder": ladder,
              "wall_s": time.perf_counter() - started}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
