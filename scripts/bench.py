#!/usr/bin/env python3
"""Per-layer ladders of the exact path and end-to-end compare times, written
to BENCH_<label>.json.

There is one ladder per kernel kind, because the selection rule keeps a
different share of the tensor for each: configs/k16n4.cfg (cosine, 4/M^2 at
harmonic2 = 1) and configs/gaussian.cfg (Gaussian, 1/M).  Each rung builds
its problem through analysis.Problem from the ladder's config with M, n_max
and N set: K = M (n_max + 1) orbitals and C(K, N) determinants.  It times
the assembly of H, one ExactPropagator(H).advance(psi, 0.1) from a seeded
random unit vector, the first build of the single-replacement table
(DeterminantBasis.singles) and rdm_exact after it, each the median of
REPEATS runs (the table once), and records the tracemalloc peak of one more
assembly over the bytes of the CSR it returns.  The compare rows run
`landau-hf compare --threads 1` REPEATS times on each of COMPARE_CONFIGS in
a fresh process and keep the manifest's total time.  The machine block
names where the numbers come from.

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
import tempfile
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
LADDER_CONFIGS = {"cosine": "configs/k16n4.cfg", "gaussian": "configs/gaussian.cfg"}
COMPARE_CONFIGS = ["configs/example.cfg", "configs/gaussian.cfg", "configs/k16n4.cfg"]
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


def rung(path: str, M: int, n_max: int, N: int) -> dict:
    config = dataclasses.replace(load_config(ROOT / path), M=M, n_max=n_max, N=N)
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


def compare_row(path: str) -> dict:
    """`landau-hf compare --threads 1` on path, REPEATS fresh processes: the
    manifest's total time of each and their median, with its counters."""
    totals = []
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as out:
            subprocess.run([sys.executable, "-m", "landau_hf.cli", "compare", "--config",
                            str(ROOT / path), "--out-dir", out, "--threads", "1"],
                           env=env, check=True, capture_output=True)
            manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
        totals.append(manifest["timings"]["total"])
    return {"config": path, "total_s": statistics.median(totals), "runs_s": totals,
            "counters": manifest.get("counters")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args()
    started = time.perf_counter()
    ladders = {}
    for kind, path in LADDER_CONFIGS.items():
        ladders[kind] = {"config": path, "rungs": []}
        for M, n_max, N in LADDER:
            ladders[kind]["rungs"].append(rung(path, M, n_max, N))
            print(kind, json.dumps(ladders[kind]["rungs"][-1]), flush=True)
    compare = []
    for path in COMPARE_CONFIGS:
        compare.append(compare_row(path))
        print(json.dumps(compare[-1]), flush=True)
    result = {"label": args.label, "machine": machine(), "interval": INTERVAL,
              "repeats": REPEATS, "ladders": ladders, "compare": compare,
              "wall_s": time.perf_counter() - started}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
