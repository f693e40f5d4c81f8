#!/usr/bin/env python3
"""Per-layer ladders of the exact path and end-to-end compare times, written
to BENCH_<label>.json.

There is one ladder per kernel kind, because the selection rule keeps a
different share of the tensor for each: configs/k16n4.cfg (cosine, 4/M^2 at
harmonic2 = 1) and configs/gaussian.cfg (Gaussian, 1/M).  Each rung builds
its problem through analysis.Problem from the ladder's config with M, n_max
and N set: K = M (n_max + 1) orbitals and C(K, N) determinants, and records
the tensor's momentum modulus g, the number of pair-momentum blocks of H's
W.  It times the build of the operator H (assemble_hamiltonian, its
two-hole table included), one matvec H @ psi and, apart, its three stages
(put_s, the put of psi into D_2; product_s, Z = W @ D_2; gather_s, the
gather of Z), and one ExactPropagator(H).advance(psi, 0.1) from a seeded
random unit vector, the builds of the hole tables
DeterminantBasis.holes(1) (table_s), which one_body and rdm_exact read, and
holes(2, slot) (two_hole_s), the two-hole table H builds in the slots of
its W's blocks (PairBlocks.slot), and rdm_exact.  Each is the median of
at least REPEATS calls and at least MIN_SECONDS of calls, their number kept
(assemble_calls, matvec_calls, put_calls, product_calls, gather_calls,
advance_calls, table_calls, two_hole_calls, rdm_calls).  holes(1) is built
once per basis and kept (holes(2, slot) is never kept), so each timed build
runs on a basis fresh from enumerate_determinants, made before the timed
call and dropped after it.  The rung also records the tracemalloc peak of
the build of its H over the bytes the budget predicts (hamiltonian_bytes);
nnz is the count of W's nonzero entries.
The compare rows run `landau-hf compare --threads 1` COMPARE_RUNS times on
each of COMPARE_CONFIGS, each in a fresh process, and keep the manifest's
total time of every run, their median and their quartiles.
The tensor rows time two_body_tensor on TENSOR_CONFIG's orbitals (K = 30),
the median of at least REPEATS calls and at least MIN_SECONDS of calls,
their number kept as calls, with the orbitals built once, for every kernel
kind: the config's Gaussian at its sigma and at each of TENSOR_SIGMAS, where
more Fourier modes are kept, the zero and the cosine kernel, and the
Gaussian's pair values as a table on a TABLE_GRID^2 tensor grid; two more
rows time the config's Gaussian with WIDE_CHANGES (K = 60) and with
HUGE_CHANGES (K = 120), the effective-flow runs of CI.  Each row records
its number of momentum blocks, its momentum modulus g, the number h of
the g blocks of F that mean_field contracts (fock_blocks: g // 2 + 1, the
others mirrored, which is g at g <= 2), the bytes of its
factor matrix B with its padding column (factors_mb, 16 K^2 (w + 1) for
the widest block's w columns; transfer-compact for the Gaussian), the
bytes of its stored blocks of v and F, and the tracemalloc peak of one
more call over the bytes two_body_tensor predicts (tensor_bytes).  The
config's Gaussian rows at K = 30 and K = 60 also time
InteractionTensor.mean_field, the HF right-hand side's contraction, and
InteractionTensor.pair_amplitudes, the closed-form defect's, on seeded
random orthonormal orbitals of the config's N, each the median of at least
REPEATS calls and MIN_SECONDS of calls (mean_field_s, mean_field_calls,
pair_amplitudes_s, pair_amplitudes_calls), the pair blocks built by one
call before the timed ones, with the bytes of those kept blocks
(pair_blocks_mb); the K = 120 row times mean_field alone, on HUGE_N
orbitals.  mean_field's plan is built by one call before the timed ones.
The orbital-set rows time build_orbital_set on TENSOR_CONFIG's tensor grid
at K = 30, with WIDE_CHANGES and with HUGE_CHANGES, the median of at least
REPEATS builds and MIN_SECONDS of builds, with the tracemalloc peak of one
build, its lattice shells and the bytes of its x1 profiles.
The start-up row runs `import landau_hf.cli` in at least REPEATS fresh
processes and MIN_SECONDS of them, and keeps the median wall time of a
process, the high-water RSS each reports of itself (VmHWM) and the number of
scipy modules each has loaded: the fixed cost of every command.
The exact row runs `landau-hf evolve-exact` once on EXACT_CONFIG with
EXACT_CHANGES, the (24, 6) rung's problem, in a fresh process started
before any other row, and keeps its wall time, its peak RSS and the
manifest's total time.  The machine block names where the numbers
come from.

    python scripts/bench.py --label after      # writes BENCH_after.json
"""

import argparse
import dataclasses
import functools
import json
import os
import pathlib
import platform
import re
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

from landau_hf import Grid, PotentialSpec, build_orbital_set, load_config  # noqa: E402
from landau_hf.analysis import Problem, rdm_exact  # noqa: E402
from landau_hf.manybody import (ExactPropagator, ManyBodyState,  # noqa: E402
                                assemble_hamiltonian, enumerate_determinants,
                                hamiltonian_bytes, tensor_bytes, tensor_factors,
                                two_body_tensor)

# (M, n_max, N): K = 12, 16, 20, 20, 24; C(24, 6) = 134,596 determinants
LADDER = [(4, 2, 4), (4, 3, 4), (4, 4, 4), (4, 4, 5), (8, 2, 6)]
LADDER_CONFIGS = {"cosine": "configs/k16n4.cfg", "gaussian": "configs/gaussian.cfg"}
COMPARE_CONFIGS = ["configs/example.cfg", "configs/gaussian.cfg", "configs/k16n4.cfg"]
EXACT_CONFIG = "configs/k16n4.cfg"
EXACT_CHANGES = {"n_max": 2, "N": 6, "t_final": 0.05}
TENSOR_CONFIG = "configs/k30n10.cfg"
TENSOR_SIGMAS = [0.3, 0.1]       # 2161 and all 4096 modes of the 64^2 tensor grid
TABLE_GRID = 48                  # the table itself is 42 MB at 48^2, 134 MB at 64^2
# K = 60: M = 30, n_max = 1 and every grid at 256^2, as the K = 60 evolve-hf step of CI
WIDE_CHANGES = {"M": 30, "n_max": 1, "grid1": 256, "grid2": 256, "tensor_grid1": 256,
                "tensor_grid2": 256}
# K = 120: M = 60, n_max = 1 and every grid at 512^2, as the K = 120 evolve-hf step of CI
HUGE_CHANGES = {"M": 60, "n_max": 1, "grid1": 512, "grid2": 512, "tensor_grid1": 512,
                "tensor_grid2": 512}
HUGE_N = 60                      # orbitals of the K = 120 row's mean_field
REPEATS = 3
COMPARE_RUNS = 7                 # fresh processes per compare row: quartiles that resolve a change
MIN_SECONDS = 1.0                # resolves the few-ms tensor rows and ladder calls
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


def call_times(fn) -> list[float]:
    """The times of calls of fn, at least REPEATS calls and at least
    MIN_SECONDS of calls in all."""
    times = []
    while len(times) < REPEATS or sum(times) < MIN_SECONDS:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def build_times(build, K: int, N: int) -> list[float]:
    """call_times of build(basis), each on a basis fresh from
    enumerate_determinants(K, N) made before the timed call and dropped after
    it, so that at most one of the tables it builds is alive."""
    times = []
    while len(times) < REPEATS or sum(times) < MIN_SECONDS:
        basis = enumerate_determinants(K, N)
        start = time.perf_counter()
        build(basis)
        times.append(time.perf_counter() - start)
        del basis
    return times


def rung(path: str, M: int, n_max: int, N: int) -> dict:
    config = dataclasses.replace(load_config(ROOT / path), M=M, n_max=n_max, N=N)
    problem = Problem(config)
    basis, energies, tensor = problem.det_basis, problem.energies, problem.tensor
    assemble = build_times(lambda fresh: assemble_hamiltonian(fresh, energies, tensor),
                           basis.K, N)
    tracemalloc.start()
    try:
        H = assemble_hamiltonian(basis, energies, tensor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    predicted = hamiltonian_bytes(basis.K, N, tensor.modulus)

    rng = np.random.default_rng(SEED)
    psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi /= np.linalg.norm(psi)
    hbar = config.constants.hbar
    matvec = call_times(lambda: H @ psi)
    put = call_times(lambda: H._put(psi))
    product = call_times(H._product)
    gather = call_times(H._gather)
    advance = call_times(lambda: ExactPropagator(H, hbar).advance(psi, INTERVAL))
    table = build_times(lambda fresh: fresh.holes(1), basis.K, N)
    slot = tensor.pair_blocks.slot
    two_hole = build_times(lambda fresh: fresh.holes(2, slot), basis.K, N)
    state = ManyBodyState(basis=basis, coefficients=psi)
    rdm = call_times(lambda: rdm_exact(state, basis))
    return {"M": M, "n_max": n_max, "K": basis.K, "N": N, "g": tensor.modulus,
            "dim": basis.dim, "nnz": H.nnz,
            "assemble_s": statistics.median(assemble), "assemble_calls": len(assemble),
            "assemble_peak_mb": peak / 1e6,
            "predicted_mb": predicted / 1e6, "assemble_peak_over_prediction": peak / predicted,
            "matvec_s": statistics.median(matvec), "matvec_calls": len(matvec),
            "put_s": statistics.median(put), "put_calls": len(put),
            "product_s": statistics.median(product), "product_calls": len(product),
            "gather_s": statistics.median(gather), "gather_calls": len(gather),
            "advance_s": statistics.median(advance), "advance_calls": len(advance),
            "table_s": statistics.median(table), "table_calls": len(table),
            "two_hole_s": statistics.median(two_hole), "two_hole_calls": len(two_hole),
            "rdm_s": statistics.median(rdm), "rdm_calls": len(rdm)}


def tensor_row(potential: PotentialSpec, orbitals, grid: Grid, changes=None,
               N: int | None = None, amplitudes: bool = True) -> dict:
    """two_body_tensor on orbitals, the median of at least REPEATS calls and
    MIN_SECONDS of calls and their number, its momentum blocks
    (tensor_factors), modulus, the blocks of F mean_field contracts, factor
    and stored bytes, and the tracemalloc peak of one more call over its
    predicted bytes, tensor_bytes; given N, the median mean_field calls on N
    seeded random orthonormal orbitals and, with amplitudes, the median
    pair_amplitudes calls and the bytes of the pair blocks."""
    build = functools.partial(two_body_tensor, potential, orbitals, grid)
    tracemalloc.start()
    try:
        tensor = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    K, M = orbitals.size, orbitals.flux_count
    factors = tensor_factors(potential, K, M, grid)
    blocks = factors[2]
    width = max((len(columns) for _, columns in blocks), default=0)
    predicted = tensor_bytes(K, M, grid, *factors)
    times = call_times(build)
    row = {"config": TENSOR_CONFIG, "changes": changes, "kind": potential.kind, "K": K,
           "grid": list(grid.shape), "sigma": potential.sigma, "rank": tensor.rank,
           "blocks": len(blocks), "modulus": tensor.modulus,
           "fock_blocks": len(tensor._fock_plan[0]),
           "factors_mb": 16 * K * K * (width + 1) / 1e6 if width else 0.0,
           "stored_mb": (tensor.blocks.nbytes + tensor.anti.nbytes) / 1e6,
           "tensor_s": statistics.median(times), "calls": len(times),
           "peak_mb": peak / 1e6, "predicted_mb": predicted / 1e6,
           "peak_over_prediction": peak / predicted}
    if N is not None:
        rng = np.random.default_rng(SEED)
        C = np.linalg.qr(rng.normal(size=(K, N)) + 1j * rng.normal(size=(K, N)))[0]
        tensor.mean_field(C)
        calls = call_times(lambda: tensor.mean_field(C))
        row.update(N=N, mean_field_s=statistics.median(calls), mean_field_calls=len(calls))
        if amplitudes:
            tensor.pair_amplitudes(C)                  # builds the pair blocks
            calls = call_times(lambda: tensor.pair_amplitudes(C))
            row.update(pair_amplitudes_s=statistics.median(calls),
                       pair_amplitudes_calls=len(calls),
                       pair_blocks_mb=tensor.pair_blocks.values.nbytes / 1e6)
    return row


def orbital_row(changes=None) -> dict:
    """build_orbital_set on TENSOR_CONFIG with changes, on its tensor grid:
    the median of at least REPEATS builds and MIN_SECONDS of builds and
    their number, the tracemalloc peak of one more build, and the set's
    lattice shells and the bytes of its x1 profiles."""
    config = load_config(ROOT / TENSOR_CONFIG)
    config = dataclasses.replace(config, **(changes or {}))
    build = functools.partial(build_orbital_set, config, grid=config.tensor_grid)
    tracemalloc.start()
    try:
        orbitals = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    times = call_times(build)
    return {"config": TENSOR_CONFIG, "changes": changes, "K": orbitals.size,
            "grid": list(config.tensor_grid.shape), "shells": len(orbitals.shells),
            "profiles_mb": orbitals.profiles.nbytes / 1e6,
            "build_s": statistics.median(times), "calls": len(times), "peak_mb": peak / 1e6}


def tensor_rows() -> list[dict]:
    """tensor_row for TENSOR_CONFIG's Gaussian at its sigma, with mean_field
    and pair_amplitudes at the config's N, and at each of TENSOR_SIGMAS, for the zero and the
    cosine kernel on its tensor grid, for the Gaussian's pair values as a
    table on a TABLE_GRID^2 grid, for the Gaussian with WIDE_CHANGES, with
    mean_field and pair_amplitudes, and with HUGE_CHANGES, with mean_field
    on HUGE_N orbitals."""
    config = load_config(ROOT / TENSOR_CONFIG)
    grid = config.tensor_grid
    orbitals = build_orbital_set(config, grid=grid)
    gaussian = config.potential
    rows = [tensor_row(gaussian, orbitals, grid, N=config.N)]
    rows += [tensor_row(dataclasses.replace(gaussian, sigma=sigma), orbitals, grid)
             for sigma in TENSOR_SIGMAS]
    for kind in ("zero", "separable-cosine"):
        rows.append(tensor_row(PotentialSpec(kind=kind, strength=gaussian.strength),
                               orbitals, grid))
    table_grid = Grid(L1=grid.L1, L2=grid.L2, G1=TABLE_GRID, G2=TABLE_GRID)
    table = PotentialSpec(kind="tabulated", table=gaussian.pair_values(table_grid))
    rows.append(tensor_row(table, build_orbital_set(config, grid=table_grid), table_grid))
    wide = dataclasses.replace(config, **WIDE_CHANGES)
    rows.append(tensor_row(wide.potential, build_orbital_set(wide, grid=wide.tensor_grid),
                           wide.tensor_grid, WIDE_CHANGES, N=wide.N))
    huge = dataclasses.replace(config, **HUGE_CHANGES)
    rows.append(tensor_row(huge.potential, build_orbital_set(huge, grid=huge.tensor_grid),
                           huge.tensor_grid, HUGE_CHANGES, N=HUGE_N, amplitudes=False))
    return rows


def compare_row(path: str) -> dict:
    """`landau-hf compare --threads 1` on path, COMPARE_RUNS fresh processes:
    the manifest's total time of each, their median and quartiles, with its
    counters."""
    totals = []
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for _ in range(COMPARE_RUNS):
        with tempfile.TemporaryDirectory() as out:
            subprocess.run([sys.executable, "-m", "landau_hf.cli", "compare", "--config",
                            str(ROOT / path), "--out-dir", out, "--threads", "1"],
                           env=env, check=True, capture_output=True)
            manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
        totals.append(manifest["timings"]["total"])
    quartiles = statistics.quantiles(totals, n=4)
    return {"config": path, "total_s": quartiles[1], "q1_s": quartiles[0],
            "q3_s": quartiles[2], "runs_s": totals, "counters": manifest.get("counters")}


STARTUP_CODE = """import sys, landau_hf.cli
hwm = next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM"))
print(sum(name.split(".")[0] == "scipy" for name in sys.modules), int(hwm) / 1024)"""


def startup_row() -> dict:
    """`import landau_hf.cli` in at least REPEATS fresh processes and
    MIN_SECONDS of them: the wall time of each and their median, the median
    of the VmHWM each reads of itself after the import (from /proc, so the
    pages of this process are not counted), and the scipy modules loaded."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    walls, rss, scipy_modules = [], [], set()
    while len(walls) < REPEATS or sum(walls) < MIN_SECONDS:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", STARTUP_CODE], env=env, check=True,
                              capture_output=True, text=True)
        walls.append(time.perf_counter() - start)
        modules, hwm = proc.stdout.split()
        scipy_modules.add(int(modules))
        rss.append(float(hwm))
    return {"command": "import landau_hf.cli", "wall_s": statistics.median(walls),
            "runs_s": walls, "rss_mb": statistics.median(rss),
            "scipy_modules": sorted(scipy_modules)}


def exact_row() -> dict:
    """`landau-hf evolve-exact` on EXACT_CONFIG with EXACT_CHANGES, once, in
    a fresh process: its exit code, wall time and peak RSS (wait4), and the
    manifest's total time and counters."""
    text = (ROOT / EXACT_CONFIG).read_text()
    for key, value in EXACT_CHANGES.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryDirectory() as out:
        config = pathlib.Path(out, "exact.cfg")
        config.write_text(text)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "landau_hf.cli", "evolve-exact",
                                 "--config", str(config), "--out-dir", out],
                                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
    return {"config": EXACT_CONFIG, "changes": EXACT_CHANGES, "exit": proc.returncode,
            "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
            "total_s": manifest["timings"].get("total"), "counters": manifest.get("counters")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args()
    started = time.perf_counter()
    # first, while this process is small: the child's ru_maxrss also counts
    # the pages it shares with this process when it is forked
    exact = exact_row()
    print(json.dumps(exact), flush=True)
    startup = startup_row()
    print(json.dumps(startup), flush=True)
    ladders = {}
    for kind, path in LADDER_CONFIGS.items():
        ladders[kind] = {"config": path, "rungs": []}
        for M, n_max, N in LADDER:
            ladders[kind]["rungs"].append(rung(path, M, n_max, N))
            print(kind, json.dumps(ladders[kind]["rungs"][-1]), flush=True)
    orbital_sets = [orbital_row(changes) for changes in (None, WIDE_CHANGES, HUGE_CHANGES)]
    for row in orbital_sets:
        print(json.dumps(row), flush=True)
    tensors = tensor_rows()
    for row in tensors:
        print(json.dumps(row), flush=True)
    compare = []
    for path in COMPARE_CONFIGS:
        compare.append(compare_row(path))
        print(json.dumps(compare[-1]), flush=True)
    result = {"label": args.label, "machine": machine(), "interval": INTERVAL,
              "repeats": REPEATS, "compare_runs": COMPARE_RUNS, "min_seconds": MIN_SECONDS,
              "ladders": ladders,
              "orbital_set": orbital_sets, "tensor": tensors, "exact": exact,
              "startup": startup,
              "compare": compare,
              "wall_s": time.perf_counter() - started}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
