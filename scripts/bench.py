#!/usr/bin/env python3
"""Per-layer ladders of the exact path and end-to-end compare times, written
to BENCH_<label>.json.

Every row builds its problem as an analysis.Problem of a shipped config with
some keys changed (problem), and measures through one timer (call_times),
one tracemalloc probe (traced) and one fresh-process runner (run).  The rows
run in this order, each documented on its function:

1. exact_row, `landau-hf evolve-exact` at (K, N) = (24, 6) in a fresh
   process, first, while this process is small: the child's ru_maxrss also
   counts the pages it shares with this process when it is forked;
2. startup_row, the fixed cost of every command;
3. rung, the per-layer ladder of the exact path, one per kernel kind, as
   the selection rule keeps a different share of the tensor for each:
   configs/k16n4.cfg (cosine, 4/M^2 at harmonic2 = 1) and
   configs/gaussian.cfg (Gaussian, 1/M);
4. orbital_row, the orbital set at K = 30, 60 and 120;
5. tensor_row, two_body_tensor for every kernel kind on those orbital sets;
6. compare_row, `landau-hf compare` on the shipped configs.

The machine block names where the numbers come from.

    python scripts/bench.py --label after      # writes BENCH_after.json
"""

import argparse
import dataclasses
import functools
import importlib.metadata
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

from landau_hf import load_config  # noqa: E402
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
# the table kernel's tensor grid: the table itself is 42 MB at 48^2, 134 MB at 64^2
TABLE_CHANGES = {"tensor_grid1": 48, "tensor_grid2": 48}
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


def problem(path: str, changes: dict | None = None) -> Problem:
    """The Problem of the config at path with the keys in changes set."""
    return Problem(dataclasses.replace(load_config(ROOT / path), **(changes or {})))


def call_times(fn, fresh=None) -> list[float]:
    """The times of calls of fn, at least REPEATS calls and at least
    MIN_SECONDS of calls in all.  Given fresh, each call is fn(fresh()), its
    argument made before the timed call and dropped after it."""
    times = []
    while len(times) < REPEATS or sum(times) < MIN_SECONDS:
        args = () if fresh is None else (fresh(),)
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
        del args
    return times


def traced(fn) -> tuple:
    """fn()'s value and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run(args: list, check: bool = True) -> tuple[int, float, float, str]:
    """args in a fresh process with src on its path: its exit code, wall
    time, peak RSS in MB (wait4's ru_maxrss) and stdout.  With check, an exit
    code other than 0 raises CalledProcessError."""
    start = time.perf_counter()
    with subprocess.Popen(args, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    if check and proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, args, out)
    return proc.returncode, wall, usage.ru_maxrss / 1024, out


def cli(command: str, config, out: str) -> list:
    return [sys.executable, "-m", "landau_hf.cli", command, "--config", str(config),
            "--out-dir", out]


def median_calls(name: str, times: list[float]) -> dict:
    return {f"{name}_s": statistics.median(times), f"{name}_calls": len(times)}


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in
                pathlib.Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    commit = run(["git", "describe", "--always", "--dirty", "--abbrev=40"], check=False)[3]
    # the installed version, None without one: this process imports no SciPy
    scipy = next((d.version for d in importlib.metadata.distributions(name="scipy")), None)
    return {"cpu": cpu, "cpus": os.cpu_count(),
            "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9, 1),
            "system": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy, "commit": commit.strip()}


def exact_text() -> str:
    """EXACT_CONFIG's text with each key of EXACT_CHANGES set: the fresh
    process of exact_row reads a file."""
    text = (ROOT / EXACT_CONFIG).read_text()
    for key, value in EXACT_CHANGES.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    return text


def exact_row() -> dict:
    """`landau-hf evolve-exact` on EXACT_CONFIG with EXACT_CHANGES, the (24,
    6) rung's problem, once, in a fresh process: its exit code, wall time and
    peak RSS (wait4), and the manifest's total time and counters."""
    with tempfile.TemporaryDirectory() as out:
        config = pathlib.Path(out, "exact.cfg")
        config.write_text(exact_text())
        code, wall, rss, _ = run(cli("evolve-exact", config, out), check=False)
        manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
    return {"config": EXACT_CONFIG, "changes": EXACT_CHANGES, "exit": code, "wall_s": wall,
            "peak_rss_mb": rss, "total_s": manifest["timings"].get("total"),
            "counters": manifest.get("counters")}


STARTUP_CODE = """import sys, landau_hf.cli
hwm = next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM"))
print(sum(name.split(".")[0] == "scipy" for name in sys.modules), int(hwm) / 1024)"""


def startup_row() -> dict:
    """`import landau_hf.cli` in at least REPEATS fresh processes and
    MIN_SECONDS of them: the wall time of each and their median, the median
    of the high-water RSS each reads of itself after the import (VmHWM, from
    /proc, so the pages of this process are not counted), and the number of
    scipy modules each has loaded: the fixed cost of every command."""
    outs = []
    walls = call_times(lambda: outs.append(run([sys.executable, "-c", STARTUP_CODE])[3]))
    modules, rss = zip(*(out.split() for out in outs))
    return {"command": "import landau_hf.cli", "wall_s": statistics.median(walls),
            "runs_s": walls, "rss_mb": statistics.median(map(float, rss)),
            "scipy_modules": sorted(set(map(int, modules)))}


def rung(path: str, M: int, n_max: int, N: int) -> dict:
    """One rung of a ladder: the config at path with M, n_max and N set, K =
    M (n_max + 1) orbitals and C(K, N) determinants, with the tensor's
    momentum modulus g, the number of pair-momentum blocks of H, and nnz =
    H.nnz.  It times, each the median of call_times with their number kept
    (*_calls):
    - assemble_s, the build of H (assemble_hamiltonian, its two-hole table
      included), with the tracemalloc peak of one more build over the bytes
      the budget predicts (hamiltonian_bytes);
    - matvec_s, one H @ psi on a seeded random unit vector, and apart its
      three stages: put_s, the put of psi into D_2; product_s, Z = W @ D_2;
      gather_s, the gather of Z;
    - advance_s, one ExactPropagator(H).advance(psi, INTERVAL);
    - table_s, the build of DeterminantBasis.holes(1), which one_body and
      rdm_exact read, and two_hole_s, of holes(2, slot), the two-hole table H
      builds in the slots of its pair blocks (PairBlocks.slot).  holes(1) is
      kept once built, so each timed build runs on a basis fresh from
      enumerate_determinants, as does each build of H;
    - rdm_s, rdm_exact."""
    rung_problem = problem(path, {"M": M, "n_max": n_max, "N": N})
    basis, energies, tensor = rung_problem.det_basis, rung_problem.energies, rung_problem.tensor
    fresh = functools.partial(enumerate_determinants, basis.K, N)
    assemble = call_times(lambda det: assemble_hamiltonian(det, energies, tensor), fresh)
    H, peak = traced(lambda: rung_problem.H)
    predicted = hamiltonian_bytes(basis.K, N, tensor.modulus, tensor.anti.itemsize)
    rng = np.random.default_rng(SEED)
    psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi /= np.linalg.norm(psi)
    hbar = rung_problem.config.constants.hbar
    slot = tensor.pair_blocks.slot
    state = ManyBodyState(basis=basis, coefficients=psi)
    return {"M": M, "n_max": n_max, "K": basis.K, "N": N, "g": tensor.modulus,
            "dim": basis.dim, "nnz": H.nnz, **median_calls("assemble", assemble),
            "assemble_peak_mb": peak / 1e6,
            "predicted_mb": predicted / 1e6, "assemble_peak_over_prediction": peak / predicted,
            **median_calls("matvec", call_times(lambda: H @ psi)),
            **median_calls("put", call_times(lambda: H._put(psi))),
            **median_calls("product", call_times(H._product)),
            **median_calls("gather", call_times(H._gather)),
            **median_calls("advance", call_times(
                lambda: ExactPropagator(H, hbar).advance(psi, INTERVAL))),
            **median_calls("table", call_times(lambda det: det.holes(1), fresh)),
            **median_calls("two_hole", call_times(lambda det: det.holes(2, slot), fresh)),
            **median_calls("rdm", call_times(lambda: rdm_exact(state, basis)))}


def orbital_row(base: Problem, changes: dict | None) -> dict:
    """Problem.orbital_set, sampled on the tensor grid, of base, TENSOR_CONFIG
    with changes: the median of call_times of its build on a fresh Problem
    and their number, the tracemalloc peak of the build of base's own, which
    the tensor rows then read, its lattice shells and the bytes of its x1
    profiles."""
    orbitals, peak = traced(lambda: base.orbital_set)
    times = call_times(lambda: Problem(base.config).orbital_set)
    return {"config": TENSOR_CONFIG, "changes": changes, "K": orbitals.size,
            "grid": list(base.config.tensor_grid.shape), "shells": len(orbitals.shells),
            "profiles_mb": orbitals.profiles.nbytes / 1e6,
            "build_s": statistics.median(times), "calls": len(times), "peak_mb": peak / 1e6}


def tensor_variants(table: str) -> list[tuple[dict | None, dict, tuple]]:
    """Each tensor row as (the changes it records, the changes of its
    Problem on TENSOR_CONFIG, the InteractionTensor contractions it times),
    in row order: the config's Gaussian at its sigma, then at each of TENSOR_SIGMAS,
    where more Fourier modes are kept, the zero and the cosine kernel, and
    the Gaussian's pair values read from the .npy file table on the
    TABLE_CHANGES tensor grid, all at K = 30; then the Gaussian with
    WIDE_CHANGES (K = 60) and with HUGE_CHANGES (K = 120), where mean_field
    runs on HUGE_N orbitals."""
    both = ("mean_field", "pair_amplitudes")
    return ([(None, {}, both)]
            + [(None, {"sigma": sigma}, ()) for sigma in TENSOR_SIGMAS]
            + [(None, {"kind": kind}, ()) for kind in ("zero", "separable-cosine")]
            + [(None, {"kind": "tabulated", "path": table, **TABLE_CHANGES}, ())]
            + [(WIDE_CHANGES, WIDE_CHANGES, both),
               (HUGE_CHANGES, {**HUGE_CHANGES, "N": HUGE_N}, ("mean_field",))])


def tensor_row(variant: Problem, orbitals, changes: dict | None, contractions: tuple) -> dict:
    """two_body_tensor(potential, orbitals, grid) of variant's config, timed
    by call_times (tensor_s, calls), with its momentum blocks
    (tensor_factors), modulus g, the number h of the g blocks of F that
    mean_field contracts (fock_blocks: g // 2 + 1, the others mirrored, which
    is g at g <= 2), the bytes of its factor matrix B with its padding column
    (factors_mb, 16 K^2 (w + 1) for the widest block's w columns), the dtype
    of its stored blocks of v and F (tensor_dtype, as Problem.counters has
    it: float64 for a real v) and their bytes, and the tracemalloc peak of
    one more call over the bytes two_body_tensor predicts (tensor_bytes).  Each contraction
    (mean_field, the HF right-hand side's, or pair_amplitudes, the closed-form
    defect's) is then timed by call_times on seeded random orthonormal
    orbitals of the config's N, after one call that builds its plan or the
    pair blocks, whose bytes pair_amplitudes' row keeps (pair_blocks_mb)."""
    config = variant.config
    potential, grid = config.potential, config.tensor_grid
    build = functools.partial(two_body_tensor, potential, orbitals, grid)
    tensor, peak = traced(build)
    K, M = orbitals.size, orbitals.flux_count
    factors = tensor_factors(potential, K, M, grid)
    width = max((len(columns) for _, columns in factors[2]), default=0)
    predicted = tensor_bytes(K, M, grid, *factors)
    times = call_times(build)
    row = {"config": TENSOR_CONFIG, "changes": changes, "kind": potential.kind, "K": K,
           "grid": list(grid.shape), "sigma": potential.sigma, "rank": tensor.rank,
           "blocks": len(factors[2]), "modulus": tensor.modulus,
           "fock_blocks": len(tensor._fock_plan[0]),
           "factors_mb": 16 * K * K * (width + 1) / 1e6 if width else 0.0,
           "tensor_dtype": str(tensor.anti.dtype),
           "stored_mb": (tensor.blocks.nbytes + tensor.anti.nbytes) / 1e6,
           "tensor_s": statistics.median(times), "calls": len(times),
           "peak_mb": peak / 1e6, "predicted_mb": predicted / 1e6,
           "peak_over_prediction": peak / predicted}
    if contractions:
        N, rng = config.N, np.random.default_rng(SEED)
        C = np.linalg.qr(rng.normal(size=(K, N)) + 1j * rng.normal(size=(K, N)))[0]
        row["N"] = N
        for name in contractions:
            contract = getattr(tensor, name)
            contract(C)
            row.update(median_calls(name, call_times(lambda: contract(C))))
        if "pair_amplitudes" in contractions:
            row["pair_blocks_mb"] = tensor.pair_blocks.values.nbytes / 1e6
    return row


def tensor_rows(bases: list[Problem]):
    """tensor_row of each of tensor_variants in turn, on the orbital set of
    the base of its K and tensor grid (an orbital row's), or on its own where
    there is none (the table's)."""
    orbital_sets = {(base.config.single_particle_dim, base.config.tensor_grid): base
                    for base in bases}
    with tempfile.TemporaryDirectory() as out:
        table = pathlib.Path(out, "table.npy")
        gaussian = problem(TENSOR_CONFIG, TABLE_CHANGES).config
        np.save(table, gaussian.potential.pair_values(gaussian.tensor_grid))
        for changes, variant_changes, contractions in tensor_variants(str(table)):
            variant = problem(TENSOR_CONFIG, variant_changes)
            key = (variant.config.single_particle_dim, variant.config.tensor_grid)
            orbitals = orbital_sets.get(key, variant).orbital_set
            yield tensor_row(variant, orbitals, changes, contractions)


def compare_row(path: str) -> dict:
    """`landau-hf compare --threads 1` on path, COMPARE_RUNS fresh processes:
    the manifest's total time of each, their median and quartiles, with its
    counters; no RSS, which would count the pages of this process."""
    totals = []
    for _ in range(COMPARE_RUNS):
        with tempfile.TemporaryDirectory() as out:
            run(cli("compare", ROOT / path, out) + ["--threads", "1"])
            manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
        totals.append(manifest["timings"]["total"])
    quartiles = statistics.quantiles(totals, n=4)
    return {"config": path, "total_s": quartiles[1], "q1_s": quartiles[0],
            "q3_s": quartiles[2], "runs_s": totals, "counters": manifest.get("counters")}


def done(row: dict, *prefix) -> dict:
    """row, printed as it is measured."""
    print(*prefix, json.dumps(row), flush=True)
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args()
    started = time.perf_counter()
    exact = done(exact_row())
    startup = done(startup_row())
    ladders = {kind: {"config": path, "rungs": [done(rung(path, *sizes), kind)
                                                for sizes in LADDER]}
               for kind, path in LADDER_CONFIGS.items()}
    bases = [(changes, problem(TENSOR_CONFIG, changes))
             for changes in (None, WIDE_CHANGES, HUGE_CHANGES)]
    orbital_sets = [done(orbital_row(base, changes)) for changes, base in bases]
    tensors = [done(row) for row in tensor_rows([base for _, base in bases])]
    compare = [done(compare_row(path)) for path in COMPARE_CONFIGS]
    result = {"label": args.label, "machine": machine(), "interval": INTERVAL,
              "repeats": REPEATS, "compare_runs": COMPARE_RUNS, "min_seconds": MIN_SECONDS,
              "ladders": ladders, "orbital_set": orbital_sets, "tensor": tensors,
              "exact": exact, "startup": startup, "compare": compare,
              "wall_s": time.perf_counter() - started}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
