"""The benchmark's workloads.

Each workload makes its inputs from a seed, sets the problem up, runs it and
checks the outputs after the timed region.  Calls into landau_hf go through
the module attribute (``manybody.assemble_hamiltonian``, not a name imported
here) so that the tracer's rebinding sees them.

Why these two: the defect analysis leads ``compare_k9n3`` and is absent
from ``hf_k30n10``.  The HF right-hand side dominates the run of
``hf_k30n10`` and comes after the tensor in ``compare_k9n3``; it is bound by
the K^4 contraction in one and by Python overhead in the other, so a rewrite
that helps one size and hurts the other shows.  Every layer runs in
``compare_k9n3``.  An exact-path workload (assembly, propagator, RDM) could
not be timed steadily; README.md says why.

Both runs are short (30 and 2 time steps), so that a run of the benchmark
makes dozens of passes; README.md says why.

* ``compare_k9n3``: the paper's headline run, ``landau-hf compare``.  The
  a-posteriori defect with its sector check leads; the tensor (set-up) and
  the HF right-hand side come next.
* ``hf_k30n10``: the HF flow alone at a size whose determinant space,
  C(30, 10) = 3.0e7, cannot be listed.  Set-up is the tensor; the run is the
  right-hand side, bound by the K^4 contraction rather than by Python
  overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import scipy.sparse.linalg

from landau_hf import analysis, basis, cli, config, hartree_fock, manybody

# Tolerances of the correctness gate.  Values are absolute unless noted.
PHASE_TOL = 1e-9           # ||a| - 1|
ENERGY_RTOL = 1e-9         # energy drift relative to max(1, |E0|)
GRAM_TOL = 1e-9            # max |C^H C - I| along the HF trajectory
PROJECTOR_TOL = 1e-9       # max |P - P_ref| of the final occupied projector
REFERENCE_RTOL = 1e-9      # compare summary against recorded values
NORM_TOL = 1e-9            # ||psi| - 1| of the exact state
RDM_TOL = 1e-9             # max |R - R^H| and |tr R - N| of each exact RDM
STATE_TOL = 1e-9           # max |psi - psi_ref| against expm_multiply

# Step and sample stride of the generated configs (those of configs/example.cfg).
DT = 1e-3
SAMPLE_STRIDE = 10
# Time of one evolve_exact call in exact_k12n4.
EXACT_STEP = 0.1


def config_text(M: int, n_max: int, N: int, kind: str, strength: float,
                t_final: float = 1.0) -> str:
    """A landau-hf config: configs/example.cfg with the problem size and
    kernel replaced."""
    return f"""\
[domain]
L1 = 6.283185307179586
L2 = 6.283185307179586
M = {M}

[basis]
n_max = {n_max}
grid1 = 128
grid2 = 128
tensor_grid1 = 64
tensor_grid2 = 64
lattice_cut = 0

[dynamics]
N = {N}
dt = {DT!r}
t_final = {t_final!r}
integrator = rk4
sample_stride = {SAMPLE_STRIDE}

[potential]
kind = {kind}
strength = {strength!r}
harmonic1 = 1
harmonic2 = 1
"""


def random_orbitals(seed: int, K: int, N: int) -> np.ndarray:
    """Orthonormal (K, N) columns from a seeded complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((K, N)) + 1j * rng.standard_normal((K, N))
    Q, _ = np.linalg.qr(A)
    return Q


def sample_count(steps: int) -> int:
    """Samples of a run of ``steps`` steps: the start, every SAMPLE_STRIDE-th
    step and the last step."""
    return math.ceil(steps / SAMPLE_STRIDE) + 1


def add_check(checks: list, name: str, ok: bool, detail) -> None:
    checks.append((name, bool(ok), detail))


def array_bytes(arrays) -> bytes:
    """Bytes of every output array, for bit-for-bit comparison."""
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


@dataclass(frozen=True)
class CompareWorkload:
    """``landau-hf compare`` run in-process through ``cli.dispatch``.

    The CLI always starts from the non-interacting ground state, so the seed
    is unused.  Set-up runs inside the CLI and is timed by boundary timers.
    """

    name: str
    why: str
    M: int
    n_max: int
    N: int
    t_final: float
    reference: dict | None = None
    setup_in_run = True
    # kinds of work its passes do (calibration.py): interpreter-bound
    # analysis over small arrays, and the tensor contractions of the HF RHS
    calibration = ("interpreter", "small_arrays", "contraction")

    def small(self):
        return replace(self, M=2, n_max=1, N=2, t_final=0.02, reference=None)

    def inputs(self, seed: int, out_dir: str) -> dict:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{self.name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config_text(self.M, self.n_max, self.N, "periodic-gaussian",
                                 0.2, t_final=self.t_final))
        return {"config": path, "out_dir": os.path.join(out_dir, self.name)}

    def setup(self, inputs: dict, threads: int):
        return None

    def run(self, inputs: dict, state, threads: int) -> dict:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.dispatch(["compare", "--config", inputs["config"],
                               "--out-dir", inputs["out_dir"],
                               "--threads", str(threads)])
        return {"rc": rc, "stdout": stdout.getvalue()}

    def collect(self, inputs: dict, raw: dict) -> dict:
        out = dict(raw)
        for name in ("compare_timeseries.csv", "compare_summary.json"):
            with open(os.path.join(inputs["out_dir"], name), "rb") as fh:
                out[name] = fh.read()
        return out

    def fingerprint(self, out: dict) -> bytes:
        return (str(out["rc"]).encode() + out["stdout"].encode()
                + out["compare_timeseries.csv"] + out["compare_summary.json"])

    def counters_expected(self) -> dict:
        return {"manybody.dim": math.comb((self.n_max + 1) * self.M, self.N)}

    def check(self, inputs: dict, state, out: dict) -> list:
        checks = []
        add_check(checks, "exit_code", out["rc"] == 0, out["rc"])
        summary = json.loads(out["compare_summary.json"])
        add_check(checks, "bound_violations", summary["bound_violations"] == 0,
                  summary["bound_violations"])
        slack = analysis.BOUND_SLACK
        lines = out["compare_timeseries.csv"].decode().splitlines()
        header = lines[0].split(",")
        col = {name: i for i, name in enumerate(header)}
        for line in lines[1:]:
            row = [float(x) for x in line.split(",")]
            err, defect, apriori = (row[col["error_norm"]], row[col["defect_bound"]],
                                    row[col["apriori_bound"]])
            add_check(checks, f"row_t={row[col['t']]:.3f}",
                      err <= defect + slack and defect <= apriori + slack,
                      [err, defect, apriori])
        add_check(checks, "samples",
                  len(lines) - 1 == sample_count(round(self.t_final / DT)), len(lines) - 1)
        for key, value in (self.reference or {}).items():
            add_check(checks, f"reference_{key}",
                      abs(summary[key] - value) <= REFERENCE_RTOL * abs(value),
                      [summary[key], value])
        return checks


def hf_reference(a0: complex, C0: np.ndarray, v: np.ndarray, energies: np.ndarray,
                 hbar: float, dt: float, n_steps: int) -> tuple[complex, np.ndarray]:
    """Classical RK4 on the HF flow in Fock form, as an independent oracle.

    With the full density rho = C C^H the direct and exchange self-terms
    cancel, so eta = (J[rho] - X[rho]) C equals the per-orbital sum over the
    other orbitals, and i hbar da/dt = -W a with W = Re<C, eta> / 2.
    """
    e = np.asarray(energies)[:, None]

    def rhs(a, C):
        rho = C @ C.conj().T
        J = np.einsum("abgd,db->ag", v, rho)
        X = np.einsum("abgd,gb->ad", v, rho)
        eta = (J - X) @ C
        W = 0.5 * float(np.real(np.vdot(C, eta)))
        return (1j * W / hbar) * a, (e * C + eta) / (1j * hbar)

    a, C = complex(a0), C0.astype(np.complex128)
    for _ in range(n_steps):
        k1a, k1C = rhs(a, C)
        k2a, k2C = rhs(a + 0.5 * dt * k1a, C + 0.5 * dt * k1C)
        k3a, k3C = rhs(a + 0.5 * dt * k2a, C + 0.5 * dt * k2C)
        k4a, k4C = rhs(a + dt * k3a, C + dt * k3C)
        a = a + dt / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a)
        C = C + dt / 6.0 * (k1C + 2 * k2C + 2 * k3C + k4C)
    return a, C


@dataclass(frozen=True)
class HFWorkload:
    """The effective flow alone, from seeded random orthonormal orbitals.

    Set-up is basis and tensor; the run is ``integrate_hf`` over ``steps``
    RK4 steps.  The CLI cannot run this size (``evolve-hf`` assembles an H
    it never uses), so the workload enters through the library.
    """

    name: str
    why: str
    M: int
    n_max: int
    N: int
    steps: int = 2
    setup_in_run = False
    # the tensor's set-up sums 89 outer products into a 13 MB array
    calibration = ("interpreter", "small_arrays", "contraction", "outer_sum")

    def small(self):
        return replace(self, M=2, n_max=2, N=3, steps=10)

    def inputs(self, seed: int, out_dir: str) -> dict:
        cfg = config.parse_config(config_text(self.M, self.n_max, self.N,
                                              "periodic-gaussian", 0.2))
        return {"config": cfg,
                "orbitals": random_orbitals(seed, cfg.single_particle_dim, self.N)}

    def setup(self, inputs: dict, threads: int):
        cfg = inputs["config"]
        oset = basis.build_orbital_set(cfg, grid=cfg.tensor_grid)
        tensor = manybody.two_body_tensor(cfg.potential, oset, cfg.tensor_grid,
                                          threads=threads)
        initial = hartree_fock.HFState(time=0.0, a=1.0 + 0.0j,
                                       orbitals=inputs["orbitals"])
        return SimpleNamespace(energies=oset.energies, tensor=tensor, initial=initial)

    def run(self, inputs: dict, state, threads: int):
        cfg = inputs["config"]
        return hartree_fock.integrate_hf(
            state.initial, DT, self.steps * DT, "rk4", state.tensor,
            state.energies, cfg.constants, sample_stride=SAMPLE_STRIDE)

    def collect(self, inputs: dict, raw) -> dict:
        return {"trajectory": raw}

    def fingerprint(self, out: dict) -> bytes:
        traj = out["trajectory"]
        return array_bytes([traj.times, traj.energies, traj.norms, traj.gram_devs]
                           + [np.array([s.a]) for s in traj.states]
                           + [s.orbitals for s in traj.states])

    def counters_expected(self) -> dict:
        return {"hartree_fock.steps": self.steps}

    def check(self, inputs: dict, state, out: dict) -> list:
        checks = []
        traj = out["trajectory"]
        e0 = float(traj.energies[0])
        drift = float(np.max(np.abs(traj.energies - e0)))
        add_check(checks, "energy_drift", drift <= ENERGY_RTOL * max(1.0, abs(e0)), drift)
        gram = float(np.max(traj.gram_devs))
        add_check(checks, "gram_deviation", gram <= GRAM_TOL, gram)
        phase = float(np.max(np.abs(traj.norms - 1.0)))
        add_check(checks, "phase_modulus", phase <= PHASE_TOL, phase)
        add_check(checks, "samples", len(traj.times) == sample_count(self.steps),
                  len(traj.times))

        final = traj.states[-1]
        a_ref, C_ref = hf_reference(state.initial.a, state.initial.orbitals,
                                    state.tensor.values, state.energies,
                                    inputs["config"].constants.hbar,
                                    DT, self.steps)
        P = final.orbitals @ final.orbitals.conj().T
        P_ref = C_ref @ C_ref.conj().T
        dev = float(np.max(np.abs(P - P_ref)))
        add_check(checks, "final_projector", dev <= PROJECTOR_TOL, dev)
        add_check(checks, "final_phase", abs(final.a - a_ref) <= PROJECTOR_TOL,
                  abs(final.a - a_ref))
        return checks


@dataclass(frozen=True)
class ExactWorkload:
    """The exact many-body path alone, from a seeded random determinant.

    Set-up is basis, tensor, enumeration, assembly and the initial state; the
    run is ``steps`` calls of ``evolve_exact`` over EXACT_STEP each, with
    ``rdm_exact`` after each.  The dimension stays below the dense cut-off,
    so every step diagonalises H.
    """

    name: str
    why: str
    M: int
    n_max: int
    N: int
    steps: int = 3
    setup_in_run = False
    # assembly and the RDM are interpreter loops; propagation is dense algebra
    calibration = ("interpreter", "small_arrays", "contraction")

    def small(self):
        return replace(self, M=2, n_max=1, N=2, steps=2)

    def inputs(self, seed: int, out_dir: str) -> dict:
        cfg = config.parse_config(config_text(self.M, self.n_max, self.N,
                                              "separable-cosine", 0.2))
        return {"config": cfg,
                "orbitals": random_orbitals(seed, cfg.single_particle_dim, self.N)}

    def setup(self, inputs: dict, threads: int):
        cfg = inputs["config"]
        oset = basis.build_orbital_set(cfg, grid=cfg.tensor_grid)
        tensor = manybody.two_body_tensor(cfg.potential, oset, cfg.tensor_grid,
                                          threads=threads)
        det = manybody.enumerate_determinants(oset.size, self.N)
        H = manybody.assemble_hamiltonian(det, oset.energies, tensor)
        initial = manybody.embed_slater(1.0, inputs["orbitals"], det)
        return SimpleNamespace(det=det, H=H, initial=initial)

    def run(self, inputs: dict, state, threads: int) -> list:
        constants = inputs["config"].constants
        psi, steps = state.initial, []
        for _ in range(self.steps):
            psi = manybody.evolve_exact(psi, state.H, EXACT_STEP, constants)
            steps.append((psi.coefficients, analysis.rdm_exact(psi, state.det)))
        return steps

    def collect(self, inputs: dict, raw) -> dict:
        return {"steps": raw}

    def fingerprint(self, out: dict) -> bytes:
        return array_bytes([a for step in out["steps"] for a in step])

    def counters_expected(self) -> dict:
        return {"manybody.dim": math.comb((self.n_max + 1) * self.M, self.N),
                "manybody.propagate_calls": self.steps,
                "analysis.rdm_calls": self.steps}

    def check(self, inputs: dict, state, out: dict) -> list:
        checks = []
        H, psi0 = state.H, state.initial.coefficients
        hbar = inputs["config"].constants.hbar
        e0 = float(np.real(np.vdot(psi0, H @ psi0)))
        for i, (psi, rdm) in enumerate(out["steps"], start=1):
            norm = abs(float(np.linalg.norm(psi)) - 1.0)
            add_check(checks, f"norm_{i}", norm <= NORM_TOL, norm)
            drift = abs(float(np.real(np.vdot(psi, H @ psi))) - e0)
            add_check(checks, f"energy_{i}", drift <= ENERGY_RTOL * max(1.0, abs(e0)),
                      drift)
            herm = float(np.max(np.abs(rdm - rdm.conj().T)))
            add_check(checks, f"rdm_hermitian_{i}", herm <= RDM_TOL, herm)
            trace = abs(complex(np.trace(rdm)) - self.N)
            add_check(checks, f"rdm_trace_{i}", trace <= RDM_TOL, trace)
        t_final = self.steps * EXACT_STEP
        ref = scipy.sparse.linalg.expm_multiply(-1j * t_final / hbar * H, psi0)
        dev = float(np.max(np.abs(out["steps"][-1][0] - ref)))
        add_check(checks, "final_state", dev <= STATE_TOL, dev)
        return checks


WORKLOADS = {w.name: w for w in (
    CompareWorkload(
        "compare_k9n3",
        "landau-hf compare at K=9, N=3, 30 steps: the paper's exact-vs-effective "
        "run; defect/sector analysis leads, then tensor and HF RHS",
        M=3, n_max=2, N=3, t_final=0.1,
        # summary values of this run, recorded from the initial implementation
        reference={"max_error": 0.003953802919493183,
                   "initial_energy": 0.8984318670351931}),
    HFWorkload(
        "hf_k30n10",
        "HF flow alone at K=30, N=10: tensor set-up, then an RHS bound by the "
        "K^4 contraction; determinant space too large to list",
        M=6, n_max=4, N=10),
    ExactWorkload(
        "exact_k12n4",
        "exact many-body path at K=12, N=4, dim 495: assembly, dense propagation "
        "and the RDM; no HF flow, rank-1 tensor",
        M=3, n_max=3, N=4),
)}
