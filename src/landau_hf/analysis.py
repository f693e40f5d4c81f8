"""Quantitative comparison of exact and effective dynamics.

Central objects: the trajectory error ||Psi(t) - u(t)||, the closed-form
a-priori bound (1/hbar) sqrt(N(N-1)) sup|V| t, the a-posteriori bound by the
time integral of the residual ||du/dt - H u / (i hbar)||, and one-body
reduced density matrices in trace norm.  The residual of the effective flow
lives, up to roundoff, entirely on determinants in which exactly two orbitals
are replaced by vectors orthogonal to the occupied span, so its norm has a
closed form in orbital space, evaluated at every integrator step.  At every
recorded sample the residual is also embedded in the determinant basis with
the one-body operator dGamma of the orbital velocity, and split into sectors
by the spectral projectors of the complement number operator: a structural
self-check of that closed form that never lists the C(K, N) rotated wedges.

Problem is the one set-up shared by run_comparison and the command line:
noninteracting ground state, basis, tensor, determinant space, H, its
propagator and the initial orbitals, each built on first use, so the
effective flow alone never lists the determinant space and the ground state
alone builds no orbital.  Problem.counters reports the sizes of what was
built for manifest.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .basis import GRAM_TOL, build_orbital_set, landau_level
from .config import PhysicalConstants, SimulationConfig
from .errors import (DimensionMismatch, NotHermitian, NotOrthonormal,
                     SupportViolation)
from .hartree_fock import (HFState, hf_energy, hf_rhs, hf_steps, is_sample,
                           time_grid)
from .manybody import (DeterminantBasis, ExactPropagator, FillingSpec,
                       InteractionTensor, ManyBodyState, assemble_hamiltonian,
                       embed_slater, embed_wedge, enumerate_determinants,
                       noninteracting_ground_state, two_body_tensor)

BOUND_SLACK = 1e-7
SECTOR_TOL = 1e-8
HERM_TOL = 1e-8


@dataclass(frozen=True)
class ComparisonRecord:
    """One sampled instant of the exact-vs-effective comparison."""

    t: float
    error_norm: float
    apriori_bound: float
    defect_bound: float
    energy_exact: float
    energy_hf: float
    rdm_trace_dist: float

    def within_bounds(self) -> bool:
        """Error below the a-priori bound, the integrated defect and the
        triangle ceiling 2."""
        return (self.error_norm <= self.apriori_bound + BOUND_SLACK
                and self.error_norm <= self.defect_bound + BOUND_SLACK
                and self.error_norm <= 2.0 + 1e-12)


CSV_HEADER = ",".join(f.name for f in fields(ComparisonRecord))


def apriori_bound(N: int, v_norm: float, constants: PhysicalConstants,
                  t: float) -> float:
    """(1/hbar) sqrt(N (N-1)) sup|V| t."""
    return math.sqrt(N * (N - 1)) * v_norm * t / constants.hbar


def error_norm(exact: ManyBodyState, hf: HFState,
               basis: DeterminantBasis) -> float:
    """l2 distance between the exact coefficients and the embedded state."""
    if exact.coefficients.shape[0] != basis.dim:
        raise DimensionMismatch("exact state does not match the basis")
    embedded = hf.a * embed_wedge(hf.orbitals, basis)
    return float(np.linalg.norm(exact.coefficients - embedded))


def defect_vector(state: HFState, H, basis: DeterminantBasis,
                  energies: np.ndarray, tensor: InteractionTensor,
                  constants: PhysicalConstants) -> np.ndarray:
    """du/dt - H u / (i hbar) embedded in the determinant basis, with
    du/dt = da w + a dGamma(dphi C^+) w and w the wedge of the orbitals C:
    dGamma(X) replaces each column c_l by X c_l in turn, and C^+ C = 1 for
    any full-rank C, so column l becomes dphi_l."""
    da, dphi = hf_rhs(state, energies, tensor, constants)
    C = state.orbitals
    w = embed_wedge(C, basis)
    udot = da * w + state.a * (basis.one_body(dphi @ np.linalg.pinv(C)) @ w)
    return udot - (H @ (state.a * w)) / (1j * constants.hbar)


def defect_sector_norms(defect: np.ndarray, orbitals: np.ndarray,
                        basis: DeterminantBasis) -> np.ndarray:
    """Norm of the defect in each replacement sector 0..N.

    Sector j, wedges of j vectors orthogonal to the orbitals with N-j of
    their span, is the eigenspace j of the complement number operator
    n_c = dGamma(1 - Q Q^H), Q an orthonormal basis of the span, and has the
    projector prod_{k != j} (n_c - k) / (j - k) over k = 0..N.
    """
    Q = np.linalg.qr(orbitals)[0]
    n_c = basis.one_body(np.eye(basis.K) - Q @ Q.conj().T)
    norms = np.zeros(basis.N + 1)
    for j in range(basis.N + 1):
        vec = defect
        for k in range(basis.N + 1):
            if k != j:
                vec = (n_c @ vec - k * vec) / (j - k)
        norms[j] = np.linalg.norm(vec)
    return norms


def defect_norm(state: HFState, tensor: InteractionTensor,
                constants: PhysicalConstants) -> float:
    """||du/dt - H u/(i hbar)|| = |a|/hbar sqrt(1/4 sum_ijab |<ab||ij>|^2),
    i, j over the orbitals and a, b over the complement of their span, by
    sequential contractions in O(K^4 N)."""
    C = state.orbitals
    K, N = C.shape
    comp = np.eye(K) - C @ C.conj().T                  # projector onto the complement
    vC = (tensor.pair.reshape(-1, K) @ C).reshape(K, K, K, N).transpose(0, 2, 1, 3)
    g = np.tensordot(vC, C, axes=(2, 0)).swapaxes(2, 3)          # <pq|V|ij>
    g = g - g.swapaxes(2, 3)                                     # <pq||ij>
    g = np.tensordot(comp, np.tensordot(comp, g, axes=(1, 1)), axes=(1, 1))
    return abs(state.a) / constants.hbar * 0.5 * float(np.linalg.norm(g))


def check_defect_support(state: HFState, d: float, H, basis: DeterminantBasis,
                         energies: np.ndarray, tensor: InteractionTensor,
                         constants: PhysicalConstants) -> tuple[float, float]:
    """Embedded oracle of the closed-form defect d at one state: the norm of
    the residual outside the two-replacement sector and its distance from d.
    Raises SupportViolation if either exceeds SECTOR_TOL."""
    vec = defect_vector(state, H, basis, energies, tensor, constants)
    norm = float(np.linalg.norm(vec))
    sectors = defect_sector_norms(vec, state.orbitals, basis)
    leak = float(np.linalg.norm(np.delete(sectors, 2))) if basis.N >= 2 else norm
    if leak > SECTOR_TOL:
        raise SupportViolation(
            f"defect leaks {leak:.3e} outside the two-replacement sector at "
            f"t = {state.time} (sector norms {sectors})")
    dev = abs(norm - d)
    if dev > SECTOR_TOL:
        raise SupportViolation(
            f"closed-form defect {d!r} is {dev:.3e} from the embedded one at "
            f"t = {state.time}")
    return leak, dev


def rdm_exact(state: ManyBodyState, basis: DeterminantBasis) -> np.ndarray:
    """One-body reduced density matrix, trace N: omega[p, p] sums |c_i|^2
    over the determinants occupying p, omega[p, q] sign * conj(c_j) c_i over
    the replacements p -> q; real and imaginary parts are each one bincount
    over the flat index p K + q."""
    c, occ, K = state.coefficients, basis.occupations, basis.K
    i, j, p, q, sign = basis.singles
    off = sign * np.conj(c[j]) * c[i]
    pq = p * K + q
    diag = np.repeat(np.abs(c) ** 2, basis.N)
    omega = np.empty(K * K, dtype=np.complex128)
    omega.real = np.bincount(np.concatenate([(occ * (K + 1)).ravel(), pq]),
                             np.concatenate([diag, off.real]), K * K)
    omega.imag = np.bincount(pq, off.imag, K * K)
    return omega.reshape(K, K)


def rdm_slater(state: HFState) -> np.ndarray:
    """Rank-N projection onto the occupied orbital span."""
    C = state.orbitals
    return C @ C.conj().T


def trace_norm_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of absolute eigenvalues of (a - b) for Hermitian a, b."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} vs {b.shape}")
    for name, mat in (("a", a), ("b", b)):
        dev = float(np.max(np.abs(mat - mat.conj().T)))
        if dev > HERM_TOL:
            raise NotHermitian(f"matrix {name} deviates from Hermitian by {dev:.3e}")
    return float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


@dataclass(frozen=True)
class ScalingConfig:
    """Mean-field/semiclassical rescaling hbar -> hbar/sqrt(N), V -> V/N."""

    N: int
    hbar: float
    hbar_eff: float
    v_scale: float

    def rescaled_bound(self, v_norm: float, t: float) -> float:
        """Bound of the rescaled system; collapses to
        (1/hbar) sqrt(N-1) sup|V| t."""
        return (math.sqrt(self.N * (self.N - 1)) * (self.v_scale * v_norm) * t
                / self.hbar_eff)


def rescale_mean_field(config: SimulationConfig) -> ScalingConfig:
    N = config.N
    hbar = config.constants.hbar
    return ScalingConfig(N=N, hbar=hbar, hbar_eff=hbar / math.sqrt(N),
                         v_scale=1.0 / N)


@dataclass
class ComparisonResult:
    records: list
    summary: dict
    counters: dict


class Problem:
    """The set-up of one run for every compute subcommand and run_comparison,
    each piece built on first use and kept; ground_state builds no orbital."""

    def __init__(self, config: SimulationConfig, threads: int = 1):
        self.config = config
        self.threads = threads

    @cached_property
    def orbital_set(self):
        return build_orbital_set(self.config, grid=self.config.tensor_grid)

    @property
    def energies(self) -> np.ndarray:
        return self.orbital_set.energies

    @cached_property
    def tensor(self) -> InteractionTensor:
        return two_body_tensor(self.config.potential, self.orbital_set,
                               self.config.tensor_grid, threads=self.threads)

    @cached_property
    def det_basis(self) -> DeterminantBasis:
        return enumerate_determinants(self.orbital_set.size, self.config.N)

    @cached_property
    def H(self):
        return assemble_hamiltonian(self.det_basis, self.energies, self.tensor)

    @cached_property
    def propagator(self) -> ExactPropagator:
        return ExactPropagator(self.H, self.config.constants.hbar)

    def counters(self) -> dict:
        """K and N, then what was built: dim, nnz(H), the tensor's rank and
        the fraction of its entries the selection rule keeps, and the
        propagator's matvecs.  Read from the built pieces; nothing is timed."""
        built = vars(self)
        out = {"K": self.config.single_particle_dim, "N": self.config.N}
        if "det_basis" in built:
            out["dim"] = self.det_basis.dim
        if "H" in built:
            out["nnz"] = self.H.nnz
        if "tensor" in built:
            out["tensor_rank"] = self.tensor.rank
            out["tensor_rule_kept"] = self.tensor.rule_kept
        if "propagator" in built:
            out["matvecs"] = self.propagator.matvecs
        return out

    @cached_property
    def ground_state(self) -> tuple[FillingSpec, float, list]:
        """(filling, E0, occupation sets) of the noninteracting ground state,
        from the level energies alone: no orbital is built."""
        config = self.config
        filling = FillingSpec.from_counts(config.N, config.domain.M)
        levels = [landau_level(n, config.constants) for n in range(config.n_max + 1)]
        return (filling, *noninteracting_ground_state(filling, levels))

    @cached_property
    def initial_orbitals(self) -> np.ndarray:
        """Unit columns on the first noninteracting ground-state occupation."""
        sets = self.ground_state[2]
        C = np.zeros((self.config.single_particle_dim, self.config.N), dtype=np.complex128)
        C[list(sets[0]), range(self.config.N)] = 1.0
        return C

    def initial_state(self, orbitals: np.ndarray | None = None) -> HFState:
        """HF state at t = 0 on the given (K, N) orbitals, the initial
        orbitals by default, checked orthonormal to GRAM_TOL."""
        C = self.initial_orbitals if orbitals is None else orbitals
        shape = (self.config.single_particle_dim, self.config.N)
        if C.shape != shape:
            raise DimensionMismatch(f"initial orbitals have shape {C.shape}, "
                                    f"expected {shape}")
        state = HFState(time=0.0, a=1.0 + 0.0j, orbitals=C)
        dev = state.gram_deviation()
        if not dev <= GRAM_TOL:        # NaN fails too
            raise NotOrthonormal(f"initial orbital Gram deviates by {dev:.3e}")
        return state

    def exact_samples(self):
        """(t, psi) at time_grid's samples (is_sample): the determinant of the
        initial orbitals under exp(-i H t / hbar), advanced from sample to
        sample."""
        config = self.config
        psi = embed_slater(1.0, self.initial_orbitals, self.det_basis).coefficients
        dt, n_steps = time_grid(config.dt, config.t_final)
        t_prev = 0.0
        for step in range(n_steps + 1):
            if is_sample(step, n_steps, config.sample_stride):
                t = step * dt
                psi = self.propagator.advance(psi, t - t_prev)
                t_prev = t
                yield t, psi


def run_comparison(config: SimulationConfig, threads: int = 1) -> ComparisonResult:
    """Evolve the same initial determinant exactly and effectively, sampling
    error norms, both bounds, energies, and the reduced-density distance.

    One pass over hf_steps adds the closed-form defect of every step to a
    trapezoid integral, whose discretization error stays well below the
    bound slack.  At each sample the state passes check_defect_support and
    meets the next state of Problem.exact_samples in a record.  A record
    that breaks a bound is kept and counted in the summary's
    bound_violations.
    """
    problem = Problem(config, threads)
    energies, tensor, constants = problem.energies, problem.tensor, config.constants
    det_basis, H = problem.det_basis, problem.H
    hf0 = problem.initial_state()
    v_norm = tensor.sup_norm
    n_steps = time_grid(config.dt, config.t_final)[1]
    exact = problem.exact_samples()

    records, checks = [], []
    defect_bound = max_gram = max_phase = 0.0
    for step, state in hf_steps(hf0, config.dt, config.t_final, config.integrator,
                                tensor, energies, constants):
        d = defect_norm(state, tensor, constants)
        if step:
            defect_bound += 0.5 * (state.time - t_prev) * (d_prev + d)
        t_prev, d_prev = state.time, d
        if not is_sample(step, n_steps, config.sample_stride):
            continue
        checks.append(check_defect_support(state, d, H, det_basis, energies,
                                           tensor, constants))
        max_gram = max(max_gram, state.gram_deviation())
        max_phase = max(max_phase, abs(abs(state.a) - 1.0))
        psi = next(exact)[1]
        psi_state = ManyBodyState(basis=det_basis, coefficients=psi)
        records.append(ComparisonRecord(
            t=state.time,
            error_norm=error_norm(psi_state, state, det_basis),
            apriori_bound=apriori_bound(config.N, v_norm, constants, state.time),
            defect_bound=defect_bound,
            energy_exact=float(np.real(np.vdot(psi, H @ psi))),
            energy_hf=hf_energy(state, energies, tensor),
            rdm_trace_dist=trace_norm_diff(rdm_exact(psi_state, det_basis),
                                           rdm_slater(state)),
        ))

    ratios = [r.error_norm / r.apriori_bound for r in records if r.apriori_bound > 0]
    summary = {
        "N": config.N,
        "K": det_basis.K,
        "v_sup_norm": v_norm,
        "hbar": constants.hbar,
        "samples": len(records),
        "max_error": max(r.error_norm for r in records),
        "max_error_over_apriori": max(ratios) if ratios else 0.0,
        "max_error_over_defect": max(
            (r.error_norm / r.defect_bound for r in records if r.defect_bound > 0),
            default=0.0),
        "bound_violations": sum(1 for r in records if not r.within_bounds()),
        "final_energy_drift_exact": abs(records[-1].energy_exact
                                        - records[0].energy_exact),
        "final_energy_drift_hf": abs(records[-1].energy_hf
                                     - records[0].energy_hf),
        "initial_energy": records[0].energy_hf,
        "max_sector_leak": max(leak for leak, _ in checks),
        "max_defect_closed_form_dev": max(dev for _, dev in checks),
        "max_gram_deviation": max_gram,
        "max_phase_deviation": max_phase,
        "tensor_symmetry_deviation": tensor.symmetry_deviation,
    }
    return ComparisonResult(records=records, summary=summary, counters=problem.counters())
