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
from functools import cache, cached_property

import numpy as np

from .basis import GRAM_TOL, build_orbital_set, landau_level
from .config import PhysicalConstants, SimulationConfig
from .errors import (DimensionMismatch, NotHermitian, NotOrthonormal,
                     SupportViolation)
from .hartree_fock import (HFState, hf_energy, hf_rhs, hf_steps, sample_steps,
                           time_grid)
from .manybody import (DeterminantBasis, ExactPropagator, FillingSpec,
                       InteractionTensor, ManyBodyState, assemble_hamiltonian,
                       embed_wedge, enumerate_determinants,
                       noninteracting_ground_state, tensor_factors, two_body_tensor)

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
               basis: DeterminantBasis, wedge: np.ndarray | None = None) -> float:
    """l2 distance between the exact coefficients and the embedded state;
    wedge, if given, is embed_wedge(hf.orbitals, basis), made by the caller."""
    if exact.coefficients.shape[0] != basis.dim:
        raise DimensionMismatch("exact state does not match the basis")
    if wedge is None:
        wedge = embed_wedge(hf.orbitals, basis)
    embedded = hf.a * wedge
    return float(np.linalg.norm(exact.coefficients - embedded))


def defect_vector(state: HFState, H, basis: DeterminantBasis,
                  energies: np.ndarray, tensor: InteractionTensor,
                  constants: PhysicalConstants, wedge: np.ndarray | None = None) -> np.ndarray:
    """du/dt - H u / (i hbar) embedded in the determinant basis, with
    du/dt = da w + a dGamma(dphi C^+) w and w the wedge of the orbitals C
    (embed_wedge, unless the caller gives it as wedge): dGamma(X) replaces
    each column c_l by X c_l in turn, and C^+ C = 1 for any full-rank C, so
    column l becomes dphi_l."""
    da, dphi = hf_rhs(state, energies, tensor, constants)
    C = state.orbitals
    w = embed_wedge(C, basis) if wedge is None else wedge
    udot = da * w + state.a * basis.one_body(dphi @ np.linalg.pinv(C), w)
    return udot - (H @ (state.a * w)) / (1j * constants.hbar)


def defect_sector_norms(defect: np.ndarray, orbitals: np.ndarray,
                        basis: DeterminantBasis) -> np.ndarray:
    """Norm of the defect in each replacement sector 0..N.

    Sector j, wedges of j vectors orthogonal to the orbitals with N-j of
    their span, is the eigenspace j of the complement number operator
    n_c = dGamma(1 - Q Q^H), Q an orthonormal basis of the span, and has the
    projector prod_{k != j} (n_c - k) / (j - k) over k = 0..N.  Each
    projector is a polynomial of degree N in s = n_c - N/2, whose spectrum
    -N/2..N/2 keeps the powers small: the N powers s^m v are formed once,
    and sector j is sum_m c_jm s^m v, where sum_m c_jm (k - N/2)^m = [j = k]
    makes c the transposed inverse of the levels' Vandermonde matrix
    (_sector_coefficients, made once per N).
    """
    Q = np.linalg.qr(orbitals)[0]
    complement = np.eye(basis.K) - Q @ Q.conj().T
    shift = basis.N / 2
    powers = [defect]
    for _ in range(basis.N):
        powers.append(basis.one_body(complement, powers[-1]) - shift * powers[-1])
    return np.linalg.norm(_sector_coefficients(basis.N) @ np.array(powers), axis=1)


@cache
def _sector_coefficients(N: int) -> np.ndarray:
    """c of defect_sector_norms, read-only: the transposed inverse of the
    Vandermonde matrix of the levels k - N/2, k = 0..N."""
    levels = np.arange(N + 1) - N / 2
    coefficients = np.linalg.inv(np.vander(levels, increasing=True)).T
    coefficients.flags.writeable = False
    return coefficients


def defect_norm(state: HFState, tensor: InteractionTensor,
                constants: PhysicalConstants) -> float:
    """||du/dt - H u/(i hbar)|| = |a|/hbar sqrt(1/4 sum_ijab |<ab||ij>|^2),
    i, j over the orbitals and a, b over the complement of their span: the
    amplitudes <pq||ij> (InteractionTensor.pair_amplitudes) with p and q
    projected on the complement, one product on (K, K N^2) each, and the sum
    of squares one vdot."""
    C = state.orbitals
    K, N = C.shape
    comp = np.eye(K) - C @ C.conj().T                  # projector onto the complement
    g = comp @ tensor.pair_amplitudes(C).reshape(K, K * N * N)              # [p, q, ij]
    g = comp @ g.reshape(K, K, N * N).swapaxes(0, 1).reshape(K, K * N * N)   # [q, p, ij]
    return abs(state.a) / constants.hbar * 0.5 * math.sqrt(np.vdot(g, g).real)


def check_defect_support(state: HFState, d: float, H, basis: DeterminantBasis,
                         energies: np.ndarray, tensor: InteractionTensor,
                         constants: PhysicalConstants,
                         wedge: np.ndarray | None = None) -> tuple[float, float]:
    """Embedded oracle of the closed-form defect d at one state: the norm of
    the residual outside the two-replacement sector and its distance from d.
    Raises SupportViolation if either exceeds SECTOR_TOL times max(1, the
    embedded defect's norm): both are rounding of that norm's size at any
    kernel strength.  wedge is handed to defect_vector."""
    vec = defect_vector(state, H, basis, energies, tensor, constants, wedge)
    norm = float(np.linalg.norm(vec))
    sectors = defect_sector_norms(vec, state.orbitals, basis)
    leak = float(np.linalg.norm(np.delete(sectors, 2))) if basis.N >= 2 else norm
    tol = SECTOR_TOL * max(1.0, norm)
    if leak > tol:
        raise SupportViolation(
            f"defect leaks {leak:.3e} outside the two-replacement sector at "
            f"t = {state.time} (sector norms {sectors})")
    dev = abs(norm - d)
    if dev > tol:
        raise SupportViolation(
            f"closed-form defect {d!r} is {dev:.3e} from the embedded one at "
            f"t = {state.time}")
    return leak, dev


def rdm_exact(state: ManyBodyState, basis: DeterminantBasis) -> np.ndarray:
    """One-body reduced density matrix, trace N: omega[p, q] =
    <psi| a+_q a_p |psi> = sum_h D[p, h] conj(D[q, h]), so omega = D D^H with
    D = A_1 psi, one put on the one-hole table holes(1)
    (DeterminantBasis.hole_amplitudes), and one product."""
    D = basis.hole_amplitudes(state.coefficients)
    return D @ D.conj().T


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


class Problem:
    """The set-up of one run, each piece built on first use and kept;
    ground_state and det_basis build no orbital, and H and run_comparison
    read the tensor first, so its budget is checked before any orbital is
    built, in every command.  The command line builds one per compute
    subcommand and hands it to run_comparison for compare."""

    def __init__(self, config: SimulationConfig):
        self.config = config

    @cached_property
    def orbital_set(self):
        return build_orbital_set(self.config, grid=self.config.tensor_grid)

    @cached_property
    def grid_orbitals(self):
        """The orbital set sampled on config.grid, which basis writes and checks."""
        return build_orbital_set(self.config)

    @property
    def energies(self) -> np.ndarray:
        return self.orbital_set.energies

    @cached_property
    def tensor(self) -> InteractionTensor:
        config = self.config           # its budget is checked before any orbital is built
        factors = tensor_factors(config.potential, config.single_particle_dim, config.domain.M,
                                 config.tensor_grid)
        return two_body_tensor(config.potential, self.orbital_set, config.tensor_grid,
                               factors=factors)

    @cached_property
    def det_basis(self) -> DeterminantBasis:
        return enumerate_determinants(self.config.single_particle_dim, self.config.N)

    @cached_property
    def H(self):
        tensor = self.tensor           # its budget first, before any orbital is built
        return assemble_hamiltonian(self.det_basis, self.energies, tensor)

    @cached_property
    def propagator(self) -> ExactPropagator:
        return ExactPropagator(self.H, self.config.constants.hbar)

    def counters(self) -> dict:
        """K and N, then what was built: the grid of the orbitals sampled on
        config.grid, dim, nnz(H), the tensor's rank, the fraction of its
        entries the selection rule keeps and its dtype (float64 for a real
        F, so the contractions ran on float views, else complex128), and the
        propagator's matvecs.  Read from the built pieces; nothing is
        timed."""
        built = vars(self)
        out = {"K": self.config.single_particle_dim, "N": self.config.N}
        if "grid_orbitals" in built:
            out["basis_grid"] = list(self.grid_orbitals.grid.shape)
        if "det_basis" in built:
            out["dim"] = self.det_basis.dim
        if "H" in built:
            out["nnz"] = self.H.nnz
        if "tensor" in built:
            out["tensor_rank"] = self.tensor.rank
            out["tensor_rule_kept"] = self.tensor.rule_kept
            out["tensor_dtype"] = str(self.tensor.anti.dtype)
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
        """Unit columns on orbitals 0..N-1, the first noninteracting
        ground-state occupation (noninteracting_ground_state), with no set listed."""
        return np.eye(self.config.single_particle_dim, self.config.N, dtype=np.complex128)

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
        """(t, psi, energy) at the steps of sample_steps on time_grid's grid:
        psi is the determinant of the initial orbitals, the unit vector at
        orbitals 0..N-1, under exp(-i H t / hbar), advanced from sample to
        sample, and energy is Re <psi|H psi>, the one place an exact
        sample's energy is computed."""
        config, basis = self.config, self.det_basis
        psi = np.zeros(basis.dim, dtype=np.complex128)
        psi[basis.lookup(range(config.N))] = 1.0
        dt, n_steps = time_grid(config.dt, config.t_final)
        t_prev = 0.0
        for step in sample_steps(n_steps, config.sample_stride):
            t = step * dt
            psi = self.propagator.advance(psi, t - t_prev)
            t_prev = t
            yield t, psi, float(np.real(np.vdot(psi, self.H @ psi)))


def run_comparison(problem: Problem) -> ComparisonResult:
    """Evolve problem's initial determinant exactly and effectively, sampling
    error norms, both bounds, energies, and the reduced-density distance.

    One pass over hf_steps adds the closed-form defect of every step to a
    trapezoid integral, whose discretization error stays well below the
    bound slack.  At each step of sample_steps the state is embedded once,
    its wedge handed to check_defect_support and error_norm, and it meets
    the next state and energy of Problem.exact_samples in a record.  A
    record that breaks a bound is kept and counted in the summary's
    bound_violations.
    """
    config = problem.config
    tensor, energies, constants = problem.tensor, problem.energies, config.constants
    det_basis, H = problem.det_basis, problem.H
    hf0 = problem.initial_state()
    v_norm = tensor.sup_norm
    samples = set(sample_steps(time_grid(config.dt, config.t_final)[1], config.sample_stride))
    exact = problem.exact_samples()

    records, checks = [], []
    defect_bound = max_gram = max_phase = 0.0
    for step, state in hf_steps(hf0, config.dt, config.t_final, config.integrator,
                                tensor, energies, constants):
        d = defect_norm(state, tensor, constants)
        if step:
            defect_bound += 0.5 * (state.time - t_prev) * (d_prev + d)
        t_prev, d_prev = state.time, d
        if step not in samples:
            continue
        wedge = embed_wedge(state.orbitals, det_basis)
        checks.append(check_defect_support(state, d, H, det_basis, energies,
                                           tensor, constants, wedge))
        max_gram = max(max_gram, state.gram_deviation())
        max_phase = max(max_phase, abs(abs(state.a) - 1.0))
        _, psi, energy_exact = next(exact)
        psi_state = ManyBodyState(basis=det_basis, coefficients=psi)
        records.append(ComparisonRecord(
            t=state.time,
            error_norm=error_norm(psi_state, state, det_basis, wedge),
            apriori_bound=apriori_bound(config.N, v_norm, constants, state.time),
            defect_bound=defect_bound,
            energy_exact=energy_exact,
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
    return ComparisonResult(records=records, summary=summary)
