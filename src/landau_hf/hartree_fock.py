"""Nonlinear effective dynamics on the manifold of Slater determinants.

State: global phase a plus N orthonormal orbital coefficient vectors in the
truncated basis, where the one-body operator is exactly diagonal.  The
orbitals obey

    i hbar d/dt phi_l = H1 phi_l + (J[rho] - X[rho]) phi_l,

the Fock operator of the full density rho = sum_l phi_l phi_l^H, with the
direct (mean-field) potential J[rho] and the nonlocal exchange X[rho], applied
by InteractionTensor.mean_field.  The self-terms of orbital l in J and X
cancel exactly, so this equals the mean field and exchange of the other
orbitals alone.  This orbital flow preserves orthonormality exactly but
carries the tangential phase rate
sum_l <phi_l | d/dt phi_l> = (T + 2W)/(i hbar), where T is the one-body and W
the pair part of the energy.  For a*(wedge of orbitals) to satisfy the
variational projection of the full dynamics (and hence preserve energy, norm,
and the two-replacement structure of the residual), the phase must absorb the
excess:

    i hbar da/dt = -W(t) a(t),

which reduces to a constant phase for vanishing interaction.  W is evaluated
from the current orbitals at every stage; the total energy T + W is a flow
invariant, evaluated by hf_energy only where a sample records it.

hf_steps counts the steps of time_grid's grid and yields every state as it
is taken, holding only the current one; integrate_hf keeps the sampled ones
(is_sample), and per-step consumers read the generator directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import INTEGRATORS, PhysicalConstants
from .errors import InvalidValue, NonFiniteValue, NotUnitary, StepUnstable, TooLarge
from .manybody import TIME_STEP_CAP, InteractionTensor

STEP_GRAM_TOL = 1e-3       # largest Gram-deviation growth in one RK4 step
UNITARY_TOL = 1e-10        # largest |U^H U - 1| a gauge transform accepts


@dataclass(frozen=True)
class HFState:
    """Snapshot of the effective dynamics at one instant."""

    time: float
    a: complex
    orbitals: np.ndarray          # (K, N), columns orthonormal

    @property
    def N(self) -> int:
        return self.orbitals.shape[1]

    def gram_deviation(self) -> float:
        """max |C^H C - 1|, the 1 subtracted from the diagonal in place."""
        C = self.orbitals
        gram = C.conj().T @ C
        gram.ravel()[::self.N + 1] -= 1.0
        return float(np.max(np.abs(gram)))


@dataclass
class HFTrajectory:
    times: np.ndarray
    states: list
    energies: np.ndarray
    norms: np.ndarray             # |a| at each sample
    gram_devs: np.ndarray


def _pair_energy(orbitals: np.ndarray, eta: np.ndarray) -> float:
    """W = (1/2) Re <C, eta>, eta = (J[rho] - X[rho]) C the mean field of the
    orbitals C (InteractionTensor.mean_field)."""
    return 0.5 * float(np.real(np.vdot(orbitals, eta)))


def interaction_energy(orbitals: np.ndarray, tensor: InteractionTensor) -> float:
    """W = (1/2) sum_{l != l'} (direct - exchange) pair terms."""
    return _pair_energy(orbitals, tensor.mean_field(orbitals))


def hf_rhs(state: HFState, energies: np.ndarray, tensor: InteractionTensor,
           constants: PhysicalConstants) -> tuple[complex, np.ndarray]:
    """(da/dt, dphi/dt) for the coupled phase/orbital system."""
    hbar = constants.hbar
    C = state.orbitals
    eta = tensor.mean_field(C)
    h_phi = np.asarray(energies)[:, None] * C + eta
    dphi = h_phi / (1j * hbar)
    da = (1j * _pair_energy(C, eta) / hbar) * state.a
    return da, dphi


def hf_energy(state: HFState, energies: np.ndarray,
              tensor: InteractionTensor) -> float:
    """Total energy T + W of the embedded determinant state."""
    C = state.orbitals
    T = float(np.real(np.sum(np.asarray(energies)[:, None] * np.abs(C) ** 2)))
    return T + interaction_energy(C, tensor)


def gauge_transform(state: HFState, U: np.ndarray) -> HFState:
    """Mix orbitals by a unitary and divide the phase by its determinant.

    The embedded many-body state is unchanged: the wedge picks up det U,
    the phase drops it.
    """
    U = np.asarray(U)
    N = state.N
    if U.shape != (N, N):
        raise NotUnitary(f"expected ({N}, {N}) matrix, got {U.shape}")
    dev = float(np.max(np.abs(U.conj().T @ U - np.eye(N))))
    if dev > UNITARY_TOL:
        raise NotUnitary(f"U deviates from unitarity by {dev:.3e}")
    return HFState(state.time, state.a / np.linalg.det(U), state.orbitals @ U)


def _loewdin(a: complex, orbitals: np.ndarray) -> tuple[complex, np.ndarray]:
    """Symmetric orthogonalization with the compensating determinant factor.

    orbitals -> orbitals S^{-1/2} restores orthonormality; multiplying the
    phase by det S^{1/2} keeps the embedded state exactly fixed.
    """
    S = orbitals.conj().T @ orbitals
    w, U = np.linalg.eigh(S)
    inv_sqrt = (U * (w ** -0.5)) @ U.conj().T
    a_new = a * complex(np.prod(np.sqrt(w)))
    return a_new, orbitals @ inv_sqrt


def time_grid(dt: float, t_final: float) -> tuple[float, int]:
    """Step dividing [0, t_final] into n_steps = round(t_final / dt) steps (at
    least one if t_final > 0), and n_steps.  A t_final / dt that is not finite
    raises InvalidValue, and more than TIME_STEP_CAP steps TooLarge."""
    if not math.isfinite(t_final / dt):
        raise InvalidValue("t_final", "t_final / dt must be finite")
    n_steps = max(1, round(t_final / dt)) if t_final > 0 else 0
    if n_steps > TIME_STEP_CAP:
        raise TooLarge(f"time grid to t_final = {t_final!r} at dt = {dt!r} has "
                       f"{float(n_steps):.3g} steps, over the cap of {TIME_STEP_CAP}")
    return (t_final / n_steps if n_steps else 0.0), n_steps


def is_sample(step: int, n_steps: int, sample_stride: int) -> bool:
    """Whether a step of an n_steps grid is sampled: every sample_stride-th
    step is, and the last."""
    return step % sample_stride == 0 or step == n_steps


def hf_steps(initial: HFState, dt: float, t_final: float, scheme: str,
             tensor: InteractionTensor, energies: np.ndarray,
             constants: PhysicalConstants):
    """Classical RK4 on the coupled (a, orbitals) system, yielding
    (step, state) at every step of time_grid's grid, t = 0 included.

    scheme 'rk4' integrates as-is; 'rk4+reorth' follows every step with a
    symmetric orthogonalization plus phase compensation (a pure gauge move).
    A step that leaves a non-finite value raises NonFiniteValue; one that
    grows the Gram deviation by more than STEP_GRAM_TOL, or to NaN, raises
    StepUnstable.  Either is raised with no numpy RuntimeWarning before it.
    Each state's Gram deviation is computed once and kept for the next step.
    The scheme, dt (finite, > 0) and t_final (finite, >= 0) are checked here,
    before the generator is returned: a bad one raises InvalidValue at the call.
    """
    if scheme not in INTEGRATORS:
        raise InvalidValue("scheme", f"'{scheme}' is not one of {INTEGRATORS}")
    if not 0.0 < dt < math.inf:                 # NaN fails too
        raise InvalidValue("dt", "must be finite and > 0")
    if not 0.0 <= t_final < math.inf:
        raise InvalidValue("t_final", "must be finite and >= 0")
    return _rk4_steps(initial, *time_grid(dt, t_final), scheme, tensor, energies, constants)


def _rk4_steps(initial: HFState, dt_eff: float, n_steps: int, scheme: str,
               tensor: InteractionTensor, energies: np.ndarray,
               constants: PhysicalConstants):
    state = HFState(time=float(initial.time), a=complex(initial.a),
                    orbitals=initial.orbitals.astype(np.complex128))

    def rhs(a_val, C_val):         # hf_rhs looked up per call: a rebinding of it is seen
        return hf_rhs(HFState(state.time, a_val, C_val), energies, tensor, constants)

    half, sixth = 0.5 * dt_eff, dt_eff / 6.0     # 0.5 * dt_eff * k is (0.5 * dt_eff) * k
    yield 0, state
    gram = state.gram_deviation()
    for step in range(1, n_steps + 1):
        a, C = state.a, state.orbitals
        # an overflow is reported as NonFiniteValue or StepUnstable below,
        # with no RuntimeWarning before it
        with np.errstate(over="ignore", invalid="ignore"):
            k1a, k1C = rhs(a, C)
            k2a, k2C = rhs(a + half * k1a, C + half * k1C)
            k3a, k3C = rhs(a + half * k2a, C + half * k2C)
            k4a, k4C = rhs(a + dt_eff * k3a, C + dt_eff * k3C)
            a = a + sixth * (k1a + 2 * k2a + 2 * k3a + k4a)
            C = C + sixth * (k1C + 2 * k2C + 2 * k3C + k4C)
            state = HFState(time=initial.time + step * dt_eff, a=a, orbitals=C)
            if not (np.isfinite(a) and np.all(np.isfinite(C))):
                raise NonFiniteValue(f"non-finite value at t = {state.time}")
            gram_before, gram = gram, state.gram_deviation()
        drift = gram - gram_before
        if not drift <= STEP_GRAM_TOL:                  # NaN fails too
            raise StepUnstable(f"orthonormality drifted by {drift:.3e} "
                               f"in one step at t = {state.time}")
        if scheme == "rk4+reorth":
            state = HFState(state.time, *_loewdin(a, C))
            gram = state.gram_deviation()
        yield step, state


def integrate_hf(initial: HFState, dt: float, t_final: float, scheme: str,
                 tensor: InteractionTensor, energies: np.ndarray,
                 constants: PhysicalConstants, sample_stride: int = 1) -> HFTrajectory:
    """The states of hf_steps at time_grid's samples (is_sample), with their
    energy, |a| and Gram deviation."""
    steps = hf_steps(initial, dt, t_final, scheme, tensor, energies, constants)
    n_steps = time_grid(dt, t_final)[1]
    states = [s for step, s in steps if is_sample(step, n_steps, sample_stride)]
    return HFTrajectory(
        times=np.asarray([s.time for s in states]), states=states,
        energies=np.asarray([hf_energy(s, energies, tensor) for s in states]),
        norms=np.asarray([abs(s.a) for s in states]),
        gram_devs=np.asarray([s.gram_deviation() for s in states]))
